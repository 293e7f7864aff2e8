"""Crash recovery of the multiprocessing backend.

A worker process killed mid-service must surface as a typed
``WorkerCrashError`` (never a hang or a bare pipe error), mark the team
broken, and cost exactly one request: the ``EngineHost`` forks a fresh
team on the next borrow and the broken team's shared-memory arena is
unlinked, not leaked.
"""

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.core.exceptions import WorkerCrashError
from repro.runtime import MPWavefrontPool
from repro.runtime.compute import reference_grid
from repro.runtime.lifecycle import EngineHost

HAS_SHM_DIR = os.path.isdir("/dev/shm")
HAS_FORK = "fork" in mp.get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not HAS_FORK, reason="worker-kill tests need a forking platform"
)


def kill_one_worker(pool):
    """SIGKILL one live worker process of a multiprocess pool.

    One sweep first proves the kill (not a cold team) is what breaks the
    subsequent run.
    """
    pool.run(pool.problem.make_grid())
    os.kill(pool.team.pids()[0], signal.SIGKILL)


def assert_arena_free(pool):
    """The crashed run gave the arena back: it can be claimed again."""
    pool.team.claim(pool.problem.dim)
    pool.team.unclaim()


class TestWorkerCrashRecovery:
    def test_killed_worker_raises_typed_error_not_hang(self, small_synthetic):
        grid = small_synthetic.make_grid()
        original = grid.values
        pool = MPWavefrontPool(small_synthetic, tile=4, workers=2)
        try:
            assert pool.is_multiprocess and not pool.broken
            kill_one_worker(pool)
            with pytest.raises(WorkerCrashError):
                pool.run(grid)
            assert pool.broken
            assert grid.values is original
            assert_arena_free(pool)
        finally:
            pool.close()

    def test_engine_host_replaces_a_broken_pool(self, small_synthetic, i7_2600k):
        with EngineHost(i7_2600k) as host:
            pool = host.pool_for(small_synthetic, tile=4, workers=2)
            grid = small_synthetic.make_grid()
            kill_one_worker(pool)
            with pytest.raises(WorkerCrashError):
                pool.run(grid)
            assert pool.broken
            with pytest.raises(WorkerCrashError):  # broken stays broken
                pool.run(grid)
            assert_arena_free(pool)
            old_pids = pool.team.pids()

            fresh = host.pool_for(small_synthetic, tile=4, workers=2)
            assert fresh.team is not pool.team
            assert not fresh.broken
            assert len(old_pids) == 2 and not set(fresh.team.pids()) & set(old_pids)
            info = host.cache_info()
            assert info["builds"]["teams_built"] == 2
            assert info["teams"] == {"size": 1, "pids": fresh.team.pids()}

            # The replacement pool serves the next request correctly.
            grid = small_synthetic.make_grid()
            fresh.run(grid)
            assert np.array_equal(
                reference_grid(small_synthetic).values, grid.values
            )

    @pytest.mark.skipif(not HAS_SHM_DIR, reason="needs a /dev/shm to audit")
    def test_no_shared_memory_segments_leak_after_crash(
        self, small_synthetic, i7_2600k
    ):
        before = set(os.listdir("/dev/shm"))
        host = EngineHost(i7_2600k)
        try:
            pool = host.pool_for(small_synthetic, tile=4, workers=2)
            kill_one_worker(pool)
            with pytest.raises(WorkerCrashError):
                pool.run(small_synthetic.make_grid())
            # Replacing the broken team closes it (unlinking its arena).
            host.pool_for(small_synthetic, tile=4, workers=2)
        finally:
            host.close()
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
