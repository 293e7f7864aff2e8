"""Misses are answered, then written.

The leader of a miss publishes its result (memory tier, followers, caller)
before the disk write; a writer thread persists it afterwards.  These tests
hold that writer at a gate to observe the window in between: the answer is
already served, a lookup finds the pending entry without touching disk,
``flush()`` / ``Session.close()`` wait for the write, and a failed write is
counted instead of failing the computed answer.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache import DiskCacheStore, ResultCache, request_key
from repro.cache import tier
from repro.facade.policy import ExecutionPolicy
from repro.session import Session

#: Pin the serial backend: these tests are about the cache, not the tuner.
SERIAL = ExecutionPolicy(backend="serial")


def on_disk(store, digest):
    """True when ``digest``'s entry file is in the store's directory."""
    return (store.directory / f"{digest}.npz").exists()


@pytest.fixture()
def held_writes(monkeypatch):
    """Hold every disk write until the returned event is set."""
    gate = threading.Event()
    real_put = DiskCacheStore.put

    def put(self, digest, result, request=None):
        gate.wait(timeout=60)
        return real_put(self, digest, result, request)

    monkeypatch.setattr(DiskCacheStore, "put", put)
    yield gate
    gate.set()


@pytest.fixture()
def failing_writes(monkeypatch):
    """Every disk write fails the way a full disk does."""

    def put(self, digest, result, request=None):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(DiskCacheStore, "put", put)


class TestAnsweredThenWritten:
    def test_the_answer_does_not_wait_for_its_write(self, tmp_path, held_writes):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            result = session.solve("viterbi", 16, policy=SERIAL)  # write held
            assert result.grid is not None
            assert DiskCacheStore(tmp_path).info()["entries"] == 0
            assert session.solve("viterbi", 16, policy=SERIAL) is result
            held_writes.set()
            session.result_cache.flush()
            assert DiskCacheStore(tmp_path).info()["entries"] == 1

    def test_a_pending_entry_is_found_before_disk(self, tmp_path, held_writes):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            first = session.solve("lcs", 20, policy=SERIAL)
            cache = session.result_cache
            cache.clear_memory()
            again = session.solve("lcs", 20, policy=SERIAL)
            assert again is first
            assert session.stats["runs"] == 1
            assert cache.disk_hits == 1 and cache.misses == 1
            assert cache.store.info()["misses"] == 1, "only the leader read disk"
            held_writes.set()

    def test_pending_and_memory_bytes_are_the_answers_arrays(self, tmp_path, held_writes):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            result = session.solve("viterbi", 16, policy=SERIAL)  # write held
            size = result.grid.values.nbytes + result.witness.nbytes
            info = session.result_cache.info()
            assert info["pending"] == {"entries": 1, "bytes": size}
            assert info["memory"]["bytes"] == size
            held_writes.set()
            session.result_cache.flush()
            info = session.result_cache.info()
            assert info["pending"] == {"entries": 0, "bytes": 0}
            assert info["memory"]["bytes"] == size

    def test_past_the_bound_the_leader_writes_inline(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tier, "MAX_PENDING_WRITES", 1)
        first = request_key("lcs", 20, overrides={"backend": "serial"})
        second = request_key("lcs", 24, overrides={"backend": "serial"})
        gate, real_put = threading.Event(), DiskCacheStore.put

        def put(self, digest, result, request=None):
            if digest == first.digest:
                gate.wait(timeout=60)  # only the first entry's write is held
            return real_put(self, digest, result, request)

        monkeypatch.setattr(DiskCacheStore, "put", put)
        cache = ResultCache(tmp_path)
        with Session(system="i7-2600K") as session:
            cache.get_or_solve(first, lambda: session.solve("lcs", 20, policy=SERIAL))
            cache.get_or_solve(second, lambda: session.solve("lcs", 24, policy=SERIAL))
        assert on_disk(cache.store, second.digest), "the bound was full: written inline"
        assert not on_disk(cache.store, first.digest), "still held behind the gate"
        gate.set()
        cache.flush()
        assert on_disk(cache.store, first.digest)


class TestPersistence:
    def test_close_persists_every_answered_miss(self, tmp_path, held_writes):
        dims = (16, 18, 20, 22)
        session = Session(system="i7-2600K", cache_dir=tmp_path)
        for dim in dims:
            session.solve("lcs", dim, policy=SERIAL)
        closer = threading.Thread(target=session.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive(), "close() must wait for the held writes"
        held_writes.set()
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert DiskCacheStore(tmp_path).info()["entries"] == len(dims)

    def test_another_process_sees_an_entry_after_flush(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            session.solve("lcs", 20, policy=SERIAL)
            session.result_cache.flush()
            src = str(Path(repro.__file__).resolve().parents[1])
            probe = (
                "import sys; from repro.cache import DiskCacheStore; "
                "store = DiskCacheStore(sys.argv[1]); "
                "print(sum(store.get(p.stem) is not None for p in store.directory.glob('*.npz')))"
            )
            completed = subprocess.run(
                [sys.executable, "-c", probe, str(tmp_path)],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
            )
            assert completed.returncode == 0, completed.stderr.decode()
            assert completed.stdout.decode().strip() == "1"


class TestUnderLoad:
    def test_racing_threads_keep_the_counters_and_the_disk_whole(self, tmp_path):
        # A two-entry memory tier pushes lookups onto the pending writes and
        # the disk while the writer thread is busy; a tiny switch interval
        # makes every lost update on the shared counters likely to show.
        keys = [("lcs", dim) for dim in range(8, 20)]
        cache = ResultCache(tmp_path, memory_entries=2)
        first_seen, errors = {}, []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Session(system="i7-2600K", result_cache=cache) as session:

                def worker(seed):
                    try:
                        picks = np.random.RandomState(seed).randint(len(keys), size=40)
                        for app, dim in (keys[i] for i in picks):
                            grid = session.solve(app, dim, policy=SERIAL).grid.values
                            expected = first_seen.setdefault(dim, grid)
                            assert np.array_equal(grid, expected), f"{app}:{dim} diverged"
                    except BaseException as error:  # noqa: BLE001 - surfaced below
                        errors.append(error)

                threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                runs = session.stats["runs"]
        finally:
            sys.setswitchinterval(previous)
        if errors:
            raise errors[0]
        info = cache.info()
        assert info["misses"] == runs == len(keys), "every key solved exactly once"
        assert info["lookups"] == 8 * 40 == (
            info["memory_hits"] + info["disk_hits"] + info["coalesced"] + info["misses"]
        )
        assert info["disk"]["entries"] == len(keys) and info["disk"]["write_errors"] == 0


class TestFailedWrites:
    def test_a_failed_write_still_answers_bit_identically(self, tmp_path, failing_writes):
        with Session(system="i7-2600K") as plain:
            expected = plain.solve("viterbi", 16, policy=SERIAL)
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            result = session.solve("viterbi", 16, policy=SERIAL)
            session.result_cache.flush()
            assert np.array_equal(result.grid.values, expected.grid.values)
            assert np.array_equal(result.witness, expected.witness)
            info = session.cache_info()["results"]
            assert info["disk"]["write_errors"] == 1
            assert info["disk"]["entries"] == 0, "a failed entry is not indexed"
            assert session.solve("viterbi", 16, policy=SERIAL) is result, "kept in memory"
            assert session.stats["runs"] == 1

    def test_an_inline_failed_write_is_counted_too(
        self, tmp_path, failing_writes, monkeypatch
    ):
        monkeypatch.setattr(tier, "MAX_PENDING_WRITES", 0)
        cache = ResultCache(tmp_path)
        key = request_key("lcs", 20, overrides={"backend": "serial"})
        with Session(system="i7-2600K") as session:
            result = cache.get_or_solve(key, lambda: session.solve("lcs", 20, policy=SERIAL))
        assert result.grid is not None
        assert cache.info()["disk"]["write_errors"] == 1
        assert cache.get_or_solve(key, lambda: pytest.fail("re-solved")) is result

    def test_coalesced_followers_get_the_answer(self, tmp_path, failing_writes):
        cache = ResultCache(tmp_path)
        key = request_key("lcs", 24, overrides={"backend": "serial"})
        gate, answers = threading.Barrier(4), []
        with Session(system="i7-2600K") as session:

            def worker():
                gate.wait()
                answers.append(
                    cache.get_or_solve(key, lambda: session.solve("lcs", 24, policy=SERIAL))
                )

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        cache.flush()
        assert len(answers) == 4 and all(a is answers[0] for a in answers)
        assert cache.misses == 1 and cache.info()["disk"]["write_errors"] == 1
