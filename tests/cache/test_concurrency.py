"""Concurrency battery of the tiered result cache.

N threads hammer one shared cached :class:`~repro.session.Session` with a
Zipf-skewed request mix over a small keyspace and the battery asserts the
properties the cache claims under load: answers bit-identical to sequential
uncached solving, exactly one real solve per unique key (stampede
protection), eviction under load never serving a stale or torn grid, and
injected corruption surfacing as counted misses followed by self-repair.

The keyspace includes witness-bearing probabilistic apps (``viterbi``,
``stochastic-path``), so every battery pass also proves witnesses survive
the memory tier, the disk tier (npz round-trip across a session restart)
and result coalescing byte-identically.
"""

import threading

import numpy as np
import pytest

from repro.cache import DiskCacheStore, ResultCache, request_key
from repro.core.exceptions import CacheError
from repro.facade.policy import ExecutionPolicy
from repro.session import Session

#: Pin the serial backend: these tests are about the cache, not the tuner.
SERIAL = ExecutionPolicy(backend="serial")

#: The small keyspace every battery test draws from (distinct signatures,
#: including two witness-bearing probabilistic apps).
KEYSPACE = (
    ("lcs", 20),
    ("lcs", 24),
    ("edit-distance", 20),
    ("matrix-chain", 18),
    ("viterbi", 16),
    ("stochastic-path", 16),
)


def zipf_requests(count, seed=3, s=1.2):
    """A seeded Zipf-skewed request stream over :data:`KEYSPACE`."""
    rng = np.random.RandomState(seed)
    ranks = np.arange(1, len(KEYSPACE) + 1, dtype=float)
    weights = ranks**-s
    picks = rng.choice(len(KEYSPACE), size=count, p=weights / weights.sum())
    return [KEYSPACE[i] for i in picks]


def hammer(threads, worker):
    """Run ``worker`` on ``threads`` threads; re-raise the first error."""
    errors = []

    def guarded():
        try:
            worker()
        except BaseException as error:  # noqa: BLE001 - surfaced to pytest
            errors.append(error)

    pool = [threading.Thread(target=guarded) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


@pytest.fixture(scope="module")
def expected_grids():
    """Sequential, uncached reference answers for the whole keyspace."""
    with Session(system="i7-2600K") as session:
        return {
            (app, dim): session.solve(app, dim, policy=SERIAL).grid.values.copy()
            for app, dim in KEYSPACE
        }


@pytest.fixture(scope="module")
def expected_witnesses():
    """Sequential, uncached reference witnesses (None for witness-free apps)."""
    with Session(system="i7-2600K") as session:
        witnesses = {}
        for app, dim in KEYSPACE:
            witness = session.solve(app, dim, policy=SERIAL).witness
            witnesses[(app, dim)] = None if witness is None else witness.copy()
        return witnesses


def assert_witness_matches(result, expected_witnesses, app, dim):
    """One served result's witness must byte-match the sequential reference."""
    expected = expected_witnesses[(app, dim)]
    if expected is None:
        assert result.witness is None, f"{app}:{dim} grew an unexpected witness"
    else:
        assert result.witness is not None, f"{app}:{dim} lost its witness"
        assert result.witness.dtype == expected.dtype
        assert np.array_equal(result.witness, expected), (
            f"{app}:{dim} witness diverged from sequential solving"
        )


class TestSharedSessionBattery:
    def test_concurrent_zipf_stream_matches_sequential(
        self, tmp_path, expected_grids, expected_witnesses
    ):
        requests = zipf_requests(64)
        stream = iter(requests)
        stream_lock = threading.Lock()
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:

            def worker():
                while True:
                    with stream_lock:
                        item = next(stream, None)
                    if item is None:
                        return
                    app, dim = item
                    result = session.solve(app, dim, policy=SERIAL)
                    assert np.array_equal(
                        result.grid.values, expected_grids[(app, dim)]
                    ), f"{app}:{dim} diverged from sequential solving"
                    assert_witness_matches(result, expected_witnesses, app, dim)

            hammer(8, worker)
            # Exactly-once: every unique key cost one real execution, no
            # matter how the 64 requests raced across 8 threads.
            assert session.stats["runs"] == len(KEYSPACE)
            info = session.cache_info()["results"]
            assert info["lookups"] == len(requests)
            assert info["misses"] == len(KEYSPACE)
            assert (
                info["memory_hits"] + info["coalesced"]
                == len(requests) - len(KEYSPACE)
            )

    def test_warm_restart_serves_from_disk_without_solving(
        self, tmp_path, expected_grids, expected_witnesses
    ):
        with Session(system="i7-2600K", cache_dir=tmp_path) as warmup:
            for app, dim in KEYSPACE:
                warmup.solve(app, dim, policy=SERIAL)
        requests = zipf_requests(16, seed=11)
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:

            def worker():
                for app, dim in requests:
                    result = session.solve(app, dim, policy=SERIAL)
                    assert np.array_equal(
                        result.grid.values, expected_grids[(app, dim)]
                    )
                    # Disk-tier witnesses: byte-identical across the restart.
                    assert_witness_matches(result, expected_witnesses, app, dim)

            hammer(6, worker)
            assert session.stats["runs"] == 0, "warm restart must not re-solve"
            # One disk hit per unique key the skewed stream actually touched.
            assert session.cache_info()["results"]["disk_hits"] == len(set(requests))


class TestStampedeProtection:
    def test_cold_key_is_solved_exactly_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = request_key("lcs", 20, overrides={"backend": "serial"})
        solves = []
        gate = threading.Barrier(8)
        with Session(system="i7-2600K") as session:

            def solve():
                solves.append(threading.get_ident())
                return session.solve("lcs", 20, policy=SERIAL)

            def worker():
                gate.wait()  # maximise the race on the cold key
                cache.get_or_solve(key, solve)

            hammer(8, worker)
        assert len(solves) == 1, "concurrent misses must elect one leader"
        assert cache.lookups == 8 and cache.misses == 1
        assert cache.coalesced + cache.memory_hits == 7

    def test_leader_failure_propagates_then_clears(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = request_key("lcs", 24, overrides={"backend": "serial"})
        gate = threading.Barrier(4)
        failures = []

        def failing_solve():
            raise RuntimeError("injected solve failure")

        def worker():
            gate.wait()
            try:
                cache.get_or_solve(key, failing_solve)
            except RuntimeError:
                failures.append(1)

        hammer(4, worker)
        assert len(failures) == 4, "the leader's error reaches every waiter"
        # The in-flight slot is retired: a later solve succeeds normally.
        with Session(system="i7-2600K") as session:
            result = cache.get_or_solve(
                key, lambda: session.solve("lcs", 24, policy=SERIAL)
            )
        assert result.grid is not None


class TestEvictionUnderLoad:
    def test_tight_bounds_never_serve_stale_or_torn_grids(
        self, tmp_path, expected_grids
    ):
        cache = ResultCache(tmp_path, max_entries=2, memory_entries=1)
        with Session(system="i7-2600K", cache_dir=None, result_cache=cache) as session:

            def worker():
                for app, dim in zipf_requests(24, seed=17, s=0.5):
                    result = session.solve(app, dim, policy=SERIAL)
                    assert np.array_equal(
                        result.grid.values, expected_grids[(app, dim)]
                    ), f"{app}:{dim} served a wrong grid under eviction pressure"

            hammer(6, worker)
        assert cache.store.evictions > 0, "the test must actually evict"
        assert cache.store.info()["entries"] <= 2
        assert cache.store.corrupt_dropped == 0


class TestCorruptionUnderLoad:
    def test_injected_corruption_is_counted_and_repaired(
        self, tmp_path, expected_grids
    ):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            session.solve("lcs", 20, policy=SERIAL)
            session.result_cache.flush()
            digest = next(iter(p.stem for p in tmp_path.glob("*.npz")))
            path = tmp_path / f"{digest}.npz"
            path.write_bytes(b"garbage" * 100)
            session.result_cache.clear_memory()
            runs_before = session.stats["runs"]

            def worker():
                result = session.solve("lcs", 20, policy=SERIAL)
                assert np.array_equal(
                    result.grid.values, expected_grids[("lcs", 20)]
                )

            hammer(6, worker)
            store = session.result_cache.store
            assert store.corrupt_dropped == 1, "corruption must be counted once"
            assert session.stats["runs"] == runs_before + 1, "one repair re-solve"
            # Self-repair: the entry is valid again for a cold reader.
            session.result_cache.flush()
            fresh = DiskCacheStore(tmp_path)
            assert fresh.get(digest) is not None

    def test_stale_directory_fails_fast_at_session_construction(self, tmp_path):
        (tmp_path / "cache_format.json").write_text('{"format_version": 999}')
        with pytest.raises(CacheError):
            Session(system="i7-2600K", cache_dir=tmp_path)


class TestWitnessEndToEnd:
    """Cold solve -> memory hit -> disk hit return byte-identical witnesses."""

    @pytest.mark.parametrize("app,dim", [("viterbi", 16), ("stochastic-path", 16)])
    def test_witness_identical_across_all_cache_tiers(self, tmp_path, app, dim):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            cold = session.solve(app, dim, policy=SERIAL)
            session.result_cache.flush()
            assert cold.witness is not None and cold.witness.dtype == np.int64
            warm = session.solve(app, dim, policy=SERIAL)
            assert session.cache_info()["results"]["memory_hits"] >= 1
            assert np.array_equal(warm.witness, cold.witness)
        # A fresh session over the same directory hits the disk tier only.
        with Session(system="i7-2600K", cache_dir=tmp_path) as restarted:
            disk = restarted.solve(app, dim, policy=SERIAL)
            assert restarted.stats["runs"] == 0
            assert disk.witness.dtype == cold.witness.dtype
            assert np.array_equal(disk.witness, cold.witness)

    def test_witness_free_apps_stay_witness_free_through_the_tiers(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            assert session.solve("lcs", 20, policy=SERIAL).witness is None
        with Session(system="i7-2600K", cache_dir=tmp_path) as restarted:
            assert restarted.solve("lcs", 20, policy=SERIAL).witness is None
