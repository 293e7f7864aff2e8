"""Session- and server-level behaviour of the persistent result cache.

What is cached (functional registry-name requests), what deliberately
bypasses the cache (simulate mode, instance/problem requests), how the
cache surfaces in ``cache_info()`` and the server's metrics snapshot, and
that cached answers stay bit-identical to fresh solving.
"""

import hashlib

import numpy as np
import pytest

from repro.apps.lcs import LCSApp
from repro.server import ReproServer, ServerConfig, result_payload
from repro.facade.policy import ExecutionPolicy
from repro.session import Session

#: Pin the serial backend: these tests are about the cache, not the tuner.
SERIAL = ExecutionPolicy(backend="serial")


class TestSolveCaching:
    def test_repeated_solve_executes_once(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            first = session.solve("lcs", 24, policy=SERIAL)
            runs = session.stats["runs"]
            second = session.solve("lcs", 24, policy=SERIAL)
            assert session.stats["runs"] == runs
            assert np.array_equal(first.grid.values, second.grid.values)

    def test_results_persist_across_sessions(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as first:
            original = session_solve = first.solve("lcs", 24, policy=SERIAL)
        with Session(system="i7-2600K", cache_dir=tmp_path) as second:
            replayed = second.solve("lcs", 24, policy=SERIAL)
            assert second.stats["runs"] == 0
            assert second.cache_info()["results"]["disk_hits"] == 1
        assert np.array_equal(original.grid.values, replayed.grid.values)
        assert replayed.rtime == pytest.approx(session_solve.rtime)

    def test_solve_many_shares_the_cache(self, tmp_path):
        requests = [("lcs", 24), ("lcs", 24), ("matrix-chain", 18), ("lcs", 24)]
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            # Warm the plan path manually so every request is a manual plan.
            results = session.solve_many(
                [{"app": app, "dim": dim, "policy": SERIAL} for app, dim in requests]
            )
            assert session.stats["runs"] == 2  # two distinct signatures
            assert np.array_equal(results[0].grid.values, results[1].grid.values)

    def test_simulate_mode_bypasses_the_cache(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            runs = session.stats["runs"]
            session.solve("lcs", 24, policy=SERIAL, mode="simulate")
            session.solve("lcs", 24, policy=SERIAL, mode="simulate")
            assert session.stats["runs"] == runs + 2
            assert session.cache_info()["results"]["lookups"] == 0

    def test_instance_requests_bypass_the_cache(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            app = LCSApp(dim=24, seed=5)
            runs = session.stats["runs"]
            session.solve(app, 24, policy=SERIAL)
            session.solve(app, 24, policy=SERIAL)
            assert session.stats["runs"] == runs + 2
            assert session.cache_info()["results"]["lookups"] == 0

    def test_distinct_overrides_get_distinct_entries(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            serial = session.solve("lcs", 24, policy=SERIAL)
            vectorized = session.solve("lcs", 24, policy=ExecutionPolicy(backend="vectorized"))
            assert session.stats["runs"] == 2
            assert session.cache_info()["results"]["misses"] == 2
            # Same mathematics, separately addressed.
            assert np.array_equal(serial.grid.values, vectorized.grid.values)

    def test_cached_answers_match_uncached_sessions(self, tmp_path):
        with Session(system="i7-2600K") as plain:
            expected = plain.solve("lcs", 24, policy=SERIAL)
        with Session(system="i7-2600K", cache_dir=tmp_path) as cached:
            cached.solve("lcs", 24, policy=SERIAL)
            warm = cached.solve("lcs", 24, policy=SERIAL)
        assert np.array_equal(warm.grid.values, expected.grid.values)


class TestSharedResultIsHashedOnce:
    """A memory-tier hit hands every reader the same result object, so its
    digests are computed once per object, not once per reply."""

    def test_two_payloads_of_one_result_hash_once(self, tmp_path, monkeypatch):
        calls = []
        real_sha256 = hashlib.sha256
        monkeypatch.setattr(
            hashlib, "sha256", lambda data: calls.append(1) or real_sha256(data)
        )
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            first = session.solve("viterbi", 24, policy=SERIAL)
            again = session.solve("viterbi", 24, policy=SERIAL)  # memory hit
            assert again is first
            del calls[:]  # the request keys above are SHA-256 digests too
            payloads = [result_payload("viterbi", 24, r) for r in (first, again)]
        assert payloads[0] == payloads[1]
        assert len(calls) == 2  # one grid digest + one witness digest, ever
        assert payloads[0]["checksum"] == float(np.sum(first.grid.values))

    def test_a_disk_hit_decoded_into_a_new_object_hashes_the_same(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as first:
            original = first.solve("viterbi", 24, policy=SERIAL)
        with Session(system="i7-2600K", cache_dir=tmp_path) as second:
            replayed = second.solve("viterbi", 24, policy=SERIAL)
            assert second.cache_info()["results"]["disk_hits"] == 1
        assert replayed is not original
        assert replayed.grid_sha256 == original.grid_sha256
        assert replayed.witness_sha256 == original.witness_sha256
        assert replayed.checksum == original.checksum
        expected = hashlib.sha256(original.grid.values.tobytes()).hexdigest()
        assert original.grid_sha256 == expected


class TestIntrospection:
    def test_cache_info_has_no_results_section_without_cache(self):
        with Session(system="i7-2600K") as session:
            assert "results" not in session.cache_info()
            assert session.result_cache is None

    def test_cache_info_reports_every_tier(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            session.solve("lcs", 24, policy=SERIAL)
            session.solve("lcs", 24, policy=SERIAL)
            info = session.cache_info()["results"]
        assert info["lookups"] == 2 and info["misses"] == 1
        assert info["memory_hits"] == 1
        assert info["hit_rate"] == pytest.approx(0.5)
        assert info["disk"]["entries"] == 1
        assert info["memory"]["size"] == 1

    def test_server_metrics_carry_the_cache_section(self, tmp_path):
        session = Session(system="i7-2600K", cache_dir=tmp_path, space=None)
        with ReproServer(session, ServerConfig(), own_session=True) as server:
            server.solve("lcs", 24, policy=SERIAL, timeout=30)
            server.solve("lcs", 24, policy=SERIAL, timeout=30)
            snapshot = server.metrics()
        assert snapshot["cache"] is not None
        assert snapshot["cache"]["lookups"] >= 2
        assert snapshot["cache"]["misses"] >= 1
        assert "caches" in snapshot and "results" in snapshot["caches"]

    def test_server_metrics_cache_is_none_without_cache_dir(self):
        session = Session(system="i7-2600K")
        with ReproServer(session, ServerConfig(), own_session=True) as server:
            assert server.metrics()["cache"] is None
