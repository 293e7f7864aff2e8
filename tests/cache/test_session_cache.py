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
from repro.apps.registry import available_applications, get_application
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
            original = first.solve("lcs", 24, policy=SERIAL)
        with Session(system="i7-2600K", cache_dir=tmp_path) as second:
            replayed = second.solve("lcs", 24, policy=SERIAL)
            assert second.stats["runs"] == 0
            assert second.cache_info()["results"]["disk_hits"] == 1
        assert np.array_equal(original.grid.values, replayed.grid.values)
        assert replayed.wall_time == original.wall_time and replayed.rtime is None

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

    def test_problem_requests_bypass_the_cache(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            problem = LCSApp(dim=24, seed=5).problem(24)
            runs = session.stats["runs"]
            session.solve(problem, policy=SERIAL)
            session.solve(problem, policy=SERIAL)
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


def problem_builds(session):
    """Instances the session has built: misses of its problem cache."""
    return session.cache_info()["problems"]["misses"]


#: 40 distinct registry requests: every application at four sizes.
FORTY = [(app, dim) for app in available_applications() for dim in (16, 24, 40, 64)]


class TestAnswersReplaceInputs:
    """A cache-backed session keeps answers, not the instances behind them."""

    def test_forty_answers_leave_no_instance_data(self, tmp_path, i3, quick_tuner_i3):
        assert len(FORTY) == 40 and ("stochastic-path", 64) in FORTY
        with Session(system=i3, tuner=quick_tuner_i3) as plain:
            expected = [plain.solve(app, dim) for app, dim in FORTY]
        with Session(system=i3, tuner=quick_tuner_i3, cache_dir=tmp_path) as cached:
            answers = [cached.solve(app, dim) for app, dim in FORTY]
            problems = cached.cache_info()["problems"]
            assert (problems["size"], problems["bytes"]) == (0, 0)
            assert problem_builds(cached) == 40  # each built once, for its sweep
        for answer, reference in zip(answers, expected):
            assert answer.grid_sha256 == reference.grid_sha256
            assert answer.witness_sha256 == reference.witness_sha256

    def test_hits_on_cached_plans_build_no_problem(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            session.solve("viterbi", 24, policy=SERIAL)  # the miss builds one
            assert problem_builds(session) == 1
            assert session.serve_from_memory("viterbi", 24, policy=SERIAL) is not None
            session.solve("viterbi", 24, policy=SERIAL)  # memory hit
            session.result_cache.flush()
            session.result_cache.clear_memory()
            session.solve("viterbi", 24, policy=SERIAL)  # disk hit, plan cached
            info = session.cache_info()
            assert info["results"]["disk_hits"] == 1 and info["results"]["memory_hits"] == 2
            assert problem_builds(session) == 1
            assert info["problems"]["size"] == 0

    def test_a_disk_hit_without_its_plan_builds_once_then_releases(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as first:
            first.solve("stochastic-path", 24, policy=SERIAL)
        with Session(system="i7-2600K", cache_dir=tmp_path) as second:
            second.solve("stochastic-path", 24, policy=SERIAL)
            info = second.cache_info()
            assert info["results"]["disk_hits"] == 1 and second.stats["runs"] == 0
            assert problem_builds(second) == 1  # to read the signature
            assert (info["problems"]["size"], info["problems"]["bytes"]) == (0, 0)

    def test_uncacheable_work_keeps_its_problem(self, tmp_path):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            session.solve("lcs", 24, policy=SERIAL, mode="simulate")
            session.run(session.plan("lcs", 24, policy=SERIAL))
            assert session.cache_info()["problems"]["size"] == 1
            assert problem_builds(session) == 1


class TestOneOwner:
    """Plans of registry names hold no problem; the problem cache does."""

    def test_a_cacheless_session_builds_each_instance_once(self):
        with Session(system="i7-2600K") as session:
            for _ in range(3):
                session.solve("lcs", 24, policy=SERIAL)
            session.run(session.plan("lcs", 24, policy=SERIAL))
            session.solve("lcs", 24, policy=ExecutionPolicy(backend="vectorized"))
            assert problem_builds(session) == 1 and session.stats["runs"] == 5

    def test_a_cacheless_session_reports_the_bytes_it_holds(self):
        requests = [("stochastic-path", 32), ("viterbi", 40), ("lcs", 24)]
        with Session(system="i7-2600K") as session:
            for app, dim in requests:
                session.solve(app, dim, policy=SERIAL)
            held = session.cache_info()["problems"]["bytes"]
        built = [get_application(app, dim=dim).problem(dim) for app, dim in requests]
        assert held == sum(problem.nbytes for problem in built) > 4 * 32 * 32 * 8

    def test_no_cached_plan_holds_a_problem(self):
        with Session(system="i7-2600K") as session:
            for app, kwargs in (("lcs", {}), ("lcs", {"seed": 3}), ("viterbi", {})):
                for policy in (SERIAL, ExecutionPolicy(backend="vectorized")):
                    plan = session.plan(app, 24, policy=policy, **kwargs)
                    session.run(plan)
                    again = session.plan(app, 24, policy=policy, **kwargs)  # the cached one
                    assert again is plan and plan.problem is None
            instance = session.plan(LCSApp(dim=24, seed=5).problem(24), policy=SERIAL)
            assert instance.problem is not None  # a caller's problem stays carried


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
            session.result_cache.flush()
            info = session.cache_info()["results"]
        assert info["lookups"] == 2 and info["misses"] == 1
        assert info["memory_hits"] == 1
        assert info["hit_rate"] == pytest.approx(0.5)
        assert info["disk"]["entries"] == 1
        assert info["memory"]["size"] == 1

    def test_server_metrics_carry_the_cache_section(self, tmp_path):
        session = Session(system="i7-2600K", cache_dir=tmp_path, space=None)
        with ReproServer(session, ServerConfig(), own_session=True) as server:
            server.solve("lcs", 24, policy=SERIAL)
            server.solve("lcs", 24, policy=SERIAL)
            snapshot = server.metrics()
        assert snapshot["cache"] is not None
        assert snapshot["cache"]["lookups"] >= 2
        assert snapshot["cache"]["misses"] >= 1
        assert "caches" in snapshot and "results" in snapshot["caches"]

    def test_server_metrics_carry_the_byte_counts(self, tmp_path):
        session = Session(system="i7-2600K", cache_dir=tmp_path)
        with ReproServer(session, ServerConfig(), own_session=True) as server:
            result = server.solve("viterbi", 24, policy=SERIAL)
            snapshot = server.metrics()
        assert snapshot["caches"]["problems"]["bytes"] == 0
        size = result.grid.values.nbytes + result.witness.nbytes
        assert snapshot["cache"]["memory"]["bytes"] == size
        assert snapshot["cache"]["pending"]["bytes"] in (0, size)

    def test_server_metrics_cache_is_none_without_cache_dir(self):
        session = Session(system="i7-2600K")
        with ReproServer(session, ServerConfig(), own_session=True) as server:
            assert server.metrics()["cache"] is None
