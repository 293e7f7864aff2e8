"""Memory-tier result-cache hits are answered at admission.

``ReproServer.submit`` asks the server session for a memory-tier answer
before it admits anything: a hit returns an already-completed ticket
without reaching the solve, a miss is admitted and solved on the same
thread, and the refusal of a closed server still comes first.  "Did it
reach the solve?" is a read of the ``batches`` count, one per solve.
"""

import threading

import numpy as np
import pytest

from repro.adaptive.observations import ObservationLog
from repro.core.exceptions import ServerError
from repro.facade.policy import ExecutionPolicy
from repro.server import FaultPlan, ReproServer, ServerConfig
from repro.session import Session

#: Pin the serial backend: a manual plan needs no tuner.
SERIAL = ExecutionPolicy(backend="serial")


@pytest.fixture()
def cached_session(tmp_path):
    """A cached session with ``lcs`` 24 solved once (plan + memory tier)."""
    with Session(system="i7-2600K", cache_dir=tmp_path) as session:
        session.solve("lcs", 24, policy=SERIAL)
        yield session


def unstarted(session, **config):
    """A server that was built and never started: it serves all the same."""
    return ReproServer(session, ServerConfig(adaptive="off", **config))


def solves(server):
    """How many admitted requests reached the solve."""
    return server.metrics()["batches"]["count"]


def assert_invariants(server):
    """Both accounting identities of the serving path and the cache."""
    requests = server.metrics()["requests"]
    assert requests["accepted"] == (
        requests["completed"] + requests["failed"] + requests["in_flight"]
    )
    cache = server.session.result_cache.info()
    assert cache["lookups"] == (
        cache["memory_hits"] + cache["disk_hits"] + cache["coalesced"] + cache["misses"]
    )


class TestAnsweredAtAdmission:
    def test_a_primed_hit_completes_without_a_solve(self, cached_session):
        server = unstarted(cached_session)
        cache = cached_session.result_cache
        lookups, hits = cache.lookups, cache.memory_hits
        served = cached_session.stats["requests_served"]
        try:
            ticket = server.submit("lcs", 24, policy=SERIAL)
            assert ticket.done
            metrics = server.metrics()
            assert solves(server) == 0
            assert metrics["requests"]["accepted"] == 1
            assert metrics["requests"]["completed"] == 1
            assert metrics["requests"]["in_flight"] == 0
            assert metrics["latency_ms"]["samples"] == 1
            assert len(metrics["signatures"]) == 1
            assert cache.lookups == lookups + 1
            assert cache.memory_hits == hits + 1
            assert cached_session.stats["requests_served"] == served + 1
            expected = cached_session.solve("lcs", 24, policy=SERIAL)
            assert ticket.result() is expected
        finally:
            server.close()

    def test_an_armed_fault_plan_solves_a_primed_hit(self, cached_session):
        # A fault's ordinal counts requests reaching the solve: with a plan
        # armed, a hit answered at admission would never advance it.
        server = ReproServer(
            cached_session,
            ServerConfig(adaptive="off"),
            fault_plan=FaultPlan.parse("slow@2:0"),
        )
        try:
            ticket = server.submit("lcs", 24, policy=SERIAL)
            assert ticket.result().grid is not None
            assert solves(server) == 1
            assert server.metrics()["supervisor"]["faults"]["requests_seen"] == 1
        finally:
            server.close()

    def test_a_miss_is_solved_and_counts_nothing_at_admission(self, cached_session):
        server = unstarted(cached_session)
        cache = cached_session.result_cache
        before = cache.info()
        try:
            ticket = server.submit("lcs", 20, policy=SERIAL)  # never solved before
            assert ticket.result().grid is not None
            assert solves(server) == 1
            after = cache.info()
            # The solve's own lookup and miss; admission added neither.
            assert after["lookups"] == before["lookups"] + 1
            assert after["misses"] == before["misses"] + 1
            assert after["memory"]["misses"] == before["memory"]["misses"] + 1
        finally:
            server.close()

    @pytest.mark.parametrize(
        "request_kwargs",
        [
            {"mode": "simulate"},  # simulate answers are never cached
            {"policy": ExecutionPolicy(backend="vectorized")},  # plan never resolved
            {"seed": 7},  # other constructor arguments, another instance
        ],
        ids=["simulate", "unresolved-policy", "other-instance"],
    )
    def test_what_the_memory_tier_cannot_answer_is_solved(
        self, cached_session, request_kwargs
    ):
        request_kwargs = {"policy": SERIAL, **request_kwargs}
        server = unstarted(cached_session)
        try:
            ticket = server.submit("lcs", 24, **request_kwargs)
            assert ticket.done
            assert solves(server) == 1
        finally:
            server.close()

    def test_a_session_without_a_result_cache_never_answers(self, tmp_path):
        with Session(system="i7-2600K") as session:
            session.solve("lcs", 24, policy=SERIAL)
            assert session.serve_from_memory("lcs", 24, policy=SERIAL) is None

    def test_lookup_errors_read_as_a_miss(self, cached_session):
        # An unhashable constructor argument and an unknown mode: the solve
        # path reports them with their typed errors, the lookup stays silent.
        assert cached_session.serve_from_memory("lcs", 24, policy=SERIAL, seq=[1]) is None
        assert cached_session.serve_from_memory("lcs", 24, "warp", policy=SERIAL) is None


class TestRefusalsComeFirst:
    def test_a_closed_server_refuses_even_a_primed_hit(self, cached_session):
        server = unstarted(cached_session)
        server.close()
        hits = cached_session.result_cache.memory_hits
        with pytest.raises(ServerError):
            server.submit("lcs", 24, policy=SERIAL)
        assert cached_session.result_cache.memory_hits == hits
        assert server.metrics()["requests"]["accepted"] == 0


class TestMixedRun:
    def test_hits_misses_and_disk_hits_keep_both_invariants(self, tmp_path):
        # One entry on disk from an earlier process lifetime.
        with Session(system="i7-2600K", cache_dir=tmp_path) as earlier:
            on_disk = earlier.solve("edit-distance", 20, policy=SERIAL)
        stream = [
            ("edit-distance", 20),  # disk hit (solved: the plan is new)
            ("lcs", 20),            # miss
            ("lcs", 20),            # memory hit at admission
            ("edit-distance", 20),  # memory hit at admission
            ("lcs", 24),            # miss
            ("lcs", 20),            # memory hit at admission
        ]
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            with ReproServer(session, ServerConfig(adaptive="off")) as server:
                results = [
                    server.solve(app, dim, policy=SERIAL)
                    for app, dim in stream
                ]
                assert_invariants(server)
                cache = session.result_cache.info()
                assert (cache["disk_hits"], cache["misses"]) == (1, 2)
                assert cache["memory_hits"] == 3
                assert solves(server) == 3  # the rest answered at admission
            assert session.stats["runs"] == 2
            assert session.stats["requests_served"] == len(stream)
        assert np.array_equal(results[0].grid.values, on_disk.grid.values)
        assert results[2] is results[1] and results[5] is results[1]
        with Session(system="i7-2600K") as plain:
            for (app, dim), result in zip(stream, results):
                assert result.matches(plain.solve(app, dim, policy=SERIAL))


class TestAdaptiveLoop:
    def test_an_admission_hit_is_not_observed(self, tmp_path, quick_tuner_i3, i3):
        session = Session(system=i3, tuner=quick_tuner_i3, cache_dir=tmp_path)
        with ReproServer(session, ServerConfig(adaptive="on"), own_session=True) as server:
            adaptive = server.adaptive
            observe, observed = adaptive.observe, threading.Event()
            calls = []

            def recording_observe(*args, **kwargs):
                calls.append(args)
                observe(*args, **kwargs)
                observed.set()

            adaptive.observe = recording_observe
            server.solve("lcs", 32)  # a miss: executed
            assert observed.wait(timeout=30)
            (entry,) = server.metrics_store.signatures.entries()
            observations, assessments = entry.service.count, entry.drift.assessments
            completed = server.metrics()["requests"]["completed"]
            ticket = server.submit("lcs", 32)
            assert ticket.done, "the second request is a memory hit"
            assert len(calls) == 1
            assert server.metrics_store.signatures.entries() == [entry]
            assert (entry.service.count, entry.drift.assessments) == (observations, assessments)
            assert entry.latency.count == 2
            assert server.metrics()["requests"]["completed"] == completed + 1

    def test_a_signature_answered_only_from_memory_is_not_tracked(
        self, tmp_path, quick_tuner_i3, i3
    ):
        session = Session(system=i3, tuner=quick_tuner_i3, cache_dir=tmp_path)
        session.solve("lcs", 24)  # in the memory tier before the server starts
        with ReproServer(session, ServerConfig(adaptive="on"), own_session=True) as server:
            assert server.submit("lcs", 24).done  # a memory hit
            server.solve("lcs", 32)  # a miss
            metrics = server.metrics()
        assert list(metrics["signatures"]) == [
            "lcs[dim=32] mode=functional", "lcs[dim=24] mode=functional"
        ]
        adaptive = metrics["adaptive"]
        assert list(adaptive["signatures"]) == ["lcs[dim=32] mode=functional"]
        assert (adaptive["tracked_signatures"], adaptive["observations"]) == (1, 1)

    def test_a_miss_and_a_hit_each_look_the_table_up_once(
        self, monkeypatch, tmp_path, quick_tuner_i3, i3
    ):
        lookups = []
        record = ObservationLog.record

        def counting_record(table, signature, latency_s):
            lookups.append(signature.label)
            return record(table, signature, latency_s)

        monkeypatch.setattr(ObservationLog, "record", counting_record)
        session = Session(system=i3, tuner=quick_tuner_i3, cache_dir=tmp_path)
        with ReproServer(session, ServerConfig(adaptive="on"), own_session=True) as server:
            server.solve("lcs", 32)  # a miss: solved and observed
            assert lookups == ["lcs[dim=32] mode=functional"]
            assert server.submit("lcs", 32).done  # a memory hit
            assert lookups == ["lcs[dim=32] mode=functional"] * 2
            assert server.metrics()["adaptive"]["observations"] == 1
