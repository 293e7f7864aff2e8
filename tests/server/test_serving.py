"""Tests for the in-process serving core: concurrency, run to completion, lifecycle.

The acceptance contract of the serving layer:

* N threads hammering one server (hence one shared ``Session``) get grids
  bit-identical to sequential solving;
* each request is solved on the thread that submitted it, one sweep at a
  time under the session's run lock (every batch in the histogram is one
  request);
* overflow is a typed :class:`~repro.core.exceptions.BackpressureError`;
* shutdown drains gracefully and releases the engine host's worker pools;
* the metrics snapshot is well-formed JSON.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.exceptions import (
    BackpressureError,
    ReproError,
    ServerError,
    UnknownApplicationError,
)
from repro.cache import request_identity
from repro.server import FaultPlan, ReproServer, ServerConfig
from repro.server.metrics import DEFAULT_SIGNATURE_LIMIT, ServerMetrics
from repro.session import Session

MIX = (("lcs", 48), ("edit-distance", 40), ("matrix-chain", 32))


@pytest.fixture()
def server(serve_session):
    """A running server over the shared session (borrowed, not owned)."""
    with ReproServer(serve_session, ServerConfig(queue_capacity=64)) as srv:
        yield srv


class TestConcurrentEquivalence:
    def test_hammered_results_are_bit_identical_to_sequential(
        self, server, serve_session
    ):
        sequential = {
            (app, dim): serve_session.solve(app, dim) for app, dim in MIX
        }
        failures = []

        def hammer(thread_id):
            for i in range(6):
                app, dim = MIX[(thread_id + i) % len(MIX)]
                result = server.solve(app, dim, timeout=60)
                if not np.array_equal(
                    result.grid.values, sequential[(app, dim)].grid.values
                ):
                    failures.append((thread_id, app, dim))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []

    def test_submit_returns_tickets_resolving_independently(self, server):
        tickets = [server.submit(app, dim) for app, dim in MIX]
        values = [t.result(timeout=60).value for t in tickets]
        assert len(values) == len(MIX)


class TestRunToCompletion:
    def test_each_request_is_solved_on_the_thread_that_submitted_it(self, serve_session):
        seen = []
        serve_session.attach_observer(
            lambda plan, mode, wall_s: seen.append(threading.current_thread().name)
        )
        runs_before = serve_session.stats["runs"]
        try:
            with ReproServer(serve_session, ServerConfig(queue_capacity=16)) as server:
                threads = [
                    threading.Thread(target=server.solve, args=("lcs", 48), name=f"client-{i}")
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                metrics = server.metrics()
        finally:
            serve_session.attach_observer(None)
        # No result cache: four identical requests are four sweeps, in turn.
        assert sorted(seen) == [f"client-{i}" for i in range(4)]
        assert serve_session.stats["runs"] - runs_before == 4
        assert metrics["batches"]["histogram"] == {"1": 4}
        assert metrics["batches"]["mean_size"] == 1.0
        assert metrics["queue"]["depth"] == 0


class TestBackpressure:
    def test_overflow_is_typed_and_counted(self, serve_session, blocked):
        server = ReproServer(serve_session, ServerConfig(queue_capacity=3))
        with blocked(server, 3):
            assert server.metrics()["queue"]["depth"] == 3
            with pytest.raises(BackpressureError) as excinfo:
                server.submit("lcs", 48)
        assert isinstance(excinfo.value, ReproError)
        requests = server.metrics()["requests"]
        assert requests["rejected"] == 1 and requests["completed"] == 3
        server.close()

    def test_submit_after_close_raises_server_error(self, serve_session):
        server = ReproServer(serve_session, ServerConfig(queue_capacity=4))
        server.start()
        server.close()
        with pytest.raises(ServerError):
            server.submit("lcs", 48)


class TestFailuresStayIsolated:
    def test_unknown_app_fails_its_ticket_not_the_server(self, server):
        bad = server.submit("no-such-app", 16)
        with pytest.raises(UnknownApplicationError):
            bad.result(timeout=60)
        # The worker survived and keeps serving.
        assert server.solve("lcs", 48, timeout=60).grid is not None
        assert server.metrics()["requests"]["failed"] >= 1


class TestLifecycle:
    def test_close_releases_owned_session_pools(self, quick_tuner_i3, i3):
        session = Session(system=i3, tuner=quick_tuner_i3)
        server = ReproServer(session, own_session=True)
        server.start()
        assert server.solve("lcs", 48, timeout=60).grid is not None
        server.close()
        # Owned session (and its EngineHost team/executors) are released.
        info = session.cache_info()
        assert info["teams"] == {"size": 0, "pids": []}
        assert info["executors"]["size"] == 0
        with pytest.raises(ReproError):
            session.solve("lcs", 48)

    def test_borrowed_session_survives_server_close(self, serve_session):
        server = ReproServer(serve_session)
        server.start()
        server.solve("lcs", 48, timeout=60)
        server.close()
        assert serve_session.solve("lcs", 48).grid is not None

    def test_close_is_idempotent_and_start_after_close_fails(self, serve_session):
        server = ReproServer(serve_session)
        server.start()
        server.close()
        server.close()
        with pytest.raises(ServerError):
            server.start()

    def test_a_never_started_server_serves_and_closes_at_once(self, serve_session):
        server = ReproServer(serve_session)  # default 30 s drain timeout
        assert not server.running
        assert server.solve("lcs", 48, timeout=60).grid is not None
        t0 = time.perf_counter()
        server.close()
        assert time.perf_counter() - t0 < 5  # nothing in flight to drain
        requests = server.metrics()["requests"]
        assert requests["completed"] == 1 and requests["in_flight"] == 0

    def test_shutdown_refusal_is_not_counted_as_backpressure(self, serve_session):
        server = ReproServer(serve_session)
        server.start()
        server.close()
        with pytest.raises(ServerError):
            server.submit("lcs", 48)
        requests = server.metrics()["requests"]
        # Not admitted, not load shedding: no counter keeps it.
        assert requests["rejected"] == 0 and requests["accepted"] == 0


class TestCancellation:
    def test_a_waiter_that_gives_up_on_a_dropped_answer_cancels_it(self, serve_session):
        """A ticket whose answer a chaos drop discarded is the one a waiter can
        still give up on: cancelled, counted once, the server healthy."""
        server = ReproServer(
            serve_session,
            ServerConfig(queue_capacity=8, default_deadline_s=None),
            fault_plan=FaultPlan.parse("drop@1"),
        )
        abandoned = server.submit("lcs", 48)   # solved, its answer dropped
        with pytest.raises(ServerError):       # waiter times out and leaves
            abandoned.result(timeout=0.01)
        assert abandoned.cancel()
        live = server.solve("edit-distance", 40, timeout=60)  # server healthy
        assert live.grid is not None
        server.close()
        requests = server.metrics()["requests"]
        assert requests["cancelled"] == 1 and requests["completed"] == 1
        assert requests["accepted"] == (
            requests["completed"] + requests["failed"] + requests["cancelled"]
        )

    def test_cancel_after_completion_is_a_no_op(self, server):
        ticket = server.submit("lcs", 48)
        ticket.result(timeout=60)
        assert not ticket.cancel()
        assert server.metrics()["requests"]["cancelled"] == 0


class TestMetrics:
    def test_snapshot_is_json_safe_and_complete(self, server):
        server.solve("lcs", 48, timeout=60)
        snapshot = json.loads(json.dumps(server.metrics()))
        for key in (
            "uptime_s",
            "requests",
            "queue",
            "batches",
            "latency_ms",
            "throughput_rps",
            "caches",
        ):
            assert key in snapshot, key
        assert snapshot["requests"]["completed"] >= 1
        assert snapshot["queue"]["capacity"] == 64
        latency = snapshot["latency_ms"]
        assert latency["samples"] >= 1 and latency["p50"] <= latency["max"]
        assert "plans" in snapshot["caches"]

    def test_signature_breakdown_is_bounded_and_most_recent_first(self):
        metrics = ServerMetrics()
        identities = [
            request_identity("lcs", dim, mode="functional")
            for dim in range(8, 8 + DEFAULT_SIGNATURE_LIMIT + 6)
        ]
        for identity in identities:
            metrics.record_accepted()
            metrics.record_completed(0.001, identities[0])
            metrics.record_accepted()
            metrics.record_completed(0.002, identity)
        breakdown = metrics.snapshot()["signatures"]
        # most recent first; the first signature stays hot, so the six
        # oldest of the others are the ones dropped
        newest, hot = identities[-1], identities[0]
        older = identities[-DEFAULT_SIGNATURE_LIMIT + 1:-1][::-1]
        assert list(breakdown) == [newest.label, hot.label] + [i.label for i in older]
        assert breakdown[identities[0].label]["count"] == len(identities) + 1
        assert set(breakdown[identities[-1].label]) == {
            "count", "mean_ms", "std_ms", "min_ms", "max_ms", "expected_ms",
            "p50_ms", "p95_ms",
        }
