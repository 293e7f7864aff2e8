"""Tests for the in-process serving core: concurrency, batching, lifecycle.

The acceptance contract of the serving layer:

* N threads hammering one server (hence one shared ``Session``) get grids
  bit-identical to sequential solving;
* the coalescing scheduler batches same-signature requests into single
  ``solve_many`` calls (observable in the batch-size histogram and in the
  tuner-resolution counter);
* overflow is a typed :class:`~repro.core.exceptions.BackpressureError`;
* shutdown drains gracefully and releases the engine host's worker pools;
* the metrics snapshot is well-formed JSON.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.exceptions import (
    BackpressureError,
    ReproError,
    ServerError,
    UnknownApplicationError,
)
from repro.cache import request_identity
from repro.server import ReproServer, ServerConfig
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


class TestBatching:
    def test_queued_same_signature_requests_coalesce(self, serve_session):
        # Submitting before start() makes the batch deterministic: all six
        # identical requests are queued when the scheduler first drains.
        config = ServerConfig(queue_capacity=16, max_batch=8)
        server = ReproServer(serve_session, config)
        resolved_before = serve_session.stats["plans_resolved"]
        runs_before = serve_session.stats["runs"]
        tickets = [server.submit("lcs", 48) for _ in range(6)]
        server.start()
        results = [t.result(timeout=60) for t in tickets]
        server.close()
        assert all(r.checksum == results[0].checksum for r in results)
        histogram = server.metrics()["batches"]["histogram"]
        assert histogram.get("6") == 1  # one coalesced batch served them all
        # The whole batch cost at most one fresh tuner resolution and
        # exactly ONE grid execution — followers share the result.
        assert serve_session.stats["plans_resolved"] - resolved_before <= 1
        assert serve_session.stats["runs"] - runs_before == 1

    def test_max_batch_splits_oversized_groups(self, serve_session):
        server = ReproServer(
            serve_session, ServerConfig(queue_capacity=16, max_batch=2)
        )
        tickets = [server.submit("lcs", 48) for _ in range(5)]
        server.start()
        for ticket in tickets:
            ticket.result(timeout=60)
        server.close()
        histogram = server.metrics()["batches"]["histogram"]
        assert max(int(size) for size in histogram) <= 2


class TestBackpressure:
    def test_overflow_is_typed_and_counted(self, serve_session):
        server = ReproServer(serve_session, ServerConfig(queue_capacity=3))
        for _ in range(3):
            server.submit("lcs", 48)
        with pytest.raises(BackpressureError) as excinfo:
            server.submit("lcs", 48)
        assert isinstance(excinfo.value, ReproError)
        assert server.metrics()["requests"]["rejected"] == 1
        server.start()
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

    def test_stranded_requests_are_failed_and_accounted(self, serve_session):
        """A never-started server closing with a backlog fails the queued
        tickets immediately (no pointless drain wait — there are no workers)
        AND keeps the metrics invariant accepted == completed + failed +
        in_flight."""
        import time

        server = ReproServer(serve_session)  # default 30s drain timeout
        tickets = [server.submit("lcs", 48) for _ in range(2)]
        t0 = time.perf_counter()
        server.close()
        assert time.perf_counter() - t0 < 5  # skipped the workerless drain
        for ticket in tickets:
            with pytest.raises(ServerError):
                ticket.result(timeout=0)
        requests = server.metrics()["requests"]
        assert requests["failed"] == 2 and requests["in_flight"] == 0
        assert requests["accepted"] == (
            requests["completed"] + requests["failed"] + requests["cancelled"]
        )

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
    def test_cancelled_request_is_skipped_not_executed(self, serve_session):
        """A ticket whose waiter gave up before scheduling is dropped by the
        scheduler (no ghost work) and counted as cancelled, not completed."""
        server = ReproServer(serve_session, ServerConfig(queue_capacity=8))
        abandoned = server.submit("lcs", 48)   # queued: no workers yet
        with pytest.raises(ServerError):       # waiter times out and leaves
            abandoned.result(timeout=0.01)
        assert abandoned.cancel()
        server.start()
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
