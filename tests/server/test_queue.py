"""Tests for the bounded request queue: admission control and coalescing."""

import threading
import time

import pytest

from repro.core.exceptions import BackpressureError, ReproError, ServerError
from repro.facade.policy import ExecutionPolicy
from repro.server.queue import RequestQueue, ServeRequest, request_signature


def make_request(app="lcs", dim=48, mode=None, **plan_kwargs):
    """One ticket with the given signature ingredients."""
    return ServeRequest(
        app=app,
        dim=dim,
        mode=mode,
        plan_kwargs=plan_kwargs,
        enqueued_at=time.perf_counter(),
    )


class TestSignature:
    def test_equal_requests_share_a_signature(self):
        assert make_request().signature == make_request().signature
        assert request_signature("lcs", 48, None, {}) == make_request().signature

    def test_any_ingredient_changes_the_signature(self):
        base = make_request().signature
        assert make_request(dim=64).signature != base
        assert make_request(app="knapsack").signature != base
        assert make_request(mode="simulate").signature != base
        assert make_request(policy=ExecutionPolicy(backend="serial")).signature != base

    def test_unhashable_override_values_are_admitted(self):
        # repr-keying keeps admission working for list/dict override values.
        request = make_request(weights=[1, 2, 3])
        assert request.signature == make_request(weights=[1, 2, 3]).signature


class TestAdmissionControl:
    def test_overflow_raises_typed_backpressure(self):
        queue = RequestQueue(2)
        queue.submit(make_request())
        queue.submit(make_request())
        with pytest.raises(BackpressureError) as excinfo:
            queue.submit(make_request())
        assert isinstance(excinfo.value, ReproError)  # part of the taxonomy
        assert "full" in str(excinfo.value)
        assert queue.depth == 2 and queue.high_water == 2

    def test_closed_queue_rejects_with_server_error(self):
        queue = RequestQueue(4)
        queue.close()
        with pytest.raises(ServerError):
            queue.submit(make_request())

    def test_capacity_must_be_positive(self):
        with pytest.raises(ServerError):
            RequestQueue(0)


class TestCoalescingDrain:
    def test_same_signature_coalesces_across_interleavings(self):
        queue = RequestQueue(16)
        for app in ("lcs", "knapsack", "lcs", "knapsack", "lcs"):
            queue.submit(make_request(app=app))
        first = queue.next_batch(max_batch=8)
        assert [r.app for r in first] == ["lcs", "lcs", "lcs"]
        second = queue.next_batch(max_batch=8)
        assert [r.app for r in second] == ["knapsack", "knapsack"]
        assert queue.depth == 0

    def test_max_batch_bounds_the_drain(self):
        queue = RequestQueue(16)
        for _ in range(5):
            queue.submit(make_request())
        assert len(queue.next_batch(max_batch=2)) == 2
        assert len(queue.next_batch(max_batch=2)) == 2
        assert len(queue.next_batch(max_batch=2)) == 1

    def test_other_signatures_keep_fifo_order(self):
        queue = RequestQueue(16)
        for app, dim in (("lcs", 48), ("knapsack", 32), ("lcs", 48), ("nash-equilibrium", 24)):
            queue.submit(make_request(app=app, dim=dim))
        queue.next_batch(max_batch=8)  # drains both lcs:48
        remaining = [queue.next_batch(max_batch=8)[0].app, queue.next_batch(max_batch=8)[0].app]
        assert remaining == ["knapsack", "nash-equilibrium"]

    def test_timeout_returns_empty(self):
        queue = RequestQueue(4)
        t0 = time.perf_counter()
        assert queue.next_batch(max_batch=4, timeout=0.05) == []
        assert time.perf_counter() - t0 < 2.0

    def test_close_wakes_a_blocked_drainer(self):
        queue = RequestQueue(4)
        results = []

        def drain():
            results.append(queue.next_batch(max_batch=4, timeout=30))

        thread = threading.Thread(target=drain)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive() and results == [[]]

    def test_drain_rejected_fails_queued_requests(self):
        queue = RequestQueue(4)
        tickets = [queue.submit(make_request()) for _ in range(3)]
        failed = queue.drain_rejected(ServerError("shutting down"))
        assert failed == tickets
        for ticket in tickets:
            with pytest.raises(ServerError):
                ticket.result(timeout=0)


class TestTicket:
    def test_result_timeout_raises_server_error(self):
        request = make_request()
        with pytest.raises(ServerError):
            request.result(timeout=0.01)

    def test_complete_and_fail_wake_the_waiter(self):
        done = make_request()
        done.complete("answer")
        assert done.done and done.result(timeout=0) == "answer"
        failed = make_request()
        failed.fail(ServerError("boom"))
        with pytest.raises(ServerError, match="boom"):
            failed.result(timeout=0)
