"""Tests for the bounded request queue the benchmark's hand-off probe drives."""

import time

import pytest

from repro.core.exceptions import BackpressureError, ReproError, ServerError
from repro.server import RequestQueue, ServeRequest


def make_request(app="lcs", dim=48):
    return ServeRequest(app=app, dim=dim, mode=None, plan_kwargs={}, enqueued_at=time.perf_counter())


class TestAdmissionControl:
    def test_overflow_raises_typed_backpressure(self):
        queue = RequestQueue(2)
        queue.submit(make_request())
        queue.submit(make_request())
        with pytest.raises(BackpressureError) as excinfo:
            queue.submit(make_request())
        assert isinstance(excinfo.value, ReproError)  # part of the taxonomy
        assert "full" in str(excinfo.value)

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
        assert queue.next_batch(max_batch=8, timeout=0.0) == []

    def test_max_batch_bounds_the_drain(self):
        queue = RequestQueue(16)
        for _ in range(5):
            queue.submit(make_request())
        assert [len(queue.next_batch(max_batch=2)) for _ in range(3)] == [2, 2, 1]

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
