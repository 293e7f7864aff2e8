"""Tests for the ticket of a served request: its name, its one resolver, its deadline."""

import inspect
import math
import threading
import time
from dataclasses import fields

import pytest

from repro.core.exceptions import DeadlineError, ServerError
from repro.facade.policy import ExecutionPolicy
from repro.cache import request_identity
from repro.server import ServeRequest, ServerConfig
from repro.server.metrics import ServerMetrics


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
        assert request_identity("lcs", 48) == make_request().signature

    def test_any_ingredient_changes_the_signature(self):
        base = make_request().signature
        assert make_request(dim=64).signature != base
        assert make_request(app="knapsack").signature != base
        assert make_request(mode="simulate").signature != base
        assert make_request(policy=ExecutionPolicy(backend="serial")).signature != base

    def test_unhashable_override_values_are_admitted(self):
        # The canonical identity freezes list/dict override values.
        request = make_request(weights=[1, 2, 3])
        assert request.signature == make_request(weights=[1, 2, 3]).signature


class TestConfig:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ServerError):
            ServerConfig(queue_capacity=0)

    def test_three_knobs_and_no_batch_bound(self):
        assert [f.name for f in fields(ServerConfig)] == [
            "queue_capacity", "default_deadline_s", "adaptive",
        ]


class TestTicket:
    def test_complete_and_fail_resolve_the_ticket_and_count_it_once(self):
        metrics = ServerMetrics()
        for _ in range(3):
            metrics.record_admitted()
        answered, failed, late = make_request(), make_request(), make_request()
        for ticket in (answered, failed, late):
            ticket.metrics = metrics
            assert not ticket.done
        answered.complete("answer")
        failed.fail(ServerError("boom"))
        late.fail(DeadlineError("late"))
        assert all(ticket.done for ticket in (answered, failed, late))
        assert answered.result() == "answer"
        with pytest.raises(ServerError, match="boom"):
            failed.result()
        requests = metrics.snapshot()["requests"]
        assert requests["completed"] == 1 and requests["failed"] == 2
        assert requests["deadline_expired"] == 1 and requests["in_flight"] == 0

    def test_one_resolver_needs_no_wait_lock_or_cancel(self):
        # The thread that serves a request resolves it before submit
        # returns: nothing waits on a ticket and nothing else resolves it.
        ticket = make_request()
        assert not hasattr(ticket, "cancel")
        assert list(inspect.signature(ServeRequest.result).parameters) == ["self"]
        lock_types = (threading.Event, type(threading.Lock()))
        assert not [v for v in vars(ticket).values() if isinstance(v, lock_types)]

    def test_an_answer_delivered_after_the_deadline_is_still_the_answer(self):
        # Only the solving thread resolves a ticket: a deadline that has
        # passed does not fail a ticket that was answered.
        ticket = make_request()
        ticket.deadline_at = time.perf_counter() - 1.0
        ticket.complete("answer")
        assert ticket.done and ticket.result() == "answer"

    def test_the_solve_checks_the_deadline_or_never_passes(self):
        bounded = ServeRequest(
            app="lcs", dim=8, mode=None, plan_kwargs={}, enqueued_at=0.0, deadline_at=5.0
        )
        assert bounded.deadline.at == 5.0
        unbounded = make_request()
        assert unbounded.deadline.at == math.inf and not unbounded.deadline.passed()
        unbounded.deadline.expire()
        assert unbounded.deadline.passed() and unbounded.deadline_at is None
