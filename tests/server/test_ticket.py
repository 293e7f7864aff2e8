"""Tests for the ticket of a served request: its name, its one resolution, its deadline."""

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
    def test_result_timeout_raises_server_error(self):
        request = make_request()
        with pytest.raises(ServerError):
            request.result(timeout=0.01)

    def test_complete_and_fail_wake_the_waiter(self):
        done = make_request()
        done.complete("answer")
        assert done._done.is_set() and done.result(timeout=0) == "answer"
        failed = make_request()
        failed.fail(ServerError("boom"))
        with pytest.raises(ServerError, match="boom"):
            failed.result(timeout=0)

    def test_a_ticket_resolves_exactly_once_and_is_counted_once(self):
        metrics = ServerMetrics()
        metrics.record_accepted()
        ticket = make_request()
        ticket.metrics = metrics
        assert ticket.complete("first")
        assert not ticket.fail(ServerError("late"))
        assert not ticket.complete("second")
        assert not ticket.cancel()
        assert ticket.result(timeout=0) == "first"
        requests = metrics.snapshot()["requests"]
        assert requests["completed"] == 1 and requests["failed"] == 0
        assert requests["cancelled"] == 0 and requests["in_flight"] == 0

    def test_racing_resolvers_leave_one_winner_and_one_count(self):
        for _ in range(50):
            metrics = ServerMetrics()
            metrics.record_accepted()
            ticket = make_request()
            ticket.metrics = metrics
            start = threading.Barrier(4)
            wins = []

            def resolve(action):
                start.wait()
                wins.append(action())

            actions = [
                lambda: ticket.complete("answer"),
                lambda: ticket.fail(DeadlineError("late")),
                ticket.cancel,
                lambda: ticket.fail(ServerError("shut down")),
            ]
            threads = [threading.Thread(target=resolve, args=(a,)) for a in actions]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert sorted(wins) == [False, False, False, True]
            requests = metrics.snapshot()["requests"]
            assert requests["in_flight"] == 0
            assert requests["completed"] + requests["failed"] + requests["cancelled"] == 1

    def test_the_waiter_fails_its_own_ticket_at_its_deadline(self):
        metrics = ServerMetrics()
        metrics.record_accepted()
        ticket = make_request()
        ticket.metrics = metrics
        ticket.deadline_at = time.perf_counter() + 0.05
        with pytest.raises(DeadlineError, match="missed its deadline"):
            ticket.result(timeout=30)  # the deadline comes first
        assert time.perf_counter() >= ticket.deadline_at
        assert not ticket.complete("too late")
        requests = metrics.snapshot()["requests"]
        assert requests["failed"] == 1 and requests["deadline_expired"] == 1

    def test_an_answer_delivered_first_wins_over_the_deadline(self):
        ticket = make_request()
        ticket.deadline_at = time.perf_counter() - 1.0
        ticket.complete("answer")
        assert ticket.result() == "answer"

    def test_the_solve_checks_the_deadline_or_never_passes(self):
        bounded = ServeRequest(
            app="lcs", dim=8, mode=None, plan_kwargs={}, enqueued_at=0.0, deadline_at=5.0
        )
        assert bounded.deadline.at == 5.0
        unbounded = make_request()
        assert unbounded.deadline.at == math.inf and not unbounded.deadline.passed()
        unbounded.deadline.expire()
        assert unbounded.deadline.passed() and unbounded.deadline_at is None
