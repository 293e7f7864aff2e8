"""Tests for the server's crash recovery, deadlines and chaos injection.

The unit layer drives a :class:`ReproServer` over a stub session, so the
crash / re-run / deadline logic runs fast and deterministically; the
integration layer at the bottom runs a real server over a real session: a
killed worker of a tiled plan's team, and fault plans armed.  Every
request runs on the thread that submits it, and ``submit`` returns its
ticket resolved: a chaos ``drop`` fails it on that thread, at its deadline
or as the drain begins.
"""

import math
import multiprocessing as mp
import os
import signal
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.exceptions import (
    BackpressureError,
    DeadlineError,
    ServerError,
    UsageError,
    WorkerCrashError,
)
from repro.core.params import TunableParams
from repro.facade.policy import ExecutionPolicy
from repro.runtime.executor_base import ExecutionMode
from repro.server import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ReproServer,
    ServerConfig,
)
from repro.server import service
from repro.session import Session

ANSWER = "answer:lcs:8"
#: What the stub says it ran: a plan that predicts nothing.
PLAN = SimpleNamespace(expected_s=None)


def wait_until(predicate, timeout_s=3.0):
    """Poll ``predicate`` until true; fail the test on timeout."""
    end = time.monotonic() + timeout_s
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


def assert_invariant(server):
    """``accepted == completed + failed + in_flight``."""
    requests = server.metrics()["requests"]
    assert requests["accepted"] == (
        requests["completed"] + requests["failed"] + requests["in_flight"]
    ), requests


class StubSession:
    """A deterministic stand-in session that can crash, sweep slowly or block.

    Its sweep checks the request's deadline every few milliseconds, as the
    engines check it once per row or diagonal.  ``crash_expires_deadline``
    moves the deadline to the past as a solve crashes (the crash outlasted
    it); ``crash_when_stopped`` crashes a sweep that reaches its deadline
    instead of stopping it (the team died as :meth:`ReproServer.close`
    stopped it).
    """

    mode = ExecutionMode.FUNCTIONAL
    result_cache = None

    def __init__(
        self, crashes=0, sweep_s=0.0, error=None, crash_expires_deadline=False,
        crash_when_stopped=False,
    ):
        self.crashes_left = crashes
        self.crash_expires_deadline = crash_expires_deadline
        self.crash_when_stopped = crash_when_stopped
        self.sweep_s = sweep_s
        #: Raised by every solve that does not crash: a request-level failure.
        self.error = error
        #: Cleared to hold every sweep until the test sets it again.
        self.gate = threading.Event()
        self.gate.set()
        self.calls = 0
        self.threads = []
        #: The deadline instant each solve was given.
        self.deadlines = []
        self.closed = False
        self._lock = threading.Lock()

    def solve_one(self, request, mode=None, deadline=None):
        if deadline is not None and deadline.passed():
            raise DeadlineError("deadline expired")  # as Session does
        with self._lock:
            self.calls += 1
            self.threads.append(threading.current_thread())
            self.deadlines.append(deadline.at)
            if self.crashes_left > 0:
                self.crashes_left -= 1
                if self.crash_expires_deadline:
                    deadline.expire()
                raise WorkerCrashError("stub worker pool died")
        if self.error is not None:
            raise self.error
        ends = time.perf_counter() + self.sweep_s
        while not self.gate.is_set() or time.perf_counter() < ends:
            if deadline.passed():
                if self.crash_when_stopped:
                    raise WorkerCrashError("stub worker team died as it stopped")
                raise DeadlineError("the sweep reached its deadline and stopped")
            time.sleep(0.002)
        return PLAN, f"answer:{request['app']}:{request['dim']}"

    def serve_from_memory(self, *args, **kwargs):
        return None

    def cache_info(self):
        return {}

    def close(self):
        self.closed = True


@pytest.fixture()
def supervised(monkeypatch):
    """``build(...)``: a server over a fresh stub session."""

    def build(plan=None, own_session=False, config=None, DRAIN_TIMEOUT_S=None, **stub):
        if DRAIN_TIMEOUT_S is not None:
            monkeypatch.setattr(service, "DRAIN_TIMEOUT_S", DRAIN_TIMEOUT_S)
        stub = StubSession(**stub)
        server = ReproServer(
            stub,
            config if config is not None else ServerConfig(adaptive="off"),
            own_session=own_session,
            fault_plan=plan,
        )
        built.append(server)
        return server.start(), stub

    built = []
    yield build
    for server in built:
        server.close()


def supervision(server):
    """The ``/metrics`` ``supervisor`` section (plus readiness)."""
    return server.readiness()


def in_background(server, *args, **kwargs):
    """Submit on a thread of its own; ``(thread, outcome)``, the ticket or error in it."""
    outcome = []

    def submit():
        try:
            outcome.append(server.submit(*args, **kwargs))
        except Exception as error:  # noqa: BLE001 - the test inspects it
            outcome.append(error)

    thread = threading.Thread(target=submit)
    thread.start()
    return thread, outcome


class TestFaultPlan:
    def test_parse_round_trips_and_sorts_by_ordinal(self):
        plan = FaultPlan.parse("drop@47,drop@7,slow@18:0.2,slow@31")
        assert len(plan) == 4
        assert plan.describe() == "drop@7,slow@18:0.2,slow@31,drop@47"
        assert FaultPlan.parse(plan.describe()) == plan

    def test_empty_specs_yield_the_empty_plan(self):
        assert len(FaultPlan.parse(None)) == 0
        assert len(FaultPlan.parse("")) == 0
        assert len(FaultPlan.parse("  ")) == 0
        assert FaultPlan.parse(None).describe() == ""

    def test_slow_sleeps_its_default_unless_given_seconds(self):
        assert FaultSpec("slow", 1).sleep_s == pytest.approx(0.25)
        assert FaultSpec("slow", 1, seconds=0.02).sleep_s == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "spec",
        ["boom@3", "hang@3", "kill@3", "drop", "drop@x", "drop@0", "slow@3:abc", "@3", "drop@"],
    )
    def test_malformed_specs_raise_usage_error(self, spec):
        with pytest.raises(UsageError):
            FaultPlan.parse(spec)

    def test_negative_seconds_rejected(self):
        with pytest.raises(UsageError):
            FaultSpec("slow", 1, seconds=-0.1)


class TestFaultInjector:
    def test_a_fault_fires_at_its_attempt_ordinal(self):
        injector = FaultInjector(plan=FaultPlan.parse("drop@3"))
        assert injector.take() == [] and injector.take() == []
        assert [spec.kind for spec in injector.take()] == ["drop"]

    def test_each_fault_fires_exactly_once(self):
        injector = FaultInjector(plan=FaultPlan.parse("drop@1"))
        assert len(injector.take()) == 1
        assert injector.take() == []
        assert injector.info()["injected"] == 1

    def test_empty_plan_is_free(self):
        injector = FaultInjector()
        assert all(injector.take() == [] for _ in range(100))
        assert injector.info()["scheduled"] == 0

    def test_info_reports_by_kind_and_plan(self):
        injector = FaultInjector(plan=FaultPlan.parse("slow@1,drop@2,slow@3"))
        injector.take()
        injector.take()
        info = injector.info()
        assert info["scheduled"] == 3
        assert info["injected"] == 2
        assert info["by_kind"] == {"slow": 1, "drop": 1}
        assert info["requests_seen"] == 2
        assert info["plan"] == "slow@1,drop@2,slow@3"


class TestSupervision:
    def test_a_request_round_trips_on_the_calling_thread(self, supervised):
        server, stub = supervised()
        assert supervision(server)["ready"]
        assert server.solve("lcs", 8) == ANSWER
        assert stub.threads == [threading.current_thread()]

    def test_a_started_server_runs_no_thread_of_its_own(self, supervised):
        before = set(threading.enumerate())
        server, stub = supervised(crashes=1)
        assert server.solve("lcs", 8) == ANSWER
        assert [t for t in threading.enumerate() if t not in before] == []
        server.close()

    def test_a_worker_crash_is_rerun_once_at_once(self, supervised, monkeypatch):
        server, stub = supervised(crashes=1)

        def no_sleep(seconds):
            raise AssertionError(f"the re-run waited {seconds} s")

        clock = SimpleNamespace(perf_counter=time.perf_counter, sleep=no_sleep)
        monkeypatch.setattr(service, "time", clock)
        assert server.solve("lcs", 8) == ANSWER  # second attempt succeeded
        assert stub.calls == 2
        assert stub.threads == [threading.current_thread()] * 2
        info = supervision(server)
        assert info["crashes"] == 1 and info["redispatches"] == 1
        assert server.metrics()["requests"]["completed"] == 1
        assert_invariant(server)

    def test_chaos_drop_fails_typed_at_the_deadline(self, supervised):
        server, stub = supervised(plan=FaultPlan.parse("drop@1"))
        ticket = server.submit("lcs", 8, deadline_s=0.3)
        assert time.perf_counter() >= ticket.deadline_at  # never early
        with pytest.raises(DeadlineError, match="dropped"):
            ticket.result()
        assert stub.calls == 1  # the work happened, the response vanished
        assert supervision(server)["dropped_responses"] == 1
        requests = server.metrics()["requests"]
        assert requests["deadline_expired"] == 1 and requests["failed"] == 1
        assert_invariant(server)

    @pytest.mark.parametrize("deadline_s", [0.05, None], ids=["deadline", "no-deadline"])
    def test_submit_returns_a_dropped_request_resolved(self, supervised, deadline_s):
        server, stub = supervised(
            plan=FaultPlan.parse("drop@1"),
            config=ServerConfig(adaptive="off", default_deadline_s=None),
        )
        ticket = server.submit("lcs", 8, deadline_s=deadline_s)
        assert ticket.done
        error = DeadlineError if deadline_s else ServerError
        with pytest.raises(error, match="dropped"):
            ticket.result()
        assert stub.calls == 1 and supervision(server)["dropped_responses"] == 1
        requests = server.metrics()["requests"]
        assert requests["failed"] == 1 and requests["in_flight"] == 0
        assert requests["deadline_expired"] == (deadline_s is not None)
        assert_invariant(server)

    def test_after_a_drop_in_flight_equals_the_admission_count(self, supervised):
        server, stub = supervised(plan=FaultPlan.parse("drop@1,drop@2"))

        def in_flight():
            return server.metrics()["requests"]["in_flight"], supervision(server)["in_flight"]

        server.submit("lcs", 8, deadline_s=0.05)
        assert in_flight() == (0, 0)
        # A drop waiting out its deadline is still admitted, and counted so.
        thread, outcome = in_background(server, "lcs", 8, deadline_s=30)
        wait_until(lambda: supervision(server)["dropped_responses"] == 2)
        assert in_flight() == (1, 1)
        server.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert in_flight() == (0, 0)
        assert_invariant(server)

    def test_crashes_are_recovered_on_the_calling_thread(self, supervised):
        server, stub = supervised(crashes=1)
        for _ in range(2):
            assert server.solve("lcs", 8) == ANSWER
        assert supervision(server)["crashes"] == 1 and stub.calls == 3
        assert set(stub.threads) == {threading.current_thread()}

    def test_any_exception_escaping_a_solve_attempt_is_a_crash(self, supervised):
        server, stub = supervised()

        class Exploding:
            def observe(self, *args, **kwargs):
                server.adaptive = None
                raise RuntimeError("observation failed")

        server.adaptive = Exploding()
        assert server.solve("lcs", 8) == ANSWER  # answered before the escape
        assert supervision(server)["crashes"] == 1
        assert server.solve("lcs", 9) == "answer:lcs:9"
        assert supervision(server)["redispatches"] == 0  # nothing left to re-run
        assert stub.calls == 2
        assert_invariant(server)

    def test_a_request_past_its_deadline_before_the_solve_is_failed_not_run(
        self, supervised
    ):
        server, stub = supervised(plan=FaultPlan.parse("slow@1:0.05"))
        ticket = server.submit("lcs", 8, deadline_s=0.01)
        with pytest.raises(DeadlineError, match="expired"):
            ticket.result()
        assert stub.calls == 0
        assert server.metrics()["requests"]["deadline_expired"] == 1
        assert_invariant(server)

    def test_admission_bounds_the_requests_admitted_and_unfinished(self, supervised):
        server, stub = supervised(config=ServerConfig(queue_capacity=2, adaptive="off"))
        stub.gate.clear()  # the two admitted requests hold their sweeps
        held = [in_background(server, "lcs", 8, deadline_s=30) for _ in range(2)]
        wait_until(lambda: supervision(server)["in_flight"] == 2)
        with pytest.raises(BackpressureError, match="2 requests admitted"):
            server.submit("lcs", 8)
        stub.gate.set()
        for thread, outcome in held:
            thread.join(timeout=5)
            assert outcome[0].result() == ANSWER
        requests = server.metrics()["requests"]
        assert requests["rejected"] == 1 and requests["completed"] == 2
        assert server.solve("lcs", 8) == ANSWER  # capacity is back
        assert_invariant(server)

    def test_admission_accounting_holds_under_a_thread_storm(self, supervised):
        # More clients than capacity and cores, switching threads often: a
        # lost update to the admitted set or a counter breaks the totals.
        server, stub = supervised(
            sweep_s=0.001, config=ServerConfig(queue_capacity=3, adaptive="off")
        )
        outcomes = {"answered": 0, "rejected": 0}
        lock = threading.Lock()

        def client():
            for _ in range(25):
                try:
                    kind = "answered" if server.solve("lcs", 8) == ANSWER else "wrong"
                except BackpressureError:
                    kind = "rejected"
                with lock:
                    outcomes[kind] = outcomes.get(kind, 0) + 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        requests = server.metrics()["requests"]
        assert outcomes["answered"] + outcomes["rejected"] == 200
        assert requests["completed"] == outcomes["answered"] == stub.calls
        assert requests["rejected"] == outcomes["rejected"]
        assert requests["accepted"] == outcomes["answered"]
        assert requests["in_flight"] == 0 and supervision(server)["in_flight"] == 0
        assert 1 <= server.metrics()["queue"]["high_water"] <= 3
        assert_invariant(server)

    def test_a_second_crash_fails_the_request_typed(self, supervised):
        server, stub = supervised(crashes=5)
        with pytest.raises(WorkerCrashError, match="stub worker pool died"):
            server.solve("lcs", 8)
        assert stub.calls == 2  # initial attempt + exactly one re-run
        info = supervision(server)
        assert info["crashes"] == 2 and info["redispatches"] == 1
        assert server.metrics()["requests"]["failed"] == 1
        assert_invariant(server)
        with pytest.raises(WorkerCrashError):  # the next request gets its own re-run
            server.solve("lcs", 8)
        assert stub.calls == 4 and supervision(server)["redispatches"] == 2

    def test_a_crash_past_the_deadline_is_not_redispatched(self, supervised):
        # The crashed attempt outlasted the deadline: the session refuses the re-run.
        server, stub = supervised(crashes=1, crash_expires_deadline=True)
        ticket = server.submit("lcs", 8, deadline_s=30)
        with pytest.raises(DeadlineError, match="expired"):
            ticket.result()
        info = supervision(server)
        assert stub.calls == 1 and not info["in_flight"]
        assert info["crashes"] == 1 and info["redispatches"] == 0
        requests = server.metrics()["requests"]
        assert requests["failed"] == 1 and requests["deadline_expired"] == 1
        assert_invariant(server)

    def test_a_request_error_fails_the_request_without_a_crash(self, supervised):
        server, stub = supervised(error=ValueError("no such request"))
        for _ in range(2):
            with pytest.raises(ValueError, match="no such request"):
                server.solve("lcs", 8)
        assert stub.calls == 2  # one attempt each, never re-run
        info = supervision(server)
        assert info["crashes"] == 0 and info["redispatches"] == 0
        assert server.metrics()["requests"]["failed"] == 2
        assert_invariant(server)

    def test_chaos_slow_delays_the_answer_but_delivers_it(self, supervised):
        server, stub = supervised(plan=FaultPlan.parse("slow@1:0.1"))
        began = time.perf_counter()
        assert server.solve("lcs", 8) == ANSWER
        assert time.perf_counter() - began >= 0.1
        info = supervision(server)
        assert info["faults"]["by_kind"] == {"slow": 1}
        assert info["crashes"] == 0 and stub.calls == 1

    def test_borrowed_session_is_not_closed(self, supervised):
        server, stub = supervised()
        server.close()
        assert not stub.closed

    def test_owned_session_is_closed(self, supervised):
        server, stub = supervised(own_session=True)
        server.close()
        assert stub.closed

    def test_close_fails_unanswered_requests_typed(self, supervised):
        # A dropped request waiting out its deadline, and a sweep that would
        # never end: the drain wakes the first and close() stops the second
        # through its deadline check.  Each thread fails its own request,
        # typed, without waiting for either deadline.
        server, stub = supervised(plan=FaultPlan.parse("drop@1"), DRAIN_TIMEOUT_S=0.1)
        dropped = in_background(server, "lcs", 8, deadline_s=30)
        wait_until(lambda: supervision(server)["dropped_responses"] == 1)
        stub.gate.clear()  # never set again
        held = in_background(server, "lcs", 9, deadline_s=30)
        wait_until(lambda: supervision(server)["in_flight"] == 2 and stub.calls == 2)
        began = time.perf_counter()
        server.close()
        assert time.perf_counter() - began < 1.0
        for thread, outcome in (dropped, held):
            thread.join(timeout=5)
            assert not thread.is_alive()
            [ticket] = outcome
            with pytest.raises(ServerError, match="shut down") as error:
                ticket.result()
            assert not isinstance(error.value, DeadlineError)
        requests = server.metrics()["requests"]
        assert requests["failed"] == 2 and requests["in_flight"] == 0
        assert_invariant(server)

    def test_close_wakes_a_drop_waiting_on_its_deadline(self, supervised):
        # The default drain timeout: the drop is no work to wait for.
        server, stub = supervised(plan=FaultPlan.parse("drop@1"), DRAIN_TIMEOUT_S=30.0)
        thread, outcome = in_background(server, "lcs", 8, deadline_s=30)
        wait_until(lambda: supervision(server)["dropped_responses"] == 1)
        began = time.perf_counter()
        server.close()
        assert time.perf_counter() - began < 1.0
        thread.join(timeout=5)
        assert not thread.is_alive()
        [ticket] = outcome
        with pytest.raises(ServerError, match="shut down"):
            ticket.result()
        assert server.metrics()["requests"]["in_flight"] == 0
        assert_invariant(server)

    def test_a_crash_while_close_runs_fails_shut_down_and_runs_nothing_more(
        self, supervised
    ):
        # close() stops the held sweep, and its team dies as it stops.
        server, stub = supervised(crash_when_stopped=True, DRAIN_TIMEOUT_S=0.1)
        stub.gate.clear()  # never set again
        thread, outcome = in_background(server, "lcs", 8, deadline_s=30)
        wait_until(lambda: stub.calls == 1)
        server.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        with pytest.raises(ServerError, match="shut down") as error:
            outcome[0].result()
        assert not isinstance(error.value, DeadlineError)
        info = supervision(server)
        assert stub.calls == 1 and info["crashes"] == 1 and info["redispatches"] == 0
        assert_invariant(server)


class TestDeadlines:
    """A deadline stops the request's own work, on its own thread."""

    def test_a_deadline_stops_the_sweep_not_only_the_waiter(self, supervised):
        server, stub = supervised(sweep_s=0.6)
        ticket = server.submit("lcs", 8, deadline_s=0.1)
        returned = time.perf_counter()
        with pytest.raises(DeadlineError, match="sweep reached its deadline"):
            ticket.result()
        assert returned - ticket.enqueued_at < 0.5  # the sweep takes 0.6 s
        assert returned >= ticket.deadline_at
        requests = server.metrics()["requests"]
        assert requests["deadline_expired"] == 1 and requests["in_flight"] == 0
        assert server.solve("lcs", 8, deadline_s=5) == ANSWER  # nothing left running
        assert_invariant(server)

    def test_the_solve_is_given_the_request_deadline(self, supervised):
        server, stub = supervised()
        ticket = server.submit("lcs", 8, deadline_s=5)
        assert ticket.result() == ANSWER
        assert stub.deadlines == [ticket.deadline_at]

    def test_a_request_without_a_deadline_is_unbounded(self, supervised):
        server, stub = supervised(
            config=ServerConfig(adaptive="off", default_deadline_s=None)
        )
        ticket = server.submit("lcs", 8)
        assert ticket.result() == ANSWER
        assert ticket.deadline_at is None and stub.deadlines == [math.inf]

    def test_each_dropped_request_fails_at_its_own_deadline(self, supervised):
        server, stub = supervised(plan=FaultPlan.parse("drop@1,drop@2"))
        for deadline_s in (0.1, 0.2):
            ticket = server.submit("lcs", 8, deadline_s=deadline_s)
            assert time.perf_counter() >= ticket.deadline_at  # never early
            with pytest.raises(DeadlineError, match="dropped"):
                ticket.result()
        assert stub.calls == 2
        assert supervision(server)["dropped_responses"] == 2
        requests = server.metrics()["requests"]
        assert requests["deadline_expired"] == 2 and requests["failed"] == 2
        assert_invariant(server)


class TestServerIntegration:
    """A real ReproServer over a real session."""

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="the worker-kill test needs a forking platform",
    )
    def test_a_killed_worker_is_rerun_once_on_a_fresh_team(self):
        # lcs dim 64 pinned to the pipelined engine: a 2-worker team, 16-cell tiles.
        pinned = ExecutionPolicy(
            backend="pipelined", workers=2, tunables=TunableParams(cpu_tile=16)
        )
        with Session(system="i7-2600K") as session:
            reference = session.solve("lcs", 64, policy=ExecutionPolicy(backend="serial"))
            with ReproServer(session, ServerConfig(adaptive="off")) as server:
                server.solve("lcs", 64, policy=pinned)  # forks the team
                [victim, _] = session.cache_info()["teams"]["pids"]
                os.kill(victim, signal.SIGKILL)
                result = server.solve("lcs", 64, policy=pinned)
                metrics = server.metrics()
        assert np.array_equal(result.grid.values, reference.grid.values)
        assert np.array_equal(result.witness, reference.witness)
        assert result.value == reference.value
        supervisor = metrics["supervisor"]
        assert supervisor["crashes"] == 1 and supervisor["redispatches"] == 1
        assert metrics["caches"]["builds"]["teams_built"] == 2
        assert metrics["requests"]["completed"] == 2 and metrics["requests"]["failed"] == 0
        assert set(supervisor) == {
            "in_flight", "dropped_responses", "crashes", "redispatches",
            "faults_injected", "faults",
        }

    def test_sweeps_past_their_deadline_leave_the_server_healthy(self, serve_session):
        # Valid requests, each stopped at its deadline mid-sweep, then a
        # small one: a stopped sweep is no crash.
        readiness = []

        def idle():
            info = server.readiness()
            readiness.append(info["ready"])
            return not info["in_flight"]

        with ReproServer(
            serve_session, ServerConfig(queue_capacity=16, adaptive="off")
        ) as server:
            for inner_iterations in (20, 21):
                with pytest.raises(DeadlineError):
                    server.solve(
                        "nash-equilibrium",
                        2048,
                        deadline_s=0.1,
                        inner_iterations=inner_iterations,
                    )
                wait_until(idle, timeout_s=30.0)
            result = server.solve("lcs", 12)
            info = server.readiness()
        assert result.checksum == serve_session.solve("lcs", 12).checksum
        assert info["ready"] and info["crashes"] == 0
        assert all(readiness)

    def test_a_deadline_stops_the_sweep_and_the_next_request_answers_at_once(
        self, serve_session
    ):
        # The head-of-line probe: a sweep of about 1.5 s with a 0.2 s
        # deadline, and a small request 50 ms behind it.  The small one
        # waits for the run lock only until the big sweep stops, at its
        # deadline plus one diagonal, not for the sweep's natural end.
        outcome = {}

        def big():
            began = time.perf_counter()
            try:
                server.solve(
                    "nash-equilibrium", 2048, deadline_s=0.2, inner_iterations=40
                )
            except DeadlineError as error:
                outcome["big"] = (time.perf_counter() - began, error)

        with ReproServer(serve_session, ServerConfig(adaptive="off")) as server:
            server.solve("lcs", 12)  # warm
            thread = threading.Thread(target=big)
            thread.start()
            time.sleep(0.05)
            began = time.perf_counter()
            small = server.solve("lcs", 12, deadline_s=30)
            small_s = time.perf_counter() - began
            thread.join(timeout=30)
        big_s, error = outcome["big"]
        assert "sweep reached its deadline" in str(error)
        assert 0.2 <= big_s < 0.7
        assert small_s < 0.75  # behind the whole sweep it would be > 1.3 s
        assert small.checksum == serve_session.solve("lcs", 12).checksum

    def test_close_stops_an_in_flight_sweep_and_the_requests_behind_it(
        self, serve_session, monkeypatch
    ):
        monkeypatch.setattr(service, "DRAIN_TIMEOUT_S", 0.1)
        server = ReproServer(serve_session, ServerConfig(adaptive="off")).start()
        sweeping = in_background(
            server, "nash-equilibrium", 2048, deadline_s=30, inner_iterations=40
        )
        lock = serve_session._run_lock

        def held_elsewhere():
            if lock.acquire(blocking=False):
                lock.release()
                return False
            return True

        wait_until(held_elsewhere)  # the sweep holds the run lock
        behind = [in_background(server, "lcs", 12 + i, deadline_s=30) for i in range(2)]
        wait_until(lambda: serve_session.run_waiters == 2)
        began = time.perf_counter()
        server.close()
        closed_s = time.perf_counter() - began
        for thread, outcome in [sweeping, *behind]:
            thread.join(timeout=10)
            with pytest.raises(ServerError, match="shut down"):
                outcome[0].result()
        assert closed_s < 1.0  # the sweep would take about 1.5 s
        assert serve_session._run_lock.acquire(blocking=False)
        serve_session._run_lock.release()
        requests = server.metrics()["requests"]
        assert requests["failed"] == 3 and requests["in_flight"] == 0
        assert_invariant(server)

    def test_deadline_expiry_is_counted_in_metrics(self, serve_session):
        with ReproServer(
            serve_session,
            ServerConfig(queue_capacity=16),
            fault_plan=FaultPlan.parse("drop@1"),
        ) as server:
            with pytest.raises(DeadlineError):
                server.solve("lcs", 48, deadline_s=0.5)
            metrics = server.metrics()
        assert metrics["requests"]["deadline_expired"] == 1
        assert metrics["requests"]["failed"] == 1  # the invariant's view
        assert metrics["requests"]["in_flight"] == 0
