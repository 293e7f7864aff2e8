"""Tests for the serving lane's supervision and chaos injection.

The unit layer drives a :class:`ReproServer` over a stub session, with the
lane's supervision constants shrunk to milliseconds, so crash / restart /
re-dispatch / deadline logic runs fast and deterministically; the
integration layer at the bottom runs a real server over the shared serving
session with a fault plan armed.
"""

import threading
import time

import pytest

from repro.core.exceptions import (
    DeadlineError,
    ServerError,
    ShardCrashError,
    ShardUnavailableError,
    UsageError,
    WorkerCrashError,
)
from repro.runtime.executor_base import ExecutionMode
from repro.server import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ReproServer,
    ServerConfig,
)
from repro.server import service

#: Millisecond-scale supervision so every failure path runs fast.
FAST = {
    "BACKOFF_BASE_S": 0.01,
    "BACKOFF_CAP_S": 0.05,
    "BACKOFF_JITTER": 0.1,
    "RESTART_BUDGET": 4,
    "RESTART_WINDOW_S": 5.0,
    "MAX_REDISPATCH": 2,
}

ANSWER = "answer:lcs:8"


def wait_until(predicate, timeout_s=3.0):
    """Poll ``predicate`` until true; fail the test on timeout."""
    end = time.monotonic() + timeout_s
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


def assert_invariant(server):
    """``accepted == completed + failed + cancelled + in_flight``."""
    requests = server.metrics()["requests"]
    assert requests["accepted"] == (
        requests["completed"] + requests["failed"]
        + requests["cancelled"] + requests["in_flight"]
    ), requests


class StubSession:
    """A deterministic stand-in session that can crash, sweep slowly or block."""

    mode = ExecutionMode.FUNCTIONAL
    result_cache = None

    def __init__(self, crashes=0, sweep_s=0.0, error=None):
        self.crashes_left = crashes
        self.sweep_s = sweep_s
        #: Raised by every solve that does not crash: a request-level failure.
        self.error = error
        #: Cleared to hold every solve until the test sets it again.
        self.gate = threading.Event()
        self.gate.set()
        self.calls = 0
        self.threads = []
        #: The ``deadline_at`` bound each solve was given.
        self.deadlines = []
        self.closed = False
        self._lock = threading.Lock()

    def solve_one(self, request, mode=None, deadline_at=None):
        if deadline_at is not None and time.perf_counter() > deadline_at:
            raise DeadlineError("deadline expired")  # as Session does
        with self._lock:
            self.calls += 1
            self.threads.append(threading.current_thread())
            self.deadlines.append(deadline_at)
            if self.crashes_left > 0:
                self.crashes_left -= 1
                raise WorkerCrashError("stub worker pool died")
        if self.error is not None:
            raise self.error
        self.gate.wait()
        time.sleep(self.sweep_s)
        return None, f"answer:{request['app']}:{request['dim']}"

    def serve_from_memory(self, *args, **kwargs):
        return None

    def cache_info(self):
        return {}

    def close(self):
        self.closed = True


@pytest.fixture()
def supervised(monkeypatch):
    """``build(...)``: an unstarted server over a fresh stub session."""

    def build(
        crashes=0, sweep_s=0.0, error=None, plan=None, own_session=False,
        config=None, **knobs,
    ):
        for name, value in {**FAST, **knobs}.items():
            monkeypatch.setattr(service, name, value)
        stub = StubSession(crashes=crashes, sweep_s=sweep_s, error=error)
        server = ReproServer(
            stub,
            config if config is not None else ServerConfig(adaptive="off"),
            own_session=own_session,
            fault_plan=plan,
        )
        built.append(server)
        return server, stub

    built = []
    yield build
    for server in built:
        server.close()


def lane(server):
    """The lane's supervision snapshot (the ``/metrics`` ``supervisor`` section)."""
    return server.readiness()


def record_backoffs(server):
    """Record every backoff the lane sleeps, in seconds, as it sleeps it."""
    waits = []
    sleep = server._stop.wait

    def recording(timeout=None):
        waits.append(timeout)
        return sleep(timeout)

    server._stop.wait = recording
    return waits


class TestFaultPlan:
    def test_parse_round_trips_and_sorts_by_ordinal(self):
        plan = FaultPlan.parse("drop@47,kill@7,slow@18:0.2,kill@31")
        assert len(plan) == 4
        assert plan.describe() == "kill@7,slow@18:0.2,kill@31,drop@47"
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
        ["boom@3", "hang@3", "kill", "kill@x", "kill@0", "slow@3:abc", "@3", "kill@"],
    )
    def test_malformed_specs_raise_usage_error(self, spec):
        with pytest.raises(UsageError):
            FaultPlan.parse(spec)

    def test_negative_seconds_rejected(self):
        with pytest.raises(UsageError):
            FaultSpec("slow", 1, seconds=-0.1)


class TestFaultInjector:
    def test_fault_fires_in_the_batch_containing_its_ordinal(self):
        injector = FaultInjector(plan=FaultPlan.parse("kill@3"))
        assert injector.take(2) == []
        due = injector.take(2)  # window (2, 4] contains ordinal 3
        assert [spec.kind for spec in due] == ["kill"]

    def test_each_fault_fires_exactly_once(self):
        injector = FaultInjector(plan=FaultPlan.parse("kill@1"))
        assert len(injector.take(1)) == 1
        assert injector.take(1) == []
        assert injector.info()["injected"] == 1

    def test_empty_plan_is_free(self):
        injector = FaultInjector()
        assert injector.take(100) == []
        assert injector.info()["scheduled"] == 0

    def test_info_reports_by_kind_and_plan(self):
        injector = FaultInjector(plan=FaultPlan.parse("kill@1,drop@2,kill@3"))
        injector.take(2)
        info = injector.info()
        assert info["scheduled"] == 3
        assert info["injected"] == 2
        assert info["by_kind"] == {"kill": 1, "drop": 1}
        assert info["requests_seen"] == 2
        assert info["plan"] == "kill@1,drop@2,kill@3"



class TestSupervision:
    def test_execute_round_trips_through_the_lane(self, supervised):
        server, stub = supervised()
        server.start()
        info = lane(server)
        assert info["state"] == "healthy" and not info["circuit_open"]
        assert server.solve("lcs", 8) == ANSWER
        assert stub.calls == 1

    def test_a_started_server_runs_one_thread_of_its_own(self, supervised):
        before = set(threading.enumerate())
        server, stub = supervised(crashes=1)
        server.start()
        assert server.solve("lcs", 8) == ANSWER
        own = [t for t in threading.enumerate() if t not in before]
        assert [t.name for t in own] == ["repro-shard-0"]
        server.close()
        assert not own[0].is_alive()

    def test_worker_crash_restarts_and_redispatches(self, supervised):
        server, stub = supervised(crashes=1)
        server.start()
        assert server.solve("lcs", 8) == ANSWER  # second attempt succeeded
        assert stub.calls == 2
        info = lane(server)
        assert info["crashes"] == 1
        assert info["redispatches"] == 1
        wait_until(lambda: lane(server)["restarts"] >= 1)
        wait_until(lambda: lane(server)["state"] == "healthy")

    def test_chaos_kill_is_survived_and_counted_once(self, supervised):
        server, stub = supervised(plan=FaultPlan.parse("kill@1"))
        server.start()
        assert server.solve("lcs", 8) == ANSWER
        assert stub.calls == 1  # the kill fired before any solve
        info = lane(server)
        assert info["faults_injected"] == 1
        assert info["faults"]["by_kind"] == {"kill": 1}

    def test_chaos_drop_fails_typed_at_the_deadline(self, supervised):
        server, stub = supervised(plan=FaultPlan.parse("drop@1"))
        server.start()
        ticket = server.submit("lcs", 8, deadline_s=0.3)
        with pytest.raises(DeadlineError, match="dropped"):
            ticket.result()
        assert time.perf_counter() >= ticket.deadline_at  # never early
        assert stub.calls == 1  # the work happened, the response vanished
        assert lane(server)["dropped_responses"] == 1
        requests = server.metrics()["requests"]
        assert requests["deadline_expired"] == 1 and requests["failed"] == 1
        assert_invariant(server)

    def test_the_lane_is_one_thread_across_crashes(self, supervised):
        server, stub = supervised(crashes=2)
        server.start()
        for _ in range(3):
            assert server.solve("lcs", 8) == ANSWER
        assert lane(server)["crashes"] == 2 and stub.calls == 5
        assert len(set(stub.threads)) == 1
        assert stub.threads[0].name == "repro-shard-0"

    def test_any_exception_escaping_a_batch_is_a_crash(self, supervised):
        server, stub = supervised()

        class Exploding:
            def observe(self, *args, **kwargs):
                server.adaptive = None
                raise RuntimeError("observation failed")

        server.adaptive = Exploding()
        server.start()
        assert server.solve("lcs", 8) == ANSWER  # answered before the escape
        wait_until(lambda: lane(server)["crashes"] == 1)
        assert server.solve("lcs", 9) == "answer:lcs:9"
        assert len(set(stub.threads)) == 1  # recovered in place
        assert lane(server)["redispatches"] == 0  # nothing left to re-run
        assert stub.calls == 2

    def test_a_clean_batch_resets_the_backoff(self, supervised):
        # Each round's first attempt is killed, its re-dispatch succeeds:
        # every crash is the first since a clean batch, so it backs off the
        # base delay, never a doubled one.
        server, _ = supervised(plan=FaultPlan.parse("kill@1,kill@3,kill@5,kill@7"))
        server.start()
        for crashes in range(1, 5):
            assert server.solve("lcs", 8) == ANSWER
            wait_until(lambda: not lane(server)["in_flight"])
            assert lane(server)["crashes"] == crashes
            assert server._consecutive_crashes == 0

    def test_request_expired_in_the_queue_is_failed_not_run(self, supervised):
        server, stub = supervised()
        ticket = server.submit("lcs", 8, deadline_s=0.01)
        time.sleep(0.05)
        server.start()
        wait_until(lambda: ticket.done)
        with pytest.raises(DeadlineError, match="expired in the queue"):
            ticket.result()
        assert stub.calls == 0
        assert server.metrics()["requests"]["deadline_expired"] == 1
        assert_invariant(server)

    def test_restart_budget_trips_the_circuit_breaker(self, supervised):
        server, _ = supervised(
            crashes=10, BACKOFF_CAP_S=0.02, RESTART_BUDGET=0, MAX_REDISPATCH=0
        )
        first = server.submit("lcs", 8)
        admitted = server.submit("lcs", 9)  # queued behind it, then shed
        server.start()
        with pytest.raises(ShardCrashError):
            first.result()
        info = lane(server)
        assert info["circuit_open"] and info["state"] != "healthy"
        with pytest.raises(ShardUnavailableError):
            admitted.result()
        with pytest.raises(ShardUnavailableError):
            server.submit("lcs", 8)
        assert_invariant(server)

    def test_the_breaker_closes_after_the_window(self, supervised):
        server, stub = supervised(
            crashes=1, RESTART_BUDGET=0, RESTART_WINDOW_S=0.3, MAX_REDISPATCH=0
        )
        server.start()
        with pytest.raises(ShardCrashError):
            server.solve("lcs", 8)
        assert lane(server)["state"] == "dead"
        wait_until(lambda: lane(server)["state"] == "healthy")
        assert not lane(server)["circuit_open"]
        # The next batch is the probe, and it is served.
        assert server.solve("lcs", 8) == ANSWER
        assert stub.calls == 2 and lane(server)["crashes"] == 1

    def test_redispatch_budget_bounds_the_attempts(self, supervised):
        server, stub = supervised(
            crashes=5, BACKOFF_CAP_S=0.02, RESTART_BUDGET=10, MAX_REDISPATCH=1
        )
        server.start()
        with pytest.raises(ShardCrashError, match="2 times"):
            server.solve("lcs", 8)
        assert stub.calls == 2  # initial attempt + exactly one re-dispatch
        assert lane(server)["redispatches"] == 1

    def test_backoff_doubles_per_consecutive_crash_up_to_the_cap(self, supervised):
        server, stub = supervised(
            crashes=3,
            BACKOFF_BASE_S=0.01,
            BACKOFF_CAP_S=0.03,
            BACKOFF_JITTER=0.0,
            RESTART_BUDGET=10,
            MAX_REDISPATCH=3,
        )
        waits = record_backoffs(server)
        server.start()
        assert server.solve("lcs", 8) == ANSWER
        assert waits == pytest.approx([0.01, 0.02, 0.03])
        assert stub.calls == 4 and lane(server)["redispatches"] == 3

    def test_jitter_lengthens_the_backoff_within_its_bound(self, supervised):
        server, _ = supervised(
            crashes=1, BACKOFF_BASE_S=0.01, BACKOFF_CAP_S=1.0, BACKOFF_JITTER=0.5
        )
        waits = record_backoffs(server)
        server.start()
        assert server.solve("lcs", 8) == ANSWER
        [wait] = waits
        assert 0.01 <= wait <= 0.015

    def test_a_crash_that_trips_the_breaker_fails_its_batch_unavailable(
        self, supervised
    ):
        # Re-dispatch budget left, but the crash opened the circuit: the
        # batch fails at once, with no backoff and no second attempt.
        server, stub = supervised(crashes=10, RESTART_BUDGET=0, MAX_REDISPATCH=5)
        waits = record_backoffs(server)
        server.start()
        with pytest.raises(ShardUnavailableError, match="gone"):
            server.solve("lcs", 8)
        info = lane(server)
        assert stub.calls == 1 and waits == []
        assert info["circuit_open"] and info["redispatches"] == 0
        assert info["restarts"] == 0
        assert_invariant(server)

    def test_a_crash_past_the_deadline_is_not_redispatched(self, supervised):
        # The slow fault outlasts the deadline, then the kill fires; nobody
        # waits on the ticket, so the lane is the one to fail it.
        server, stub = supervised(plan=FaultPlan.parse("slow@1:0.2,kill@1"))
        server.start()
        ticket = server.submit("lcs", 8, deadline_s=0.1)
        wait_until(lambda: ticket.done)
        with pytest.raises(DeadlineError, match="crashed with its shard"):
            ticket.result(timeout=0)
        wait_until(lambda: not lane(server)["in_flight"])
        info = lane(server)
        assert stub.calls == 0
        assert info["crashes"] == 1 and info["redispatches"] == 0
        assert server.metrics()["requests"]["failed"] == 1
        assert_invariant(server)

    def test_a_request_error_fails_the_batch_without_a_crash(self, supervised):
        server, stub = supervised(error=ValueError("no such request"))
        tickets = [server.submit("lcs", 8) for _ in range(2)]
        server.start()
        for ticket in tickets:
            with pytest.raises(ValueError, match="no such request"):
                ticket.result()
        assert stub.calls == 1  # one coalesced attempt, never re-run
        info = lane(server)
        assert info["crashes"] == 0 and info["redispatches"] == 0
        assert info["state"] == "healthy"
        assert server.metrics()["requests"]["failed"] == 2
        assert_invariant(server)

    def test_chaos_slow_delays_the_answer_but_delivers_it(self, supervised):
        server, stub = supervised(plan=FaultPlan.parse("slow@1:0.1"))
        server.start()
        began = time.perf_counter()
        assert server.solve("lcs", 8) == ANSWER
        assert time.perf_counter() - began >= 0.1
        info = lane(server)
        assert info["faults"]["by_kind"] == {"slow": 1}
        assert info["crashes"] == 0 and stub.calls == 1

    def test_borrowed_session_is_not_closed(self, supervised):
        server, stub = supervised()
        server.start()
        server.close()
        assert not stub.closed

    def test_owned_session_is_closed(self, supervised):
        server, stub = supervised(own_session=True)
        server.start()
        server.close()
        assert stub.closed

    def test_close_fails_unanswered_requests_typed(self, supervised):
        # A dropped request its waiter still holds, and a batch the lane
        # cannot finish before the drain timeout: close() must not leave
        # either waiter blocked until its deadline.
        server, stub = supervised(plan=FaultPlan.parse("drop@1"), DRAIN_TIMEOUT_S=0.1)
        server.start()
        dropped = server.submit("lcs", 8, deadline_s=30)
        outcome = []

        def client():
            try:
                outcome.append(dropped.result())
            except ServerError as error:
                outcome.append(error)

        waiter = threading.Thread(target=client)
        waiter.start()
        wait_until(lambda: lane(server)["dropped_responses"] == 1)
        stub.gate.clear()
        held = server.submit("lcs", 9, deadline_s=30)
        wait_until(lambda: lane(server)["in_flight"])
        release = threading.Timer(1.0, stub.gate.set)  # lets the lane end
        release.start()
        server.close()
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        [error] = outcome
        assert isinstance(error, ServerError) and "shut down" in str(error)
        assert not isinstance(error, DeadlineError)
        with pytest.raises(ServerError, match="shut down"):
            held.result(timeout=0)
        release.join()
        requests = server.metrics()["requests"]
        assert requests["failed"] == 2 and requests["in_flight"] == 0
        assert_invariant(server)

    def test_close_resolves_an_unwaited_drop_without_the_drain_timeout(
        self, supervised
    ):
        # No deadline and nobody waiting: only close() can resolve the
        # ticket, and it has no work to drain for.
        server, stub = supervised(
            plan=FaultPlan.parse("drop@1"),
            config=ServerConfig(adaptive="off", default_deadline_s=None),
            DRAIN_TIMEOUT_S=5.0,
        )
        server.start()
        ticket = server.submit("lcs", 8)
        wait_until(lambda: lane(server)["dropped_responses"] == 1)
        began = time.perf_counter()
        server.close()
        assert time.perf_counter() - began < 2.0
        with pytest.raises(ServerError, match="shut down"):
            ticket.result(timeout=0)
        assert server.metrics()["requests"]["in_flight"] == 0
        assert_invariant(server)

    def test_close_during_a_backoff_fails_the_batch_and_runs_nothing_more(
        self, supervised
    ):
        server, stub = supervised(
            crashes=1, BACKOFF_BASE_S=5.0, BACKOFF_CAP_S=5.0, DRAIN_TIMEOUT_S=0.1
        )
        server.start()
        ticket = server.submit("lcs", 8, deadline_s=30)
        wait_until(lambda: lane(server)["crashes"] == 1)
        began = time.perf_counter()
        server.close()
        assert time.perf_counter() - began < 2.0  # the backoff was cut short
        with pytest.raises(ServerError, match="shut down"):
            ticket.result(timeout=0)
        assert stub.calls == 1 and lane(server)["redispatches"] == 0
        assert not server._lane_thread.is_alive()
        assert_invariant(server)

    def test_a_batch_taken_after_close_stopped_the_lane_is_failed_not_run(
        self, supervised
    ):
        # The lane can take a batch from the closed queue after close() has
        # looked at the batch in hand; it must answer that batch itself.
        server, stub = supervised()
        ticket = server.submit("lcs", 8)
        server._stop.set()
        server._serve(server._queue.next_batch(1))
        with pytest.raises(ServerError, match="shut down"):
            ticket.result(timeout=0)
        assert stub.calls == 0 and not lane(server)["in_flight"]
        assert_invariant(server)


class TestDeadlines:
    """Each waiter enforces its own deadline; a batch runs to its latest."""

    def test_a_request_coalesced_with_a_tighter_peer_gets_its_answer(self, supervised):
        server, stub = supervised(sweep_s=0.6)
        server.submit("lcs", 8, deadline_s=0.1)  # the tighter peer
        loose = server.submit("lcs", 8, deadline_s=10)
        server.start()
        assert loose.result() == ANSWER
        assert server.metrics()["batches"]["histogram"] == {"2": 1}
        assert stub.calls == 1

    def test_the_tight_request_fails_typed_before_the_sweep_ends(self, supervised):
        server, stub = supervised(sweep_s=0.6)
        tight = server.submit("lcs", 8, deadline_s=0.1)
        loose = server.submit("lcs", 8, deadline_s=10)
        server.start()
        with pytest.raises(DeadlineError):
            tight.result()
        failed_at = time.perf_counter()
        assert failed_at - tight.enqueued_at < 0.5  # the sweep takes 0.6 s
        assert loose.result() == ANSWER
        wait_until(lambda: not lane(server)["in_flight"])
        requests = server.metrics()["requests"]
        assert requests["deadline_expired"] == 1 and requests["failed"] == 1
        assert requests["completed"] == 1 and requests["in_flight"] == 0
        assert_invariant(server)


    def test_the_lane_is_given_the_latest_deadline_of_its_batch(self, supervised):
        server, stub = supervised()
        tight = server.submit("lcs", 8, deadline_s=5)
        loose = server.submit("lcs", 8, deadline_s=10)
        server.start()
        assert tight.result() == loose.result() == ANSWER
        assert stub.deadlines == [loose.deadline_at]

    def test_a_peer_without_a_deadline_leaves_the_batch_unbounded(self, supervised):
        server, stub = supervised(
            config=ServerConfig(adaptive="off", default_deadline_s=None)
        )
        bounded = server.submit("lcs", 8, deadline_s=5)
        unbounded = server.submit("lcs", 8)
        server.start()
        assert bounded.result() == unbounded.result() == ANSWER
        assert unbounded.deadline_at is None
        assert stub.deadlines == [None]

    def test_a_drop_fails_each_coalesced_waiter_at_its_own_deadline(
        self, supervised
    ):
        server, stub = supervised(plan=FaultPlan.parse("drop@1"))
        tickets = [server.submit("lcs", 8, deadline_s=s) for s in (0.2, 0.4)]
        server.start()
        for ticket in tickets:
            with pytest.raises(DeadlineError, match="dropped"):
                ticket.result()
            assert time.perf_counter() >= ticket.deadline_at  # never early
        assert stub.calls == 1
        assert lane(server)["dropped_responses"] == 1
        requests = server.metrics()["requests"]
        assert requests["deadline_expired"] == 2 and requests["failed"] == 2
        assert_invariant(server)


class TestServerIntegration:
    """A real ReproServer over the shared session, supervision armed."""

    @pytest.fixture(autouse=True)
    def fast(self, monkeypatch):
        for name, value in FAST.items():
            monkeypatch.setattr(service, name, value)

    def test_chaos_kill_served_bit_exact_with_metrics(self, serve_session):
        config = ServerConfig(queue_capacity=16, default_deadline_s=30.0)
        with ReproServer(
            serve_session, config, fault_plan=FaultPlan.parse("kill@1")
        ) as server:
            result = server.solve("lcs", 48)
            reference = serve_session.solve("lcs", 48)
            assert result.value == reference.value
            assert result.checksum == reference.checksum
            metrics = server.metrics()
        supervisor = metrics["supervisor"]
        assert supervisor["faults_injected"] == 1
        assert supervisor["redispatches"] == 1
        assert metrics["requests"]["completed"] == 1
        assert metrics["requests"]["deadline_expired"] == 0
        for key in ("state", "restarts", "crashes", "faults"):
            assert key in supervisor
        assert "queued" not in supervisor

    def test_open_circuit_sheds_at_admission(self, serve_session, monkeypatch):
        monkeypatch.setattr(service, "RESTART_BUDGET", 0)
        monkeypatch.setattr(service, "MAX_REDISPATCH", 0)
        with ReproServer(
            serve_session,
            ServerConfig(queue_capacity=16),
            fault_plan=FaultPlan.parse("kill@1"),
        ) as server:
            with pytest.raises(ServerError):
                server.solve("lcs", 48)
            assert server.readiness()["ready"] is False
            before = server.metrics()["requests"]["rejected"]
            with pytest.raises(ShardUnavailableError):
                server.submit("lcs", 48)
            assert server.metrics()["requests"]["rejected"] == before + 1

    def test_sweeps_past_their_deadline_leave_the_lane_healthy(
        self, serve_session, monkeypatch
    ):
        # More valid requests than the restart budget, each sweeping past its
        # deadline and each sent once the lane is idle, then a small one.
        monkeypatch.setattr(service, "RESTART_BUDGET", 1)
        states = []

        def idle():
            info = server.readiness()
            states.append(info["state"])
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
        assert info["state"] == "healthy" and info["crashes"] == 0
        assert "dead" not in states

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
