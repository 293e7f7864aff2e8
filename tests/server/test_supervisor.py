"""Tests for shard supervision and chaos injection.

The unit layer drives :class:`ShardSupervisor` against a stub session and a
hand-fed work source so crash/restart/re-dispatch logic is exercised in
milliseconds; the integration layer at the bottom runs a real
:class:`ReproServer` over the shared serving session with a fault plan armed.
"""

import queue
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
from repro.server import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ReproServer,
    ServerConfig,
    ShardSupervisor,
    ShardTask,
    SupervisorConfig,
)

#: Millisecond-scale supervision so every failure path runs fast.
FAST = SupervisorConfig(
    backoff_base_s=0.01,
    backoff_cap_s=0.05,
    backoff_jitter=0.1,
    restart_budget=4,
    restart_window_s=5.0,
    max_redispatch=2,
)

REQUEST = {"app": "lcs", "dim": 8}


def soon(seconds=5.0):
    """A deadline ``seconds`` from now on the supervisor's clock."""
    return time.perf_counter() + seconds


def wait_until(predicate, timeout_s=3.0):
    """Poll ``predicate`` until true; fail the test on timeout."""
    end = time.monotonic() + timeout_s
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


class Feed:
    """A hand-fed work source: what the server's admission queue is to a
    real supervisor.  ``run`` feeds one task and waits for its outcome."""

    def __init__(self):
        self.tasks = queue.SimpleQueue()

    def __call__(self, timeout):
        try:
            return self.tasks.get(timeout=timeout)
        except queue.Empty:
            return None

    def run(self, deadline_at, request=REQUEST, timeout_s=5.0):
        done = threading.Event()
        task = ShardTask(request, None, deadline_at, on_done=lambda _: done.set())
        self.tasks.put(task)
        assert done.wait(timeout_s), "task was never resolved"
        if task.error is not None:
            raise task.error
        return task.result


class StubSession:
    """A deterministic stand-in session that can crash on demand."""

    def __init__(self, crashes=0):
        self.crashes_left = crashes
        self.calls = 0
        self.threads = []
        self.closed = False
        self._lock = threading.Lock()

    def solve_one(self, request, mode=None, deadline_at=None):
        if deadline_at is not None and time.perf_counter() > deadline_at:
            raise DeadlineError("deadline expired")  # as Session does
        with self._lock:
            self.calls += 1
            self.threads.append(threading.current_thread())
            if self.crashes_left > 0:
                self.crashes_left -= 1
                raise WorkerCrashError("stub worker pool died")
        return None, f"answer:{request['app']}:{request['dim']}"

    def close(self):
        self.closed = True


@pytest.fixture()
def supervised():
    """One started single-shard supervisor over a fresh stub session."""

    def build(crashes=0, config=FAST, plan=None):
        stub = StubSession(crashes=crashes)
        supervisor = ShardSupervisor(
            stub, source=Feed(), config=config, fault_plan=plan
        )
        supervisor.start()
        built.append(supervisor)
        return supervisor, stub

    built = []
    yield build
    for supervisor in built:
        supervisor.close()


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


class TestSupervisorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backoff_base_s": -0.1},
            {"backoff_jitter": -0.1},
            {"restart_budget": -1},
            {"restart_window_s": 0.0},
            {"max_redispatch": -1},
        ],
    )
    def test_bad_knobs_raise_server_error(self, kwargs):
        with pytest.raises(ServerError):
            SupervisorConfig(**kwargs)

    def test_supervisor_needs_a_session(self):
        with pytest.raises(TypeError):
            ShardSupervisor(source=Feed())


class TestSupervision:
    def test_execute_round_trips_through_the_shard(self, supervised):
        supervisor, stub = supervised()
        assert supervisor.state == "healthy" and not supervisor.circuit_open
        answer = supervisor.source.run(deadline_at=soon())
        assert answer == "answer:lcs:8"
        assert stub.calls == 1

    def test_worker_crash_restarts_and_redispatches(self, supervised):
        supervisor, stub = supervised(crashes=1)
        answer = supervisor.source.run(deadline_at=soon())
        assert answer == "answer:lcs:8"  # second attempt succeeded
        assert stub.calls == 2
        info = supervisor.info()
        assert info["crashes"] == 1
        assert info["redispatches"] == 1
        wait_until(lambda: supervisor.info()["restarts"] >= 1)
        wait_until(lambda: supervisor.state == "healthy")

    def test_chaos_kill_is_survived_and_counted_once(self, supervised):
        supervisor, stub = supervised(plan=FaultPlan.parse("kill@1"))
        answer = supervisor.source.run(deadline_at=soon())
        assert answer == "answer:lcs:8"
        assert stub.calls == 1  # the kill fired before any solve
        info = supervisor.info()
        assert info["faults_injected"] == 1
        assert info["faults"]["by_kind"] == {"kill": 1}

    def test_chaos_drop_fails_typed_at_the_deadline(self, supervised):
        supervisor, stub = supervised(plan=FaultPlan.parse("drop@1"))
        with pytest.raises(DeadlineError, match="dropped"):
            supervisor.source.run(deadline_at=soon(0.3))
        assert stub.calls == 1  # the work happened, the response vanished
        assert supervisor.info()["dropped_responses"] == 1

    def test_the_lane_is_one_thread_across_crashes(self, supervised):
        supervisor, stub = supervised(crashes=2)
        for _ in range(3):
            assert supervisor.source.run(deadline_at=soon()) == "answer:lcs:8"
        assert supervisor.crashes == 2 and stub.calls == 5
        assert len(set(stub.threads)) == 1
        assert stub.threads[0].name == "repro-shard-0"

    def test_any_exception_escaping_a_task_is_a_crash(self, supervised):
        supervisor, stub = supervised()

        def explode(task):
            raise RuntimeError("delivery failed")

        supervisor.source.tasks.put(ShardTask(REQUEST, None, soon(), on_done=explode))
        wait_until(lambda: supervisor.crashes == 1)
        assert supervisor.source.run(deadline_at=soon()) == "answer:lcs:8"
        assert len(set(stub.threads)) == 1  # recovered in place

    def test_a_clean_task_resets_the_backoff(self, supervised):
        # Each round's first attempt is killed, its re-dispatch succeeds:
        # every crash is the first since a clean task, so it backs off the
        # base delay, never a doubled one.
        supervisor, _ = supervised(plan=FaultPlan.parse("kill@1,kill@3,kill@5,kill@7"))
        for crashes in range(1, 5):
            assert supervisor.source.run(deadline_at=soon()) == "answer:lcs:8"
            wait_until(lambda: not supervisor.info()["in_flight"])
            assert supervisor.crashes == crashes
            assert supervisor.consecutive_crashes == 0

    def test_request_expired_in_the_inbox_fails_typed(self, supervised):
        supervisor, _ = supervised()
        with pytest.raises(DeadlineError):
            supervisor.source.run(deadline_at=time.perf_counter())

    def test_restart_budget_trips_the_circuit_breaker(self, supervised):
        config = SupervisorConfig(
            backoff_base_s=0.01,
            backoff_cap_s=0.02,
            restart_budget=0,
            max_redispatch=0,
        )
        supervisor, _ = supervised(crashes=10, config=config)
        with pytest.raises(ShardCrashError):
            supervisor.source.run(deadline_at=soon())
        assert supervisor.circuit_open and supervisor.state != "healthy"
        with pytest.raises(ShardUnavailableError):
            supervisor.source.run(deadline_at=soon())

    def test_the_breaker_closes_after_the_window(self, supervised):
        config = SupervisorConfig(
            backoff_base_s=0.01,
            restart_budget=0,
            restart_window_s=0.3,
            max_redispatch=0,
        )
        supervisor, stub = supervised(crashes=1, config=config)
        with pytest.raises(ShardCrashError):
            supervisor.source.run(deadline_at=soon())
        assert supervisor.state == "dead"
        wait_until(lambda: supervisor.state == "healthy")
        assert not supervisor.circuit_open
        # The next task is the probe, and it is served.
        assert supervisor.source.run(deadline_at=soon()) == "answer:lcs:8"
        assert stub.calls == 2 and supervisor.crashes == 1

    def test_redispatch_budget_bounds_the_attempts(self, supervised):
        config = SupervisorConfig(
            backoff_base_s=0.01,
            backoff_cap_s=0.02,
            restart_budget=10,
            max_redispatch=1,
        )
        supervisor, stub = supervised(crashes=5, config=config)
        with pytest.raises(ShardCrashError, match="2 times"):
            supervisor.source.run(deadline_at=soon())
        assert stub.calls == 2  # initial attempt + exactly one re-dispatch
        assert supervisor.info()["redispatches"] == 1

    def test_borrowed_session_is_not_closed(self, supervised):
        supervisor, stub = supervised()
        supervisor.close()
        assert not stub.closed

    def test_close_fails_unanswered_tasks_typed(self, supervised):
        # A dropped response is held for the monitor's deadline check; a
        # supervisor that closes first must not leave it unresolved.
        supervisor, _ = supervised(plan=FaultPlan.parse("drop@1"))
        outcome = []

        def client():
            try:
                outcome.append(supervisor.source.run(deadline_at=soon(30)))
            except ServerError as error:
                outcome.append(error)

        thread = threading.Thread(target=client)
        thread.start()
        wait_until(lambda: supervisor.info()["dropped_responses"] == 1)
        supervisor.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(outcome[0], ServerError) and "shut down" in str(outcome[0])

    def test_an_exactly_once_task_ignores_the_second_resolution(self):
        calls = []
        task = ShardTask(REQUEST, None, soon(), on_done=calls.append)
        assert task.complete("first") and not task.fail(ServerError("late"))
        assert calls == [task] and task.result == "first" and task.error is None


class TestServerIntegration:
    """A real ReproServer over the shared session, supervision armed."""

    def test_chaos_kill_served_bit_exact_with_metrics(self, serve_session):
        config = ServerConfig(queue_capacity=16, default_deadline_s=30.0)
        with ReproServer(
            serve_session,
            config,
            supervisor_config=FAST,
            fault_plan=FaultPlan.parse("kill@1"),
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

    def test_open_circuit_sheds_at_admission(
        self, serve_session
    ):
        breaker = SupervisorConfig(
            backoff_base_s=0.01,
            restart_budget=0,
            max_redispatch=0,
        )
        with ReproServer(
            serve_session,
            ServerConfig(queue_capacity=16),
            supervisor_config=breaker,
            fault_plan=FaultPlan.parse("kill@1"),
        ) as server:
            with pytest.raises(ServerError):
                server.solve("lcs", 48)
            assert server.readiness()["ready"] is False
            before = server.metrics()["requests"]["rejected"]
            with pytest.raises(ShardUnavailableError):
                server.submit("lcs", 48)
            assert server.metrics()["requests"]["rejected"] == before + 1

    def test_sweeps_past_their_deadline_leave_the_lane_healthy(self, serve_session):
        # More valid requests than the restart budget, each sweeping past its
        # deadline and each sent once the lane is idle, then a small one.
        states = []

        def idle():
            info = server.supervisor.info()
            states.append(info["state"])
            return not info["in_flight"]

        with ReproServer(
            serve_session,
            ServerConfig(queue_capacity=16, adaptive="off"),
            supervisor_config=SupervisorConfig(restart_budget=1),
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
            info = server.supervisor.info()
        assert result.checksum == serve_session.solve("lcs", 12).checksum
        assert info["state"] == "healthy" and info["crashes"] == 0
        assert "dead" not in states

    def test_deadline_expiry_is_counted_in_metrics(self, serve_session):
        with ReproServer(
            serve_session,
            ServerConfig(queue_capacity=16),
            supervisor_config=FAST,
            fault_plan=FaultPlan.parse("drop@1"),
        ) as server:
            with pytest.raises(DeadlineError):
                server.solve("lcs", 48, deadline_s=0.5)
            metrics = server.metrics()
        assert metrics["requests"]["deadline_expired"] == 1
        assert metrics["requests"]["failed"] == 1  # the invariant's view
        assert metrics["requests"]["in_flight"] == 0
