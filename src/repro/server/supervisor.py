"""Supervision of the serving lane: in-place crash recovery, re-dispatch.

A lane that crashes mid-solve must not take the service down or lose the
request.  :class:`ShardSupervisor` owns one worker lane (the "shard": one
thread, for the supervisor's whole life, running on the server's own
:class:`~repro.session.Session`) plus one monitor thread.  An idle lane
thread takes its next :class:`ShardTask` straight from the supervisor's
``source`` (the server's admission queue) and resolves it on the spot; its
inbox only carries re-dispatched work.  Guarantees:

* **crash recovery in place** — every exception that escapes a task's
  handling is a crash: :class:`~repro.core.exceptions.ShardCrashError`
  (an injected kill), :class:`~repro.core.exceptions.WorkerCrashError` (a
  broken multiprocessing pool under the session, replaced on the session's
  next borrow) or anything else.  The lane thread counts it, checks the
  breaker, re-dispatches the task, backs off (jittered, exponential in the
  crashes since the last clean task) and resumes — no thread is replaced;
* **a breaker that closes** — more than ``restart_budget`` crashes inside
  the sliding ``restart_window_s`` open the circuit (state ``dead``):
  admission sheds load and the lane fails what was already admitted with
  :class:`~repro.core.exceptions.ShardUnavailableError`.  Once the window
  slides below the budget the lane is ``healthy`` again and its next task
  is the probe;
* **bounded re-dispatch** — the in-flight task of a crash goes back to the
  front of the inbox (up to ``max_redispatch`` extra attempts).
  At-most-once *divergence* holds by construction: solving is
  deterministic, and with a persistent :class:`repro.cache.ResultCache`
  a retried request coalesces on the cache's leader/follower keys, so a
  retry never double-solves;
* **deadline enforcement** — the monitor fails every task the lane holds
  (executing, waiting for re-dispatch, or dropped) unanswered past its
  deadline with a typed :class:`~repro.core.exceptions.DeadlineError`
  (HTTP 504).  A solve past its deadline is not a crash: its waiter gets
  the 504 and the lane takes its next task when the sweep ends.  A chaos
  ``drop`` fault (response discarded after solving) resolves the same way.

Chaos injection (:mod:`repro.server.faults`) hooks the lane loop between
dequeue and execution, which is what keeps injected kills at-most-once:
the fault fires *before* any solve starts.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.exceptions import (
    DeadlineError,
    ServerError,
    ShardCrashError,
    ShardUnavailableError,
    WorkerCrashError,
)
from repro.facade.plan import ResolvedPlan
from repro.server.faults import FaultInjector, FaultPlan
from repro.session import Session

#: Extra seconds the monitor allows past the deadline before failing a task,
#: absorbing scheduler wake-up latency without weakening the guarantee.
DEADLINE_GRACE_S = 0.1
#: Seconds an idle lane waits on its source before looking at its inbox again.
IDLE_POLL_S = 0.05
#: Seconds between two deadline sweeps of the monitor.
MONITOR_TICK_S = 0.1


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs of one :class:`ShardSupervisor`.

    Resumption delays grow as ``backoff_base_s * 2^(consecutive crashes -
    1)`` capped at ``backoff_cap_s``, with up to ``backoff_jitter`` relative
    jitter; a task resolved without a crash resets the count.  More than
    ``restart_budget`` crashes inside ``restart_window_s`` open the circuit
    breaker (state ``dead``) until the window slides below the budget.
    ``max_redispatch`` bounds how many *extra* attempts a crashed task gets.
    """

    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_jitter: float = 0.25
    restart_budget: int = 5
    restart_window_s: float = 30.0
    max_redispatch: int = 2

    def __post_init__(self) -> None:
        """Validate the knobs once, at construction."""
        if self.restart_window_s <= 0:
            raise ServerError(
                f"restart_window_s must be > 0, got {self.restart_window_s}"
            )
        for name in (
            "backoff_base_s",
            "backoff_cap_s",
            "backoff_jitter",
            "restart_budget",
            "max_redispatch",
        ):
            if getattr(self, name) < 0:
                raise ServerError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(eq=False, slots=True)
class ShardTask:
    """One unit of shard work: a coalesced batch's single execution.

    Built by the supervisor's ``source``, executed by the lane, possibly
    re-dispatched after a crash.  ``request`` is the
    :meth:`repro.session.Session.solve_many` mapping of the batch head,
    carrying the identity it was admitted under; ``plan`` is the plan the
    lane ran for it (:meth:`repro.session.Session.solve_one`);
    ``count`` is the number of coalesced client requests it answers (the
    fault injector advances its request ordinal by this much).  The task
    resolves **exactly once** — the first :meth:`complete` / :meth:`fail`
    wins, whichever thread makes it (lane, monitor, ``close()``) — and the
    winner calls ``on_done(task)``, where the server completes the tickets.
    A chaos ``drop`` fault resolves nothing: the monitor fails the task at
    its deadline.
    """

    request: dict
    mode: str | None
    deadline_at: float | None
    count: int = 1
    on_done: Callable[["ShardTask"], None] | None = None
    #: Executions started (first dispatch + re-dispatches).
    attempts: int = 0
    #: Set when a chaos drop fault discarded the computed response.
    dropped: bool = False
    #: True once a result or error was delivered; a done task still sitting
    #: in an inbox is skipped, not run late.
    done: bool = False
    result: Any = None
    error: BaseException | None = None
    plan: ResolvedPlan | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def complete(self, result: Any) -> bool:
        """Deliver the execution result; False when already resolved."""
        return self._resolve(result, None)

    def fail(self, error: BaseException) -> bool:
        """Deliver a failure; False when already resolved."""
        return self._resolve(None, error)

    def _resolve(self, result: Any, error: BaseException | None) -> bool:
        with self._lock:
            if self.done:
                return False
            self.done = True
        self.result, self.error = result, error
        if self.on_done is not None:
            self.on_done(self)
        return True


class ShardSupervisor:
    """One supervised execution lane over a borrowed session, and its monitor.

    The lane thread loops take → chaos hooks → execute → resolve.  It takes
    from its inbox (re-dispatched work) first, else from ``source(timeout)``
    — the next :class:`ShardTask`, or ``None`` after at most ``timeout``
    seconds (:class:`~repro.server.ReproServer` passes its admission
    queue's view) — where it also waits when idle.  Every task runs on
    ``session``, which the supervisor never closes.

    All mutable lane state (inbox, ``current`` task, crash counters) is
    guarded by one lock.  States: ``restarting`` (not started yet, or
    backing off after a crash), ``healthy`` (serving), ``dead`` (circuit
    open: more than ``restart_budget`` crashes inside the window).
    """

    def __init__(
        self,
        session: Session,
        *,
        source: Callable[[float], ShardTask | None],
        config: SupervisorConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.session = session
        self.source = source
        self.config = config if config is not None else SupervisorConfig()
        self.injector = FaultInjector(
            plan=fault_plan if fault_plan is not None else FaultPlan()
        )
        self._rng = random.Random()
        self._lock = threading.Lock()
        self._closed = False
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        #: ``restarting`` until started and while backing off, else
        #: ``healthy``; :attr:`state` reads ``dead`` over it while the
        #: circuit is open.
        self._phase = "restarting"
        self.inbox: deque[ShardTask] = deque()
        self.current: ShardTask | None = None
        self.consecutive_crashes = 0
        self.crash_times: deque[float] = deque()
        self.restarts = 0
        self.crashes = 0
        self.redispatches = 0
        self.dropped = 0
        #: Tasks the lane let go of without an answer (chaos drops); the
        #: monitor fails them at their deadline.
        self._unanswered: list[ShardTask] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        """Start the lane thread and the monitor; idempotent."""
        with self._lock:
            if self._closed:
                raise ServerError("cannot start a closed supervisor")
            if self._threads:
                return self
            self._phase = "healthy"
            self._threads = [
                threading.Thread(target=target, name=name, daemon=True)
                for target, name in (
                    (self._loop, "repro-shard-0"),
                    (self._monitor_loop, "repro-shard-monitor"),
                )
            ]
        for thread in self._threads:
            thread.start()
        return self

    def close(self) -> None:
        """Stop the lane and the monitor, fail every unanswered task."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            stranded = [*self.inbox, *self._unanswered]
            self.inbox.clear()
            self._unanswered.clear()
            if self.current is not None:
                stranded.append(self.current)
        self._stop.set()
        error = ServerError("shard shut down before the request completed")
        for task in stranded:
            task.fail(error)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)

    @property
    def circuit_open(self) -> bool:
        """True while more than ``restart_budget`` crashes sit in the window."""
        return self.state == "dead"

    @property
    def state(self) -> str:
        """``healthy``, ``restarting`` or ``dead`` (circuit open)."""
        with self._lock:
            return self._state(time.perf_counter())

    def _state(self, now: float) -> str:
        """Slide the crash window to ``now`` and read the state off it.

        The caller holds the lock.  ``dead`` while the window holds more
        than ``restart_budget`` crashes — which ends once it slides below.
        """
        window_start = now - self.config.restart_window_s
        while self.crash_times and self.crash_times[0] < window_start:
            self.crash_times.popleft()
        if len(self.crash_times) > self.config.restart_budget:
            return "dead"
        return self._phase

    # ------------------------------------------------------------------
    # The lane
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        """Serve tasks until closed, recovering from each crash in place."""
        while not self._stop.is_set():
            with self._lock:
                task = self.inbox.popleft() if self.inbox else None
            if task is None:
                # Idle: wait on the admission queue itself, so an admitted
                # request wakes this thread directly.
                task = self.source(IDLE_POLL_S)
            if task is None or task.done:
                continue
            with self._lock:
                dead = self._state(time.perf_counter()) == "dead"
                if not dead:
                    self.current = task
            if dead:
                task.fail(
                    ShardUnavailableError(
                        f"the shard exceeded its restart budget "
                        f"({self.config.restart_budget} crashes per "
                        f"{self.config.restart_window_s:g}s); retry later"
                    )
                )
                continue
            try:
                self._execute(task)
            except Exception as crash:  # noqa: BLE001 - every escape is a crash
                self._on_crash(task, crash)
            else:
                with self._lock:
                    self.current = None
                    self.consecutive_crashes = 0

    def _execute(self, task: ShardTask) -> None:
        """Run one task through the chaos hooks and the session."""
        task.attempts += 1
        faults = self.injector.take(task.count)
        drop = any(fault.kind == "drop" for fault in faults)
        kill = next((fault for fault in faults if fault.kind == "kill"), None)
        for fault in faults:
            if fault.kind == "slow":
                time.sleep(fault.sleep_s)
        if kill is not None:
            raise ShardCrashError(
                f"chaos kill fault on the shard (request ordinal {kill.at})"
            )
        try:
            # Past its deadline by now, the session itself refuses the task.
            task.plan, result = self.session.solve_one(
                task.request, task.mode, task.deadline_at
            )
        except (ShardCrashError, WorkerCrashError):
            raise  # shard-level crash: handled by the lane
        except Exception as error:  # noqa: BLE001 - delivered to the waiter
            task.fail(error)
            return
        if drop:
            # Chaos: the work happened, the response vanishes; the monitor
            # resolves the task at its deadline with DeadlineError.
            task.dropped = True
            with self._lock:
                self.dropped += 1
                self._unanswered.append(task)
            return
        task.complete(result)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def _on_crash(self, task: ShardTask, error: BaseException) -> None:
        """Count a crash, check the breaker, re-dispatch, back off, resume."""
        now = time.perf_counter()
        with self._lock:
            self.current = None
            self.crashes += 1
            self.consecutive_crashes += 1
            self.crash_times.append(now)
            tripped = self._state(now) == "dead"
            if not tripped:
                self._phase = "restarting"
                delay = self._backoff_delay(self.consecutive_crashes)
        if not task.done:
            self._redispatch(task, error)
        if tripped:
            return
        self._stop.wait(delay)
        with self._lock:
            self._phase = "healthy"
            self.restarts += 1

    def _backoff_delay(self, consecutive: int) -> float:
        """Jittered exponential delay after the Nth consecutive crash."""
        base = self.config.backoff_base_s * (2 ** max(0, consecutive - 1))
        delay = min(self.config.backoff_cap_s, base)
        return delay * (1.0 + self.config.backoff_jitter * self._rng.random())

    def _redispatch(self, task: ShardTask, error: BaseException) -> None:
        """Give a crashed task its bounded second chance."""
        if task.deadline_at is not None and time.perf_counter() > task.deadline_at:
            task.fail(
                DeadlineError(
                    f"request {task.request.get('app')!r} crashed with its "
                    f"shard and its deadline passed before re-dispatch"
                )
            )
            return
        if task.attempts > self.config.max_redispatch:
            task.fail(
                ShardCrashError(
                    f"request {task.request.get('app')!r} failed "
                    f"{task.attempts} times on a crashing shard "
                    f"(re-dispatch budget {self.config.max_redispatch}): {error}"
                )
            )
            return
        with self._lock:
            # Ahead of everything else the lane holds, unless it is gone.
            gone = self._closed or self._state(time.perf_counter()) == "dead"
            if not gone:
                self.inbox.appendleft(task)
                self.redispatches += 1
        if gone:
            task.fail(ShardUnavailableError("the shard is gone"))

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        """Fail every held task past its deadline, once a tick."""
        while not self._stop.wait(MONITOR_TICK_S):
            late = time.perf_counter() - DEADLINE_GRACE_S
            with self._lock:
                self._unanswered = [t for t in self._unanswered if not t.done]
                held = [*self.inbox, *self._unanswered]
                if self.current is not None:
                    held.append(self.current)
            for task in held:
                if task.deadline_at is not None and task.deadline_at < late:
                    task.fail(
                        DeadlineError(
                            f"request {task.request.get('app')!r} missed its "
                            f"deadline after {task.attempts} execution attempt(s)"
                            + (" (response dropped)" if task.dropped else "")
                        )
                    )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def info(self) -> dict:
        """JSON-safe supervision snapshot for ``/metrics`` and ``/readyz``."""
        faults = self.injector.info()
        with self._lock:
            lane = {
                "state": self._state(time.perf_counter()),
                "queued": len(self.inbox),
                "in_flight": self.current is not None,
                "dropped_responses": self.dropped,
                "restarts": self.restarts,
                "crashes": self.crashes,
                "redispatches": self.redispatches,
            }
        return {
            **lane,
            "faults_injected": faults["injected"],
            "faults": faults,
            "ready": lane["state"] == "healthy",
            "circuit_open": lane["state"] == "dead",
        }
