"""Supervision of the serving lane: heartbeats, restarts, re-dispatch.

A lane that dies mid-solve must not take the service down or lose the
request.  :class:`ShardSupervisor` owns one worker lane (the "shard": one
thread running on the server's own :class:`~repro.session.Session`) plus
one monitor thread.  An idle lane thread takes its next :class:`ShardTask`
straight from the supervisor's ``source`` (the server's admission queue)
and resolves it on the spot; its inbox only carries re-dispatched work.
Guarantees:

* **crash detection** — the lane is declared crashed when its loop raises
  :class:`~repro.core.exceptions.ShardCrashError` (injected kill) or
  :class:`~repro.core.exceptions.WorkerCrashError` (a broken
  multiprocessing pool under the session), when an idle lane misses its
  heartbeats, or when an executing lane hangs past the in-flight request's
  deadline plus a grace period;
* **automatic restart** — a crashed lane restarts under jittered
  exponential backoff; a restart-budget circuit breaker (too many crashes
  inside a sliding window) declares the lane ``dead`` instead of
  restarting it forever;
* **bounded re-dispatch** — the in-flight task of a crashed lane goes back
  to the front of its inbox (up to ``max_redispatch`` extra attempts).
  At-most-once *divergence* holds by construction: solving is
  deterministic, and with a persistent :class:`repro.cache.ResultCache`
  a retried request coalesces on the cache's leader/follower keys, so a
  retry never double-solves;
* **deadline enforcement** — the monitor fails every task the lane holds
  unanswered past its deadline with a typed
  :class:`~repro.core.exceptions.DeadlineError` (HTTP 504), which is also
  how a chaos ``drop`` fault (response discarded after solving) resolves;
  once the lane is dead it also takes what is still admitted and fails it
  :class:`~repro.core.exceptions.ShardUnavailableError`.

Chaos injection (:mod:`repro.server.faults`) hooks the lane loop between
dequeue and execution, which is what keeps injected kills at-most-once:
the fault fires *before* any solve starts.
"""

from __future__ import annotations

import queue
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
from repro.server.faults import FaultInjector, FaultPlan
from repro.session import Session

#: Extra seconds the monitor allows past the deadline before failing a task,
#: absorbing scheduler wake-up latency without weakening the guarantee.
DEADLINE_GRACE_S = 0.1


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs of one :class:`ShardSupervisor`.

    ``heartbeat_interval_s`` paces both the shard beats and the monitor;
    an *idle* shard missing ``missed_heartbeats`` consecutive beats is
    declared crashed, an *executing* shard only once its current task's
    deadline is exceeded by ``hang_grace_s`` (so long legitimate solves are
    never penalised).  Restart delays grow as
    ``backoff_base_s * 2^(consecutive crashes - 1)`` capped at
    ``backoff_cap_s``, with up to ``backoff_jitter`` relative jitter; more
    than ``restart_budget`` crashes inside ``restart_window_s`` trip the
    circuit breaker (shard state ``dead``).  ``max_redispatch`` bounds how
    many *extra* attempts a crashed shard's in-flight task gets.
    """

    heartbeat_interval_s: float = 0.1
    missed_heartbeats: int = 5
    hang_grace_s: float = 0.5
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_jitter: float = 0.25
    restart_budget: int = 5
    restart_window_s: float = 30.0
    max_redispatch: int = 2

    def __post_init__(self) -> None:
        """Validate the knobs once, at construction."""
        for name in ("heartbeat_interval_s", "restart_window_s"):
            if getattr(self, name) <= 0:
                raise ServerError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.missed_heartbeats < 1:
            raise ServerError(
                f"missed_heartbeats must be >= 1, got {self.missed_heartbeats}"
            )
        for name in (
            "hang_grace_s",
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
    :meth:`repro.session.Session.solve_many` mapping of the batch head;
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

    The lane thread loops take → chaos hooks → execute → resolve, beating
    ``last_beat`` between tasks.  It takes from its inbox (re-dispatched
    work) first, else from ``source(timeout)`` — the next
    :class:`ShardTask`, or ``None`` after at most ``timeout`` seconds
    (:class:`~repro.server.ReproServer` passes its admission queue's view) —
    where it also waits when idle.  Every task runs on ``session``, which
    the supervisor never closes.

    All mutable lane state (inbox, ``current`` task, ``state``, ``epoch``,
    crash counters) is guarded by one lock.  The ``epoch`` counter retires
    superseded threads: a thread that wakes from a hang after the monitor
    already restarted the lane (or :meth:`close` retired it) sees a stale
    epoch and exits untouched.  States: ``restarting`` (not started yet, or
    crashed and waiting out its backoff), ``healthy`` (thread serving),
    ``dead`` (restart budget exhausted — circuit open).
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
        self._started = False
        self._closed = False
        self._thread: threading.Thread | None = None
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        self.state = "restarting"  # becomes healthy on start()
        self.epoch = 0
        self.inbox: deque[ShardTask] = deque()
        self.current: ShardTask | None = None
        self.last_beat = time.perf_counter()
        self.restart_at = 0.0
        self.consecutive_crashes = 0
        self.crash_times: deque[float] = deque()
        self.restarts = 0
        self.crashes = 0
        self.redispatches = 0
        self.dropped = 0
        #: Tasks the lane let go of without an answer (chaos drops); the
        #: monitor fails them at their deadline.
        self._unanswered: queue.SimpleQueue[ShardTask] = queue.SimpleQueue()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        """Start the lane thread and the monitor; idempotent."""
        with self._lock:
            if self._closed:
                raise ServerError("cannot start a closed supervisor")
            if self._started:
                return self
            self._started = True
        self._spawn()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def close(self) -> None:
        """Retire the lane, stop the monitor, fail every unanswered task."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.epoch += 1  # retire any live or hung thread
            stranded = list(self.inbox)
            self.inbox.clear()
            if self.current is not None:
                stranded.append(self.current)
                self.current = None
            thread = self._thread
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        error = ServerError("shard shut down before the request completed")
        for task in stranded:
            task.fail(error)
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        while not self._unanswered.empty():
            self._unanswered.get().fail(error)

    @property
    def ready(self) -> bool:
        """True while the lane is healthy."""
        return self.state == "healthy"

    @property
    def circuit_open(self) -> bool:
        """True once the lane is dead (restart budget exhausted)."""
        return self.state == "dead"

    def _spawn(self, restart: bool = False) -> None:
        """Spawn (or respawn) the lane thread under a fresh epoch."""
        with self._lock:
            if self._closed:
                return
            self.epoch += 1
            self.state = "healthy"
            self.last_beat = time.perf_counter()
            if restart:
                self.restarts += 1
            self._thread = threading.Thread(
                target=self._loop,
                args=(self.epoch,),
                name=f"repro-shard-0-e{self.epoch}",
                daemon=True,
            )
            self._thread.start()

    # ------------------------------------------------------------------
    # The lane
    # ------------------------------------------------------------------
    def _loop(self, epoch: int) -> None:
        """Serve tasks until superseded or closed, beating in between."""
        interval = self.config.heartbeat_interval_s / 2
        while True:
            with self._lock:
                if self.epoch != epoch:
                    return
                self.last_beat = time.perf_counter()
                task = self.inbox.popleft() if self.inbox else None
            if task is None:
                # Idle: wait on the admission queue itself, half a beat at a
                # time, so an admitted request wakes this thread directly.
                task = self.source(interval)
            if task is None or task.done:
                continue
            with self._lock:
                live = self.epoch == epoch
                if live:
                    self.current = task
            if not live:
                # Retired while it waited: hand the unstarted task on.
                self._redispatch(task, ShardCrashError("the shard was retired"))
                return
            try:
                self._execute(task, epoch)
            except (ShardCrashError, WorkerCrashError) as crash:
                self._on_crash(task, crash, epoch)
                return
            finally:
                with self._lock:
                    if self.epoch == epoch:
                        self.current = None
                        self.last_beat = time.perf_counter()

    def _stale(self, epoch: int) -> bool:
        """True when this thread was superseded by a restart or a close."""
        with self._lock:
            return self.epoch != epoch

    def _execute(self, task: ShardTask, epoch: int) -> None:
        """Run one task through the chaos hooks and the session."""
        task.attempts += 1
        faults = self.injector.take(task.count)
        drop = any(fault.kind == "drop" for fault in faults)
        kill = next((fault for fault in faults if fault.kind == "kill"), None)
        for fault in faults:
            if fault.kind in ("slow", "hang"):
                time.sleep(fault.sleep_s)
        if self._stale(epoch):
            # A hang outlived this thread: the monitor restarted the lane
            # and re-dispatched the task — leave it to the new epoch.
            return
        if kill is not None:
            raise ShardCrashError(
                f"chaos kill fault on the shard (request ordinal {kill.at})"
            )
        try:
            # Past its deadline by now, the session itself refuses the task.
            result = self.session.solve_many(
                [task.request], mode=task.mode, deadline_at=task.deadline_at
            )[0]
        except (ShardCrashError, WorkerCrashError):
            raise  # shard-level crash: handled by the loop / supervisor
        except Exception as error:  # noqa: BLE001 - delivered to the waiter
            task.fail(error)
            return
        if self._stale(epoch):
            return
        if drop:
            # Chaos: the work happened, the response vanishes; the monitor
            # resolves the task at its deadline with DeadlineError.
            task.dropped = True
            with self._lock:
                self.dropped += 1
            self._unanswered.put(task)
            return
        task.complete(result)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def _on_crash(
        self, task: ShardTask | None, error: BaseException, epoch: int
    ) -> None:
        """Handle one lane crash: retire, back off or trip, re-dispatch."""
        now = time.perf_counter()
        with self._lock:
            if self.epoch != epoch:
                return  # already handled (monitor and loop can race here)
            self.epoch += 1  # retire the crashed/hung thread
            self.current = None
            self.crashes += 1
            self.consecutive_crashes += 1
            self.crash_times.append(now)
            window = self.config.restart_window_s
            while self.crash_times and self.crash_times[0] < now - window:
                self.crash_times.popleft()
            if len(self.crash_times) > self.config.restart_budget:
                self.state = "dead"
                stranded = list(self.inbox)
                self.inbox.clear()
            else:
                self.state = "restarting"
                self.restart_at = now + self._backoff_delay(self.consecutive_crashes)
                stranded = []
        breaker = ShardUnavailableError(
            f"the shard exceeded its restart budget "
            f"({self.config.restart_budget} crashes per "
            f"{self.config.restart_window_s:g}s)"
        )
        for queued in stranded:
            queued.fail(breaker)
        if task is not None and not task.done:
            self._redispatch(task, error)

    def _backoff_delay(self, consecutive: int) -> float:
        """Jittered exponential restart delay for the Nth consecutive crash."""
        base = self.config.backoff_base_s * (2 ** max(0, consecutive - 1))
        delay = min(self.config.backoff_cap_s, base)
        return delay * (1.0 + self.config.backoff_jitter * self._rng.random())

    def _redispatch(self, task: ShardTask, error: BaseException) -> None:
        """Give a crashed lane's in-flight task its bounded second chance."""
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
            gone = self._closed or self.state == "dead"
            if not gone:
                self.inbox.appendleft(task)
                self.redispatches += 1
        if gone:
            task.fail(ShardUnavailableError("the shard is gone"))

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        """Detect a hung/silent lane, restart it, expire deadlines.

        Once the lane is dead nothing is left to drain the source, so the
        monitor takes what is still admitted and fails it typed (the
        server's ``on_done`` may then degrade-serve it).
        """
        interval = self.config.heartbeat_interval_s
        while not self._monitor_stop.is_set():
            if self.circuit_open:
                task = self.source(interval)
                if task is not None:
                    reason = "no shard can accept work: its restart budget is exhausted"
                    task.fail(ShardUnavailableError(reason + "; retry later"))
            else:
                self._monitor_stop.wait(interval)
            now = time.perf_counter()
            self._check_lane(now)
            for _ in range(self._unanswered.qsize()):
                task = self._unanswered.get()
                if not self._expire(task, now):
                    self._unanswered.put(task)

    @staticmethod
    def _expire(task: ShardTask, now: float) -> bool:
        """Fail ``task`` typed once past deadline + grace; True when done."""
        if (
            not task.done
            and task.deadline_at is not None
            and now > task.deadline_at + DEADLINE_GRACE_S
        ):
            task.fail(
                DeadlineError(
                    f"request {task.request.get('app')!r} missed its deadline "
                    f"after {task.attempts} execution attempt(s)"
                    + (" (response dropped)" if task.dropped else "")
                )
            )
        return task.done

    def _check_lane(self, now: float) -> None:
        """One monitor tick."""
        with self._lock:
            state = self.state
            epoch = self.epoch
            current = self.current
            last_beat = self.last_beat
            restart_at = self.restart_at
            held = list(self.inbox)
        if current is not None:
            held.append(current)
        for task in held:
            self._expire(task, now)
        if state == "restarting":
            if now >= restart_at:
                self._spawn(restart=True)
            return
        if state != "healthy":
            return
        config = self.config
        if current is not None:
            # An executing lane is only hung once its task's deadline is
            # exceeded by the grace period — long legitimate solves within
            # deadline are never penalised.
            deadline_at = current.deadline_at
            if deadline_at is not None and now > deadline_at + config.hang_grace_s:
                self._on_crash(
                    current,
                    ShardCrashError("the shard hung past the request deadline"),
                    epoch,
                )
            return
        if now - last_beat > config.missed_heartbeats * config.heartbeat_interval_s:
            self._on_crash(
                None,
                ShardCrashError(
                    f"the shard missed {config.missed_heartbeats} heartbeats"
                ),
                epoch,
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def info(self) -> dict:
        """JSON-safe supervision snapshot for ``/metrics`` and ``/readyz``."""
        faults = self.injector.info()
        with self._lock:
            lane = {
                "state": self.state,
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

