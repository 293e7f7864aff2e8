"""The serving core: :class:`ReproServer` over one session, run to completion.

Architecture: a request is served on the thread that admits it — an HTTP
connection thread, or whoever calls :meth:`ReproServer.submit` in
process::

    caller thread                                                       session
    -------------                                                       -------
    submit() --admission--> memory-tier hit? --yes--> answered
        |   BackpressureError      | no
        |   (queue_capacity)       v
        |                    chaos faults --> solve_one(deadline) --> run lock --> sweep
        |                          ^                                   (waits no   (checks the
        |                          +-- crash: count, breaker,           later than  deadline per
        |                              backoff, re-run                  the deadline) row / diagonal)
        v
    ticket (resolved) <-- complete() / fail()

``start()`` marks the server ready and starts no thread; ``close()`` drains
and stops what is left.  A request is named once, at admission
(:attr:`ServeRequest.identity`, default ``dim`` filled in); the session
plans by that name and the plan it ran goes to the adaptive loop.  The
server adds four behaviours on top of
:meth:`repro.session.Session.solve_one`:

* **admission control** — at most ``queue_capacity`` admitted requests are
  unfinished at once; one more is refused with a typed backpressure error
  instead of adding latency without bound.  Memory-tier hits are answered
  at admission (:meth:`repro.session.Session.serve_from_memory`) and
  count against nothing;
* **deadlines that stop the work** — every admitted request carries a
  :class:`~repro.runtime.executor_base.Deadline` (``math.inf`` when it has
  none).  The wait for the session's run lock ends at it, and the sweep
  checks it once per row, diagonal or released region, so a request past
  its deadline fails with :class:`~repro.core.exceptions.DeadlineError`
  and frees the run lock for the next one.  A stopped solve caches
  nothing;
* **supervision** — every exception that escapes a solve attempt is a
  crash (:class:`~repro.core.exceptions.ShardCrashError` from a chaos
  ``kill``, :class:`~repro.core.exceptions.WorkerCrashError` from a broken
  worker team, anything else).  The thread counts it, checks the breaker,
  backs off (jittered, exponential in the crashes since the last clean
  solve) and re-runs the request, up to :data:`MAX_REDISPATCH` extra
  attempts.  More than :data:`RESTART_BUDGET` crashes inside
  :data:`RESTART_WINDOW_S` open the breaker (state ``dead``): admission
  sheds load until the window slides below the budget.  Chaos faults
  (:mod:`repro.server.faults`) fire before the solve, which keeps kills
  at-most-once;
* **observability and lifecycle** — per-request/aggregate metrics as JSON
  (:mod:`repro.server.metrics`) and graceful drain/shutdown.
"""

from __future__ import annotations

import math
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from numbers import Real
from typing import Any

from repro.adaptive.controller import ADAPTIVE_MODES, AdaptiveController
from repro.adaptive.drift import DriftConfig
from repro.apps.registry import default_dim
from repro.cache.keys import RequestIdentity, request_identity
from repro.core.exceptions import (
    BackpressureError,
    DeadlineError,
    InvalidParameterError,
    ServerError,
    ShardCrashError,
    ShardUnavailableError,
    WorkerCrashError,
)
from repro.runtime.executor_base import Deadline, ExecutionMode
from repro.server.faults import FaultInjector, FaultPlan
from repro.server.metrics import ServerMetrics
from repro.session import Session

#: Default bound of admitted, unfinished requests (admission control).
DEFAULT_QUEUE_CAPACITY = 64
#: Default per-request deadline (seconds) when the client sends none.
DEFAULT_DEADLINE_S = 30.0
#: The longest wait (seconds) a limit may set: ``threading`` waits overflow
#: past ``threading.TIMEOUT_MAX``.
MAX_WAIT_S = threading.TIMEOUT_MAX / 2
#: Seconds :meth:`ReproServer.close` lets in-flight requests finish before
#: it stops them.
DRAIN_TIMEOUT_S = 30.0
#: Seconds :meth:`ReproServer.close` then waits for the stopped requests to
#: leave the session.
_STOP_TIMEOUT_S = 2.0
#: The backoff before re-running a request after the Nth crash since the
#: last clean solve: ``BACKOFF_BASE_S * 2^(N-1)`` capped at
#: ``BACKOFF_CAP_S``, plus up to ``BACKOFF_JITTER`` relative jitter.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
BACKOFF_JITTER = 0.25
#: More than ``RESTART_BUDGET`` crashes inside ``RESTART_WINDOW_S`` seconds
#: open the circuit breaker until the window slides below the budget.
RESTART_BUDGET = 5
RESTART_WINDOW_S = 30.0
#: Extra attempts a crashed request gets before it fails.
MAX_REDISPATCH = 2
#: The failure message of a request the server closed on before answering it.
SHUT_DOWN = "shard shut down before the request completed"


def finite_seconds(name: str, value, error: type[Exception] = InvalidParameterError) -> float:
    """``value`` as a wait in seconds, or ``error`` naming ``name``.

    The one check of every serving limit an operator or client sets: a
    number in ``(0, MAX_WAIT_S)``.  NaN, infinities and booleans are
    refused, so no limit can overflow a wait or silently never fire.
    """
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < MAX_WAIT_S:
        raise error(f"{name} must be a finite number of seconds > 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`ReproServer`.

    ``queue_capacity`` bounds admitted, unfinished requests (one more is
    rejected with backpressure).

    ``default_deadline_s`` is the per-request deadline applied when the
    client sends none (``None`` disables the default — requests without an
    explicit deadline then run to completion); it is finite seconds
    (:func:`finite_seconds`).

    ``adaptive`` switches the online observation loop
    (:data:`repro.adaptive.ADAPTIVE_MODES`): ``"off"`` builds no
    controller, ``"on"`` (the default) observes latencies and detects
    drift without ever changing the plan traffic runs.
    """

    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    default_deadline_s: float | None = DEFAULT_DEADLINE_S
    adaptive: str = "on"

    def __post_init__(self) -> None:
        """Validate the knobs once, at construction."""
        if self.queue_capacity < 1:
            raise ServerError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.default_deadline_s is not None:
            finite_seconds("default_deadline_s", self.default_deadline_s, ServerError)
        if self.adaptive not in ADAPTIVE_MODES:
            raise ServerError(
                f"adaptive must be one of {ADAPTIVE_MODES}, got {self.adaptive!r}"
            )


@dataclass(eq=False)
class ServeRequest:
    """One admitted request and its completion state: the ticket.

    Returned by :meth:`ReproServer.submit`, answered or failed by then
    unless a chaos ``drop`` discarded its answer.  The ticket resolves
    **exactly once**: the first :meth:`complete` / :meth:`fail` /
    :meth:`cancel` wins, whoever makes it (the solving thread, the waiter
    at its deadline, a cancelling client, shutdown), and only the winner
    records the outcome in :attr:`metrics`, before the waiter wakes.
    """

    app: str
    dim: int | None
    mode: str | None
    plan_kwargs: dict
    #: ``time.perf_counter()`` at admission: where its latency starts.
    enqueued_at: float
    #: Absolute ``time.perf_counter()`` deadline; ``None`` means unbounded.
    deadline_at: float | None = None
    #: The server's :class:`~repro.server.metrics.ServerMetrics`, which the
    #: resolving call records the outcome in (``None``: nothing records).
    metrics: ServerMetrics | None = field(default=None, repr=False)
    #: The request's :class:`~repro.cache.RequestIdentity` without its
    #: mode: the key the session's plan cache and result tiers look it up
    #: under.  Fixed once, at admission.
    identity: RequestIdentity = field(init=False)
    #: :attr:`identity` with the mode: the label ``/metrics`` and the
    #: adaptive loop give the request's traffic class.
    signature: RequestIdentity = field(init=False)
    #: What the solve checks: :attr:`deadline_at` (``math.inf`` without
    #: one), which :meth:`ReproServer.close` moves to the past.
    deadline: Deadline = field(init=False, repr=False)
    #: Set when a chaos ``drop`` fault discarded the answer.
    dropped: bool = field(default=False, repr=False)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _result: Any = field(default=None, repr=False)
    _error: BaseException | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        """Name the request once, at admission time.

        A value the identity cannot canonicalise raises a typed
        :class:`~repro.core.exceptions.InvalidParameterError` here, before
        the request is admitted.
        """
        app_kwargs = dict(self.plan_kwargs)
        policy = app_kwargs.pop("policy", None)
        self.identity = request_identity(self.app, self.dim, app_kwargs, policy)
        self.signature = self.identity._replace(mode=self.mode)
        self.deadline = Deadline(math.inf if self.deadline_at is None else self.deadline_at)

    # ------------------------------------------------------------------
    def as_request(self) -> dict:
        """The :meth:`repro.session.Session.solve_one` mapping form, named."""
        return {
            "app": self.app,
            "dim": self.dim,
            "identity": self.identity,
            **self.plan_kwargs,
        }

    @property
    def done(self) -> bool:
        """True once the ticket is resolved."""
        return self._done.is_set()

    def cancel(self) -> bool:
        """Abandon the request; return whether it was still pending.

        A pending ticket resolves at once with a
        :class:`~repro.core.exceptions.ServerError` and counts as
        cancelled.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self._error = ServerError("request was cancelled by its client")
            if self.metrics is not None:
                self.metrics.record_cancelled()
            self._done.set()
        return True

    def complete(self, result: Any) -> bool:
        """Deliver the result and wake the waiter; False when already resolved.

        Like every resolution, it is counted before the waiter wakes.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self._result = result
            if self.metrics is not None:
                self.metrics.record_completed(
                    time.perf_counter() - self.enqueued_at, signature=self.signature
                )
            self._done.set()
        return True

    def fail(self, error: BaseException) -> bool:
        """Deliver a failure and wake the waiter; False when already resolved.

        A :class:`~repro.core.exceptions.DeadlineError` also counts in
        ``deadline_expired``.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self._error = error
            if self.metrics is not None:
                self.metrics.record_failed(
                    time.perf_counter() - self.enqueued_at,
                    deadline_expired=isinstance(error, DeadlineError),
                )
            self._done.set()
        return True

    def result(self, timeout: float | None = None) -> Any:
        """Return or re-raise the request's outcome, waiting if it has none yet.

        Only a ticket whose answer a chaos ``drop`` discarded waits: its
        waiter fails it with a :class:`~repro.core.exceptions.DeadlineError`
        at :attr:`deadline_at` (unless :meth:`ReproServer.close` failed it
        first).  A ``timeout`` that ends before the deadline raises
        :class:`~repro.core.exceptions.ServerError` and leaves the ticket
        pending.
        """
        remaining = None
        if self.deadline_at is not None:
            remaining = max(0.0, self.deadline_at - time.perf_counter())
        if timeout is not None and (remaining is None or timeout < remaining):
            if not self._done.wait(timeout):
                raise ServerError(
                    f"request {self.app}[dim={self.dim}] did not complete "
                    f"within {timeout:g}s"
                )
        elif not self._done.wait(remaining):
            self.fail(
                DeadlineError(
                    f"request {self.app}[dim={self.dim}] missed its deadline"
                    + (" (response dropped)" if self.dropped else "")
                )
            )
        if self._error is not None:
            raise self._error
        return self._result


class ReproServer:
    """Admission-controlled, supervised front-end over one :class:`~repro.session.Session`.

    The server *borrows* the session by default (closing the server leaves
    the session usable); pass ``own_session=True`` to transfer ownership so
    :meth:`close` also releases the session's engines and worker pools —
    the CLI's ``repro serve`` does exactly that.  ``fault_plan`` arms chaos
    injection (:class:`~repro.server.faults.FaultPlan`); ``drift`` sets the
    adaptive loop's detector thresholds (:class:`repro.adaptive.DriftConfig`
    defaults otherwise).

    Use as a context manager for deterministic teardown::

        with ReproServer(session, ServerConfig(queue_capacity=16)) as server:
            result = server.solve("lcs", 256, deadline_s=30)
    """

    def __init__(
        self,
        session: Session,
        config: ServerConfig | None = None,
        *,
        own_session: bool = False,
        fault_plan: FaultPlan | None = None,
        drift: DriftConfig | None = None,
    ) -> None:
        self.session = session
        self.config = config if config is not None else ServerConfig()
        self.metrics_store = ServerMetrics()
        self._own_session = own_session
        self._injector = FaultInjector(
            plan=fault_plan if fault_plan is not None else FaultPlan()
        )
        # Under a chaos plan every request reaches the solve, so a fault's
        # ordinal counts requests, not only the memory tier's misses.
        self._armed = len(self._injector.plan) > 0
        # The online tuning loop, with the drift detector's thresholds;
        # "off" builds nothing and costs nothing on the serving path.
        self.adaptive: AdaptiveController | None = None
        if self.config.adaptive != "off":
            self.adaptive = AdaptiveController(drift)
        # Lifecycle, the admitted requests and the crash record, all guarded
        # by one lock; ``_idle`` is notified when the last admitted request
        # leaves.
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._started = self._draining = self._closed = False
        self._stop = threading.Event()
        self._solving: set[ServeRequest] = set()
        # Tickets whose answer a chaos ``drop`` discarded: only their waiter
        # (at the deadline) or close() resolves them.
        self._dropped: list[ServeRequest] = []
        self._rng = random.Random()
        self._backing_off = 0
        self._consecutive_crashes = 0
        self._crash_times: deque[float] = deque()
        self._counts = dict.fromkeys(
            ("dropped_responses", "restarts", "crashes", "redispatches"), 0
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Mark the server ready (it starts no thread); idempotent until :meth:`close`."""
        with self._lock:
            if self._closed:
                raise ServerError("cannot start a closed server")
            self._started = True
            return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admission and wait for the admitted requests to finish.

        Returns ``True`` when every one finished within ``timeout``
        (default :data:`DRAIN_TIMEOUT_S`).  A ticket whose answer a chaos
        ``drop`` discarded has finished: no work is left to wait for.  The
        server cannot admit requests afterwards.
        """
        timeout = timeout if timeout is not None else DRAIN_TIMEOUT_S
        with self._lock:
            self._draining = True
            return self._idle.wait_for(lambda: not self._solving, timeout)

    def close(self) -> None:
        """Graceful shutdown: drain, stop what is left, release owned resources.

        Safe to call more than once.  Requests still running after the drain
        timeout, and dropped ones still unanswered, are failed with
        :class:`~repro.core.exceptions.ServerError` so no client blocks
        forever; a running sweep stops at its next deadline check, and a
        crashed request backing off runs nothing more.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.drain()
        with self._lock:
            self._stop.set()
            stranded = [*self._solving, *self._dropped]
            self._dropped = []
        error = ServerError(SHUT_DOWN)
        for request in stranded:
            request.fail(error)
            request.deadline.expire()
        with self._lock:
            self._idle.wait_for(lambda: not self._solving, _STOP_TIMEOUT_S)
        if self._own_session:
            self.session.close()

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`close`."""
        with self._lock:
            return self._started and not self._closed

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(
        self,
        app: str,
        dim: int | None = None,
        mode: str | None = None,
        deadline_s: float | None = None,
        **plan_kwargs,
    ) -> ServeRequest:
        """Admit one request and serve it on this thread; return its ticket.

        The ticket comes back resolved — answered, or failed with a typed
        error — unless a chaos ``drop`` discarded the answer (its
        :meth:`ServeRequest.result` then fails at the deadline).
        A memory-tier result-cache hit is answered without admission (unless
        a fault plan is armed).  Raises
        :class:`~repro.core.exceptions.BackpressureError` when
        ``queue_capacity`` requests are already admitted and unfinished
        (its :class:`~repro.core.exceptions.ShardUnavailableError` subclass
        while the circuit breaker is open) and
        :class:`~repro.core.exceptions.ServerError` once the server is
        draining.  ``deadline_s`` bounds the request end-to-end (default:
        the config's ``default_deadline_s``); one that is not finite
        seconds > 0 (:func:`finite_seconds`) is an
        :class:`~repro.core.exceptions.InvalidParameterError`, so a client
        cannot lift the operator's deadline.  ``plan_kwargs`` forward to
        :meth:`repro.session.Session.solve` (``policy=`` and application
        constructor overrides).  ``mode`` defaults to the session's and
        ``dim`` the application's default, both filled in here so an
        omitted and an explicit default are one request (one ``/metrics``
        label).  The request's identity (:func:`repro.cache.request_identity`)
        is fixed here, once: the memory-tier lookup, the session's plan
        lookup and the adaptive loop all read it.  A value it cannot
        canonicalise, or an unknown mode, is a typed
        :class:`~repro.core.exceptions.InvalidParameterError`; an unknown
        application without a ``dim`` is an
        :class:`~repro.core.exceptions.UnknownApplicationError`.
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        else:
            deadline_s = finite_seconds("deadline_s", deadline_s)
        now = time.perf_counter()
        # Without a crash on record the breaker is closed: no lock to take.
        if self._crash_times and self._state() == "dead":
            self.metrics_store.record_rejected()
            raise ShardUnavailableError(
                "no healthy shard available (restart budget exhausted); "
                "shedding load — retry later"
            )
        request = ServeRequest(
            app=app,
            dim=default_dim(app) if dim is None else dim,
            mode=(
                self.session.mode if mode is None else ExecutionMode.coerce(mode)
            ).value,
            plan_kwargs=plan_kwargs,
            enqueued_at=now,
            deadline_at=None if deadline_s is None else now + deadline_s,
            metrics=self.metrics_store,
        )
        # A memory hit never waits for the run lock, nor reaches the
        # adaptive loop (nothing ran).  A draining server skips the lookup,
        # so it refuses hits and misses alike.
        if not (self._armed or self._draining):
            hit = self.session.serve_from_memory(
                app, request.dim, request.mode, identity=request.identity, **plan_kwargs
            )
            if hit is not None:
                self.metrics_store.record_accepted()
                request.complete(hit)
                return request
        self._admit(request)
        try:
            self._serve(request)
        finally:
            with self._lock:
                self._solving.discard(request)
                if not self._solving:
                    self._idle.notify_all()
        return request

    def solve(
        self,
        app: str,
        dim: int | None = None,
        mode: str | None = None,
        timeout: float | None = None,
        deadline_s: float | None = None,
        **plan_kwargs,
    ):
        """Submit and return the result (or raise its typed failure).

        The deadline (explicit ``deadline_s`` or the config default) stops
        the solve with a :class:`~repro.core.exceptions.DeadlineError`;
        ``timeout`` only bounds the wait for a dropped answer.
        """
        ticket = self.submit(app, dim, mode, deadline_s=deadline_s, **plan_kwargs)
        return ticket.result(timeout)

    def _admit(self, request: ServeRequest) -> None:
        """Count ``request`` in, or refuse it: draining, or at capacity."""
        with self._lock:
            if self._draining:
                raise ServerError("server is shutting down; request not admitted")
            full = len(self._solving) >= self.config.queue_capacity
            if not full:
                self._solving.add(request)
                self.metrics_store.record_admitted()
        if full:
            self.metrics_store.record_rejected()
            raise BackpressureError(
                f"server is full ({self.config.queue_capacity} requests admitted); "
                "retry with backoff or reduce the offered load"
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """The JSON-safe metrics snapshot (``GET /metrics`` payload).

        ``queue`` is the session's run lock: the requests waiting for it
        now, the most ever at once, and this server's admission bound.
        """
        return self.metrics_store.snapshot(
            queue_depth=self.session.run_waiters,
            queue_capacity=self.config.queue_capacity,
            queue_high_water=self.session.run_waiters_high_water,
            caches=self.session.cache_info(),
            cache=(
                self.session.result_cache.info()
                if self.session.result_cache is not None
                else None
            ),
            supervisor=self._supervision(),
            adaptive=(
                self.adaptive.snapshot() if self.adaptive is not None else None
            ),
        )

    def readiness(self) -> dict:
        """The ``GET /readyz`` payload: the supervision snapshot.

        ``ready`` is true while the server runs and is healthy; external
        probes should route traffic away on 503.
        """
        info = self._supervision()
        running = self.running
        return {**info, "ready": running and info["ready"], "running": running}

    def _supervision(self) -> dict:
        """The ``/metrics`` ``supervisor`` section: state and counters."""
        faults = self._injector.info()
        with self._lock:
            state = self._state_locked(time.perf_counter())
            counts = {"state": state, "in_flight": len(self._solving), **self._counts}
        return {
            **counts,
            "faults_injected": faults["injected"],
            "faults": faults,
            "ready": state == "healthy",
            "circuit_open": state == "dead",
        }

    def _state(self) -> str:
        """``healthy``, ``restarting`` or ``dead`` (circuit open)."""
        with self._lock:
            return self._state_locked(time.perf_counter())

    def _state_locked(self, now: float) -> str:
        """Slide the crash window to ``now`` and read the state off it.

        The caller holds the lock.  ``dead`` while the window holds more
        than :data:`RESTART_BUDGET` crashes — which ends once it slides
        below; ``restarting`` while a crashed request backs off.
        """
        window_start = now - RESTART_WINDOW_S
        while self._crash_times and self._crash_times[0] < window_start:
            self._crash_times.popleft()
        if len(self._crash_times) > RESTART_BUDGET:
            return "dead"
        return "restarting" if self._backing_off else "healthy"

    # ------------------------------------------------------------------
    # Serving one request
    # ------------------------------------------------------------------
    def _serve(self, request: ServeRequest) -> None:
        """Run one admitted request until it is resolved, recovering crashes in place."""
        attempts = 0
        while True:
            attempts += 1
            try:
                self._execute(request)
            except Exception as crash:  # noqa: BLE001 - every escape is a crash
                if self._on_crash(request, attempts, crash):
                    continue
            else:
                with self._lock:
                    self._consecutive_crashes = 0
            return

    def _execute(self, request: ServeRequest) -> None:
        """One attempt at a request: chaos hooks, the solve, delivery."""
        taken_at = time.perf_counter()
        request.deadline.waited_s = 0.0
        drop = self._armed and self._inject_faults()
        try:
            # Past its deadline by now, the session itself refuses the request.
            plan, result = self.session.solve_one(
                request.as_request(), request.mode, request.deadline
            )
        except (ShardCrashError, WorkerCrashError):
            raise  # a crash: recovered by _serve
        except Exception as error:  # noqa: BLE001 - delivered to the waiter
            request.fail(error)
            return
        if drop:
            # Chaos: the work happened, the answer vanishes; the waiter
            # fails the ticket at its deadline.
            request.dropped = True
            with self._lock:
                self._counts["dropped_responses"] += 1
                self._dropped = [held for held in self._dropped if not held.done]
                self._dropped.append(request)
            return
        # Callers must treat a shared ExecutionResult as read-only, which
        # every shipped consumer (HTTP payload, verification, metrics) does.
        request.complete(result)
        if self.adaptive is not None:
            # The wait for the run lock is another request's service time.
            self.adaptive.observe(
                request.signature,
                plan.expected_s,
                time.perf_counter() - taken_at - request.deadline.waited_s,
            )

    def _inject_faults(self) -> bool:
        """Fire the faults due at this attempt; return whether to drop its answer.

        A ``slow`` fault sleeps here; a ``kill`` raises
        :class:`~repro.core.exceptions.ShardCrashError` before any solve.
        """
        faults = self._injector.take()
        for fault in faults:
            if fault.kind == "slow":
                time.sleep(fault.sleep_s)
        for fault in faults:
            if fault.kind == "kill":
                raise ShardCrashError(
                    f"chaos kill fault on the shard (request ordinal {fault.at})"
                )
        return any(fault.kind == "drop" for fault in faults)

    def _on_crash(
        self, request: ServeRequest, attempts: int, crash: BaseException
    ) -> bool:
        """Count a crash, check the breaker, settle the request, back off.

        Returns whether the request gets another attempt; otherwise it is
        failed (unless it was answered before the crash) and nothing waits.
        Once the server is closing, nothing is re-run.
        """
        now = time.perf_counter()
        stopping = self._stop.is_set()
        with self._lock:
            self._counts["crashes"] += 1
            self._consecutive_crashes += 1
            self._crash_times.append(now)
            tripped = self._state_locked(now) == "dead"
            delay = min(
                BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (self._consecutive_crashes - 1)
            ) * (1.0 + BACKOFF_JITTER * self._rng.random())
        error: BaseException | None = None
        if request.done:
            pass  # answered before the crash: nothing to re-run
        elif request.deadline_at is not None and now > request.deadline_at:
            error = DeadlineError(
                f"request {request.app!r} crashed with its shard and its deadline "
                "passed before re-dispatch"
            )
        elif stopping:
            error = ServerError(SHUT_DOWN)
        elif attempts > MAX_REDISPATCH:
            error = ShardCrashError(
                f"request {request.app!r} failed {attempts} times on a crashing "
                f"shard (re-dispatch budget {MAX_REDISPATCH}): {crash}"
            )
        elif tripped:
            error = ShardUnavailableError("the shard is gone")
        if error is not None or request.done:
            if error is not None:
                request.fail(error)
            if not tripped:
                with self._lock:
                    self._counts["restarts"] += 1
            return False
        with self._lock:
            self._backing_off += 1
        # A close() during the backoff wakes it, and has failed the request.
        retry = not self._stop.wait(delay)
        with self._lock:
            self._backing_off -= 1
            self._counts["restarts"] += 1
            self._counts["redispatches"] += retry
        return retry
