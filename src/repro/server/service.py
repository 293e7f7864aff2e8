"""The serving core: :class:`ReproServer` over one session, run to completion.

Architecture: a request is served on the thread that admits it — an HTTP
connection thread, or whoever calls :meth:`ReproServer.submit` in
process — and resolved there, before ``submit`` returns::

    caller thread                                                       session
    -------------                                                       -------
    submit() --admission--> memory-tier hit? --yes--> answered
        |   BackpressureError      | no
        |   (queue_capacity)       v
        |                    chaos faults --> solve_one(deadline) --> run lock --> sweep
        |                          ^                                   (waits no   (checks the
        |                          +-- worker crash: re-run once        later than  deadline per
        |                              on a fresh team                  the deadline) row / diagonal)
        v
    ticket (resolved) <-- complete() / fail()   (a chaos drop: fail() at the
                                                 deadline or the drain)

``start()`` marks the server ready and starts no thread; ``close()`` drains,
then stops what is left, and each solving thread fails its own request.
A request is named once, at admission (:attr:`ServeRequest.identity`,
default ``dim`` filled in); the session plans by that name and the plan it
ran goes to the adaptive loop.  The server adds four behaviours on top of
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
* **crash recovery** — every exception that escapes a solve attempt
  counts as a crash.  A :class:`~repro.core.exceptions.WorkerCrashError`
  (a worker of a tiled engine's team died) on the first attempt is re-run
  once, at once, on the same thread: the session forks a fresh team for
  it (:meth:`repro.runtime.lifecycle.EngineHost.pool_for`).  A second
  crash, or any other escape, fails the request unless it was answered.
  Chaos faults (:mod:`repro.server.faults`) fire before each attempt's
  solve;
* **observability and lifecycle** — per-request/aggregate metrics as JSON
  (:mod:`repro.server.metrics`) and graceful drain/shutdown.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from numbers import Real
from typing import Any

from repro.adaptive.controller import ADAPTIVE_MODES, AdaptiveController
from repro.adaptive.observations import SignatureEntry
from repro.apps.registry import default_dim
from repro.cache.keys import RequestIdentity, request_identity
from repro.core.exceptions import (
    BackpressureError,
    DeadlineError,
    InvalidParameterError,
    ServerError,
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
#: The failure message of a request the server closed on before answering it.
SHUT_DOWN = "server shut down before the request completed"


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
    """One admitted request and its outcome: the ticket.

    Returned by :meth:`ReproServer.submit` already resolved — answered or
    failed with a typed error — by the one thread that served it, which
    also recorded the outcome in :attr:`metrics`.
    """

    app: str
    dim: int | None
    mode: str | None
    plan_kwargs: dict
    #: ``time.perf_counter()`` at admission: where its latency starts.
    enqueued_at: float
    #: Absolute ``time.perf_counter()`` deadline; ``None`` means unbounded.
    deadline_at: float | None = None
    #: The server's :class:`~repro.server.metrics.ServerMetrics`, which
    #: :meth:`complete` / :meth:`fail` record the outcome in (``None``:
    #: nothing records).
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
    #: True once :meth:`complete` or :meth:`fail` resolved the ticket.
    done: bool = field(default=False, init=False, repr=False)
    _result: Any = field(default=None, init=False, repr=False)
    _error: BaseException | None = field(default=None, init=False, repr=False)

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

    def complete(self, result: Any) -> SignatureEntry | None:
        """Deliver the answer, count it in :attr:`metrics`; return its table entry."""
        self._result = result
        self.done = True
        if self.metrics is None:
            return None
        return self.metrics.record_completed(time.perf_counter() - self.enqueued_at, self.signature)

    def fail(self, error: BaseException) -> None:
        """Deliver a typed failure and count it in :attr:`metrics`.

        A :class:`~repro.core.exceptions.DeadlineError` also counts in
        ``deadline_expired``.
        """
        self._error = error
        self.done = True
        if self.metrics is not None:
            self.metrics.record_failed(
                time.perf_counter() - self.enqueued_at,
                deadline_expired=isinstance(error, DeadlineError),
            )

    def result(self) -> Any:
        """Return the answer, or re-raise the typed failure."""
        if self._error is not None:
            raise self._error
        return self._result


class ReproServer:
    """Admission-controlled front-end over one :class:`~repro.session.Session`.

    The server *borrows* the session by default (closing the server leaves
    the session usable); pass ``own_session=True`` to transfer ownership so
    :meth:`close` also releases the session's engines and worker pools —
    the CLI's ``repro serve`` does exactly that.  ``fault_plan`` arms chaos
    injection (:class:`~repro.server.faults.FaultPlan`).

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
        # The online observation loop, over the metrics' signature table;
        # "off" builds nothing and costs nothing on the serving path.
        self.adaptive: AdaptiveController | None = None
        if self.config.adaptive != "off":
            self.adaptive = AdaptiveController(self.metrics_store.signatures)
        # Lifecycle, the admitted requests (and the most at once) and the
        # counters, all guarded by one lock; ``_idle`` is notified when the
        # last admitted request leaves and when the drain begins.
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._started = self._draining = self._closed = False
        self._stop = threading.Event()
        self._solving: set[ServeRequest] = set()
        self._high_water = 0
        self._counts = dict.fromkeys(("dropped_responses", "crashes", "redispatches"), 0)

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
        (default :data:`DRAIN_TIMEOUT_S`).  A request whose answer a chaos
        ``drop`` discarded fails "shut down" as the drain begins: no work is
        left to wait for.  The server cannot admit requests afterwards.
        """
        timeout = timeout if timeout is not None else DRAIN_TIMEOUT_S
        with self._lock:
            self._draining = True
            self._idle.notify_all()  # wakes the dropped requests
            return self._idle.wait_for(lambda: not self._solving, timeout)

    def close(self) -> None:
        """Graceful shutdown: drain, stop what is left, release owned resources.

        Safe to call more than once.  Requests still running after the drain
        timeout are stopped: their deadlines move to the past, so a running
        sweep stops at its next deadline check, and the session refuses a
        crashed request's re-run.  Each solving thread then fails its
        own request with :class:`~repro.core.exceptions.ServerError` "shut
        down", so no client blocks forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.drain()
        with self._lock:
            self._stop.set()
            for request in self._solving:
                request.deadline.expire()
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
        """Admit one request and serve it on this thread; return its ticket, resolved.

        The ticket comes back answered, or failed with a typed error (a
        chaos ``drop`` fails it at its deadline, or at once without one).
        A memory-tier result-cache hit is answered without admission (unless
        a fault plan is armed).  Raises
        :class:`~repro.core.exceptions.BackpressureError` when
        ``queue_capacity`` requests are already admitted and unfinished and
        :class:`~repro.core.exceptions.ServerError` once the server is
        draining.  ``deadline_s`` bounds the request end-to-end (default:
        the config's ``default_deadline_s``); one that is not finite
        seconds > 0 (:func:`finite_seconds`) is an
        :class:`~repro.core.exceptions.InvalidParameterError`, so a client
        cannot lift the operator's deadline.  ``plan_kwargs`` forward to
        :meth:`repro.session.Session.solve` (``policy=`` and application
        constructor overrides).  ``mode`` defaults to ``"functional"`` and
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
        request = ServeRequest(
            app=app,
            dim=default_dim(app) if dim is None else dim,
            mode=(
                ExecutionMode.FUNCTIONAL if mode is None else ExecutionMode.coerce(mode)
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
        deadline_s: float | None = None,
        **plan_kwargs,
    ):
        """Submit and return the result (or raise its typed failure).

        The deadline (explicit ``deadline_s`` or the config default) stops
        the solve with a :class:`~repro.core.exceptions.DeadlineError`.
        """
        return self.submit(app, dim, mode, deadline_s=deadline_s, **plan_kwargs).result()

    def _admit(self, request: ServeRequest) -> None:
        """Count ``request`` in, or refuse it: draining, or at capacity."""
        with self._lock:
            if self._draining:
                raise ServerError("server is shutting down; request not admitted")
            full = len(self._solving) >= self.config.queue_capacity
            if not full:
                self._solving.add(request)
                self._high_water = max(self._high_water, len(self._solving))
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

        ``queue`` is this server's admission: the requests admitted and
        unfinished now, the most at once, and the bound on both.
        """
        supervisor = self._supervision()
        return self.metrics_store.snapshot(
            queue_depth=supervisor["in_flight"],
            queue_capacity=self.config.queue_capacity,
            queue_high_water=self._high_water,
            caches=self.session.cache_info(),
            cache=(
                self.session.result_cache.info()
                if self.session.result_cache is not None
                else None
            ),
            supervisor=supervisor,
            adaptive=(
                self.adaptive.snapshot() if self.adaptive is not None else None
            ),
        )

    def readiness(self) -> dict:
        """The ``GET /readyz`` payload: the supervision snapshot.

        ``ready`` is true while the server runs; external probes should
        route traffic away on 503.
        """
        running = self.running
        return {**self._supervision(), "ready": running, "running": running}

    def _supervision(self) -> dict:
        """The ``/metrics`` ``supervisor`` section: counters and faults."""
        faults = self._injector.info()
        with self._lock:
            counts = {"in_flight": len(self._solving), **self._counts}
        return {**counts, "faults_injected": faults["injected"], "faults": faults}

    # ------------------------------------------------------------------
    # Serving one request
    # ------------------------------------------------------------------
    def _serve(self, request: ServeRequest) -> None:
        """Run one admitted request until it is resolved.

        Every exception that escapes an attempt counts as a crash.  A
        :class:`~repro.core.exceptions.WorkerCrashError` on the first
        attempt is re-run once, at once: the session forks a fresh team for
        it.  Past the request's deadline — where :meth:`close` moves it too —
        the session refuses the re-run, so it runs nothing and fails typed.
        A second crash, or any other escape, fails the request unless it was
        answered.
        """
        for attempt in (1, 2):
            try:
                self._execute(request)
                return
            except Exception as crash:  # noqa: BLE001 - every escape is a crash
                rerun = attempt == 1 and isinstance(crash, WorkerCrashError)
                with self._lock:
                    self._counts["crashes"] += 1
                    self._counts["redispatches"] += rerun and not request.deadline.passed()
                if not rerun:
                    if not request.done:
                        request.fail(crash)
                    return

    def _execute(self, request: ServeRequest) -> None:
        """One attempt at a request: chaos hooks, the solve, delivery.

        A request :meth:`close` stopped through its deadline fails "shut
        down".
        """
        taken_at = time.perf_counter()
        request.deadline.waited_s = 0.0
        drop = self._armed and self._inject_faults()
        try:
            # Past its deadline by now, the session itself refuses the request.
            plan, result = self.session.solve_one(
                request.as_request(), request.mode, request.deadline
            )
        except WorkerCrashError:
            raise  # re-run once by _serve
        except Exception as error:  # noqa: BLE001 - delivered on the ticket
            if isinstance(error, DeadlineError) and self._stop.is_set():
                error = ServerError(SHUT_DOWN)
            request.fail(error)
            return
        if drop:
            self._drop(request)
            return
        # Callers must treat a shared ExecutionResult as read-only, which
        # every shipped consumer (HTTP payload, verification, metrics) does.
        entry = request.complete(result)
        if self.adaptive is not None:
            # The wait for the run lock is another request's service time.
            service_s = time.perf_counter() - taken_at - request.deadline.waited_s
            self.adaptive.observe(entry, plan.expected_s, service_s)

    def _drop(self, request: ServeRequest) -> None:
        """Chaos: the work happened, the answer vanishes.

        The request stays admitted until its deadline, where it fails with
        a :class:`~repro.core.exceptions.DeadlineError` naming the dropped
        response, or until the drain begins, where it fails "shut down".
        Without a deadline it fails at once, typed, naming the drop.
        """
        what = f"request {request.app}[dim={request.dim}]"
        with self._lock:
            self._counts["dropped_responses"] += 1
            if request.deadline_at is None:
                error = ServerError(f"the response of {what} was dropped (chaos fault)")
            elif self._idle.wait_for(lambda: self._draining, request.deadline.remaining()):
                error = ServerError(SHUT_DOWN)
            else:
                error = DeadlineError(f"{what} missed its deadline (response dropped)")
        request.fail(error)

    def _inject_faults(self) -> bool:
        """Fire the faults due at this attempt; return whether to drop its answer.

        A ``slow`` fault sleeps here, before the solve.
        """
        faults = self._injector.take()
        for fault in faults:
            if fault.kind == "slow":
                time.sleep(fault.sleep_s)
        return any(fault.kind == "drop" for fault in faults)
