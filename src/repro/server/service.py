"""The concurrent serving core: :class:`ReproServer` over one session.

Architecture (one box per thread role)::

    clients (any threads)            shard thread               session
    ---------------------            ------------               -------
    submit() --admission--> [RequestQueue] --next_batch--> solve_one()
        |   BackpressureError        |   same-signature            |
        |   memory-tier hit          v   coalescing                v
    ticket.result() <-------- complete()/fail() <-------- ExecutionResult

    ``start()`` starts the supervised shard; ``close()`` drains and joins
    it and (for a server that owns its session) releases the worker pools
    of :class:`repro.runtime.lifecycle.EngineHost`.

A request crosses threads exactly twice: the submitting thread queues it;
the idle shard thread (:mod:`repro.server.supervisor`, one supervised lane
on the server's own session) takes a coalesced batch from the queue itself
and completes its tickets on the spot.  Memory hits cross none:
:meth:`repro.session.Session.serve_from_memory` answers them at admission.
A request is named once, at admission (:attr:`ServeRequest.identity`,
default ``dim`` filled in); the lane plans by that name and hands the plan
it ran to the adaptive loop.  The server adds exactly three behaviours on
top of :meth:`repro.session.Session.solve_one`:

* **admission control** — a bounded queue with an explicit, typed
  backpressure rejection instead of unbounded latency;
* **coalescing** — concurrent same-signature requests are drained as one
  batch and served by a single ``solve_one`` execution whose deterministic
  result every ticket in the group shares, amortising the tuner/plan
  resolution, the worker-pool warm-up *and the grid sweep itself*;
* **observability and lifecycle** — per-request/aggregate metrics as JSON
  (:mod:`repro.server.metrics`) and graceful drain/shutdown.

Requests may be submitted before :meth:`ReproServer.start`; they queue (and
count against capacity) until the shard comes up — which also makes
batching deterministic to test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from numbers import Real

from repro.adaptive.controller import ADAPTIVE_MODES, AdaptiveController
from repro.adaptive.drift import DriftConfig
from repro.apps.registry import default_dim
from repro.core.exceptions import (
    BackpressureError,
    DeadlineError,
    InvalidParameterError,
    ServerError,
    ShardUnavailableError,
)
from repro.runtime.executor_base import ExecutionMode
from repro.server.faults import FaultPlan
from repro.server.metrics import ServerMetrics
from repro.server.queue import RequestQueue, ServeRequest
from repro.server.supervisor import ShardSupervisor, ShardTask, SupervisorConfig
from repro.session import Session

#: Default bound of the request queue (admission control).
DEFAULT_QUEUE_CAPACITY = 64
#: Default maximum number of same-signature requests served per batch.
DEFAULT_MAX_BATCH = 8
#: Default per-request deadline (seconds) when the client sends none.
DEFAULT_DEADLINE_S = 30.0
#: The longest wait (seconds) a limit may set: ``threading`` waits overflow
#: past ``threading.TIMEOUT_MAX``.
MAX_WAIT_S = threading.TIMEOUT_MAX / 2


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

    ``queue_capacity`` bounds admitted-but-unscheduled requests (overflow is
    rejected with backpressure); ``max_batch`` bounds how many coalesced
    same-signature requests one coalesced execution serves;
    ``drain_timeout_s`` bounds how long :meth:`ReproServer.close` waits for
    in-flight work.

    ``default_deadline_s`` is the per-request deadline applied when the
    client sends none (``None`` disables the default — requests without an
    explicit deadline then wait unboundedly).

    Both waits are finite seconds (:func:`finite_seconds`).

    ``adaptive`` switches the online observation loop
    (:data:`repro.adaptive.ADAPTIVE_MODES`): ``"off"`` builds no
    controller, ``"on"`` (the default) observes latencies and detects
    drift without ever changing the plan traffic runs.
    """

    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    max_batch: int = DEFAULT_MAX_BATCH
    drain_timeout_s: float = 30.0
    default_deadline_s: float | None = DEFAULT_DEADLINE_S
    adaptive: str = "on"

    def __post_init__(self) -> None:
        """Validate the knobs once, at construction."""
        for name in ("queue_capacity", "max_batch"):
            if getattr(self, name) < 1:
                raise ServerError(f"{name} must be >= 1, got {getattr(self, name)}")
        finite_seconds("drain_timeout_s", self.drain_timeout_s, ServerError)
        if self.default_deadline_s is not None:
            finite_seconds("default_deadline_s", self.default_deadline_s, ServerError)
        if self.adaptive not in ADAPTIVE_MODES:
            raise ServerError(
                f"adaptive must be one of {ADAPTIVE_MODES}, got {self.adaptive!r}"
            )


class ReproServer:
    """Concurrent, batching front-end over one :class:`~repro.session.Session`.

    The server *borrows* the session by default (closing the server leaves
    the session usable); pass ``own_session=True`` to transfer ownership so
    :meth:`close` also releases the session's engines and worker pools —
    the CLI's ``repro serve`` does exactly that.  ``drift`` sets the
    adaptive loop's detector thresholds (:class:`repro.adaptive.DriftConfig`
    defaults otherwise).

    Use as a context manager for deterministic teardown::

        with ReproServer(session, ServerConfig(max_batch=16)) as server:
            ticket = server.submit("lcs", 256)
            result = ticket.result(timeout=30)
    """

    def __init__(
        self,
        session: Session,
        config: ServerConfig | None = None,
        *,
        own_session: bool = False,
        supervisor_config: SupervisorConfig | None = None,
        fault_plan: FaultPlan | None = None,
        drift: DriftConfig | None = None,
    ) -> None:
        self.session = session
        self.config = config if config is not None else ServerConfig()
        self.metrics_store = ServerMetrics()
        self._queue = RequestQueue(self.config.queue_capacity)
        self._own_session = own_session
        self._lifecycle = threading.Lock()
        self._started = False
        self._closed = False
        # Every execution goes through the supervisor, whose one shard
        # thread takes its batches from the queue itself and runs them on
        # this server's session.
        self.supervisor = ShardSupervisor(
            session,
            source=self._next_task,
            config=supervisor_config,
            fault_plan=fault_plan,
        )
        # Under a chaos plan every request reaches the shard, so a fault's
        # ordinal counts requests, not only the memory tier's misses.
        self._answer_hits = fault_plan is None or not len(fault_plan)
        # The online tuning loop, with the drift detector's thresholds;
        # "off" builds nothing and costs nothing on the serving path.
        self.adaptive: AdaptiveController | None = None
        if self.config.adaptive != "off":
            self.adaptive = AdaptiveController(drift)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Start the supervised shard; idempotent until :meth:`close`."""
        with self._lifecycle:
            if self._closed:
                raise ServerError("cannot start a closed server")
            if self._started:
                return self
            self.supervisor.start()
            self._started = True
            return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admission and wait for queued + in-flight work to finish.

        Returns ``True`` when everything completed within ``timeout``
        (default: the config's ``drain_timeout_s``).  The server cannot
        accept requests afterwards.
        """
        timeout = timeout if timeout is not None else self.config.drain_timeout_s
        self._queue.close()
        with self._lifecycle:
            if not self._started:
                # No shard thread exists, so waiting cannot make progress;
                # report the truth immediately (close() fails any stragglers).
                timeout = 0.0
        deadline = time.perf_counter() + timeout
        while self._queue.depth or self.metrics_store.in_flight:
            if time.perf_counter() >= deadline:
                return False
            time.sleep(0.01)
        return True

    def close(self) -> None:
        """Graceful shutdown: drain, join the shard, release owned resources.

        Safe to call more than once.  Requests still queued after the drain
        timeout are failed with :class:`~repro.core.exceptions.ServerError`
        so no client blocks forever.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        drained = self.drain()
        if not drained:
            stranded = self._queue.drain_rejected(
                ServerError("server shut down before the request was scheduled")
            )
            for request in stranded:
                # Account the stranded requests so the accepted ==
                # completed + failed + cancelled + in_flight invariant
                # survives shutdown; no latency sample — they never ran, so
                # their queue wait would distort the service percentiles.
                self.metrics_store.record_failed(None)
        self.supervisor.close()
        if self._own_session:
            self.session.close()

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`close`."""
        with self._lifecycle:
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
        """Admit one request; return its ticket immediately.

        A memory-tier result-cache hit returns an already completed ticket
        (unless a fault plan is armed: then every request queues).
        Raises :class:`~repro.core.exceptions.BackpressureError` when the
        queue is full (including its :class:`~repro.core.exceptions.\
ShardUnavailableError` subclass while the shard's circuit breaker is
        open — shedding early beats queueing into a black hole) and
        :class:`~repro.core.exceptions.ServerError` once the server is
        shutting down.  ``deadline_s`` bounds the request end-to-end
        (default: the config's ``default_deadline_s``); one that is not
        finite seconds > 0 (:func:`finite_seconds`) is an
        :class:`~repro.core.exceptions.InvalidParameterError`, so a client
        cannot lift the operator's deadline.  ``plan_kwargs``
        forward to :meth:`repro.session.Session.solve` (``policy=`` and
        application constructor overrides).  ``mode`` defaults to the
        session's and ``dim`` the application's default, both filled in here
        so an omitted and an explicit default are one request (one batch,
        one ``/metrics`` label).  The request's identity
        (:func:`repro.cache.request_identity`) is fixed here, once: the
        memory-tier lookup, the queue's coalescing, the lane's plan lookup
        and the adaptive loop all read it.  A value it cannot canonicalise,
        or an unknown mode, is a typed
        :class:`~repro.core.exceptions.InvalidParameterError`; an unknown
        application without a ``dim`` is an
        :class:`~repro.core.exceptions.UnknownApplicationError`.
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        else:
            deadline_s = finite_seconds("deadline_s", deadline_s)
        now = time.perf_counter()
        deadline_at = None if deadline_s is None else now + deadline_s
        if self.supervisor.circuit_open:
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
            deadline_at=deadline_at,
        )
        # A memory hit is answered on this thread: it never queues behind a
        # sweep, nor reaches the adaptive loop (nothing ran).  A closed queue
        # skips the lookup, so the queued path refuses exactly as before.
        if self._answer_hits and not self._queue.closed:
            hit = self.session.serve_from_memory(
                app, request.dim, request.mode, identity=request.identity, **plan_kwargs
            )
            if hit is not None:
                self.metrics_store.record_accepted()
                request.complete(hit)
                self.metrics_store.record_completed(
                    time.perf_counter() - now, signature=request.signature
                )
                return request
        # Count acceptance BEFORE the request becomes visible to the shard, so
        # a fast completion can never be recorded ahead of it (in_flight
        # would transiently read -1 and drain() could return early).
        self.metrics_store.record_accepted()
        try:
            self._queue.submit(request)
        except BackpressureError:
            # Load shedding: roll the acceptance back and count the
            # rejection; re-raised unchanged so callers can branch on it.
            self.metrics_store.record_rejected(rollback_accept=True)
            raise
        except ServerError:
            # Closed queue (shutdown) is not backpressure — the request was
            # simply never admitted, so it leaves no counter behind.
            self.metrics_store.rollback_accepted()
            raise
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
        """Submit and block for the result (the synchronous convenience).

        With ``timeout=None`` the wait is bounded by the request deadline
        (explicit ``deadline_s`` or the config default) — no more hard-coded
        client-side timeouts racing the server's own deadline handling.
        """
        ticket = self.submit(app, dim, mode, deadline_s=deadline_s, **plan_kwargs)
        return ticket.result(timeout)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """The JSON-safe metrics snapshot (``GET /metrics`` payload)."""
        return self.metrics_store.snapshot(
            queue_depth=self._queue.depth,
            queue_capacity=self._queue.capacity,
            queue_high_water=self._queue.high_water,
            caches=self.session.cache_info(),
            cache=(
                self.session.result_cache.info()
                if self.session.result_cache is not None
                else None
            ),
            supervisor=self.supervisor.info(),
            adaptive=(
                self.adaptive.snapshot() if self.adaptive is not None else None
            ),
        )

    def readiness(self) -> dict:
        """The ``GET /readyz`` payload: the supervisor snapshot.

        ``ready`` is true while the server runs and its shard is healthy;
        external probes should route traffic away on 503.
        """
        info = self.supervisor.info()
        running = self.running
        return {**info, "ready": running and info["ready"], "running": running}

    # ------------------------------------------------------------------
    # The shard's work source
    # ------------------------------------------------------------------
    def _next_task(self, timeout: float) -> ShardTask | None:
        """One coalesced batch as a shard task (the supervisor's ``source``).

        Called by the idle shard thread, waiting up to ``timeout``
        for a request.  Requests whose waiter already gave up (``cancel()``)
        or whose deadline passed in the queue are resolved here, not
        executed — no ghost work for absent clients.  The rest is identical
        by construction (one signature → one plan, one deterministic
        answer): **one** task whose result every ticket shares.
        """
        batch = self._queue.next_batch(self.config.max_batch, timeout)
        if not batch and self._queue.closed:
            time.sleep(timeout)  # nothing will arrive: idle the poll out
        live = []
        for request in batch:
            if request.cancelled:
                request.fail(ServerError("request was cancelled by its client"))
                self.metrics_store.record_cancelled()
            elif request.expired:
                request.fail(
                    DeadlineError(
                        f"request {request.app}[dim={request.dim}] expired "
                        "in the queue before execution"
                    )
                )
                self.metrics_store.record_failed(None, deadline_expired=True)
            else:
                live.append(request)
        if not live:
            return None
        self.metrics_store.record_batch(len(live))
        # The strictest deadline in the batch bounds the shared execution;
        # coalesced peers are identical apart from their deadlines, so the
        # tightest one is the only one that can expire first.
        deadlines = [r.deadline_at for r in live if r.deadline_at is not None]
        return ShardTask(
            live[0].as_request(),
            live[0].mode,
            min(deadlines) if deadlines else None,
            count=len(live),
            on_done=partial(self._deliver, live, time.perf_counter()),
        )

    def _deliver(
        self, batch: list[ServeRequest], taken_at: float, task: ShardTask
    ) -> None:
        """Complete every ticket of one resolved batch, on the resolving thread.

        Callers must treat the shared :class:`ExecutionResult` as read-only,
        which every shipped consumer (HTTP payload, verification, metrics)
        does.  A failure is delivered to each waiting client.
        """
        head, result, error = batch[0], task.result, task.error
        now = time.perf_counter()
        if error is not None:
            missed = isinstance(error, DeadlineError)
            for request in batch:
                request.fail(error)
                self.metrics_store.record_failed(now - request.enqueued_at, missed)
            return
        for request in batch:
            request.complete(result)
            self.metrics_store.record_completed(
                now - request.enqueued_at, signature=request.signature
            )
        if self.adaptive is not None:
            self.adaptive.observe(
                head.signature, task.plan.expected_s, now - taken_at, count=len(batch)
            )
