"""The concurrent serving core: :class:`ReproServer` over one session.

Architecture (one box per thread role)::

    clients (any threads)            shard threads              session
    ---------------------            -------------              -------
    submit() --admission--> [RequestQueue] --next_batch--> solve_many()
        ^   BackpressureError        |   same-signature            |
        |                            v   coalescing                v
    ticket.result() <-------- complete()/fail() <-------- ExecutionResult

    ``start()`` starts the supervised shards; ``close()`` drains and joins
    them and (for a server that owns its session) releases the worker pools
    of :class:`repro.runtime.lifecycle.EngineHost`.

A request crosses threads exactly twice: the submitting thread queues it; an
idle shard thread (:mod:`repro.server.supervisor`) takes a coalesced batch
from the queue itself and completes its tickets on the spot.  The server
adds exactly three behaviours on top of
:meth:`repro.session.Session.solve_many`:

* **admission control** — a bounded queue with an explicit, typed
  backpressure rejection instead of unbounded latency;
* **coalescing** — concurrent same-signature requests are drained as one
  batch and served by a single ``solve_many`` execution whose deterministic
  result every ticket in the group shares, amortising the tuner/plan
  resolution, the worker-pool warm-up *and the grid sweep itself*;
* **observability and lifecycle** — per-request/aggregate metrics as JSON
  (:mod:`repro.server.metrics`) and graceful drain/shutdown.

Requests may be submitted before :meth:`ReproServer.start`; they queue (and
count against capacity) until the shards come up — which also makes
batching deterministic to test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.adaptive.controller import (
    ADAPTIVE_MODES,
    AdaptiveConfig,
    AdaptiveController,
)
from repro.core.exceptions import (
    BackpressureError,
    DeadlineError,
    ServerError,
    ShardUnavailableError,
)
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
    explicit deadline then wait unboundedly); ``shards`` is the number of
    supervised worker shards — the execution concurrency (1 = the
    degenerate in-thread shard sharing the server's session);
    ``degraded_fallback`` solves directly on the server's session when
    every shard is unavailable, instead of shedding the request with 429.

    ``adaptive`` selects how far the online tuning loop runs
    (:data:`repro.adaptive.ADAPTIVE_MODES`): ``"off"`` builds no
    controller, ``"shadow"`` (the default) observes, detects drift and
    logs would-be decisions, ``"live"`` additionally promotes them to
    rollback-guarded plan swaps.
    """

    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    max_batch: int = DEFAULT_MAX_BATCH
    drain_timeout_s: float = 30.0
    default_deadline_s: float | None = DEFAULT_DEADLINE_S
    shards: int = 1
    degraded_fallback: bool = False
    adaptive: str = "shadow"

    def __post_init__(self) -> None:
        """Validate the knobs once, at construction."""
        for name in ("queue_capacity", "max_batch", "shards"):
            if getattr(self, name) < 1:
                raise ServerError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ServerError(
                f"default_deadline_s must be > 0 or None, "
                f"got {self.default_deadline_s}"
            )
        if self.adaptive not in ADAPTIVE_MODES:
            raise ServerError(
                f"adaptive must be one of {ADAPTIVE_MODES}, got {self.adaptive!r}"
            )


class ReproServer:
    """Concurrent, batching front-end over one :class:`~repro.session.Session`.

    The server *borrows* the session by default (closing the server leaves
    the session usable); pass ``own_session=True`` to transfer ownership so
    :meth:`close` also releases the session's engines and worker pools —
    the CLI's ``repro serve`` does exactly that.

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
        session_factory: Callable[[int], Session] | None = None,
        supervisor_config: SupervisorConfig | None = None,
        fault_plan: FaultPlan | None = None,
        adaptive_config: AdaptiveConfig | None = None,
    ) -> None:
        self.session = session
        self.config = config if config is not None else ServerConfig()
        self.metrics_store = ServerMetrics()
        self._queue = RequestQueue(self.config.queue_capacity)
        self._own_session = own_session
        self._lifecycle = threading.Lock()
        self._started = False
        self._closed = False
        # Every execution goes through the supervisor, whose shard threads
        # take their batches from the queue themselves.  With shards == 1
        # and no factory this is the degenerate in-thread shard borrowing
        # the server's own session.  A factory builds one session per shard
        # (share a warmed tuner and one ResultCache across them so
        # re-dispatches coalesce); `session` stays the degraded fallback
        # and the metrics/cache-info source either way.
        self.supervisor = ShardSupervisor(
            session=None if session_factory is not None else session,
            source=self._next_task,
            shards=self.config.shards,
            session_factory=session_factory,
            config=supervisor_config,
            fault_plan=fault_plan,
        )
        # The online tuning loop.  An explicit adaptive_config wins; the
        # ServerConfig.adaptive mode otherwise selects the defaults; "off"
        # builds nothing and costs nothing on the serving path.
        if adaptive_config is None:
            adaptive_config = AdaptiveConfig(mode=self.config.adaptive)
        self.adaptive: AdaptiveController | None = None
        if adaptive_config.mode != "off":
            self.adaptive = AdaptiveController(
                session, adaptive_config, sessions=self._adaptive_sessions
            )

    def _adaptive_sessions(self) -> list[Session]:
        """Every session a live plan swap must reach (server + shards)."""
        return [self.session, *(shard.session for shard in self.supervisor.shards)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Start the supervised shards; idempotent until :meth:`close`."""
        with self._lifecycle:
            if self._closed:
                raise ServerError("cannot start a closed server")
            if self._started:
                return self
            self.supervisor.start()
            if self.adaptive is not None:
                # Shard sessions exist by now; their pure solve walls feed
                # the run-observation log (shadow retraining evidence).
                for session in {id(s): s for s in self._adaptive_sessions()}.values():
                    session.attach_observer(self.adaptive.record_run)
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
        """Graceful shutdown: drain, join shards, release owned resources.

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

        Raises :class:`~repro.core.exceptions.BackpressureError` when the
        queue is full (including its :class:`~repro.core.exceptions.\
ShardUnavailableError` subclass when every shard's restart budget is
        exhausted and no degraded fallback is configured — shedding early
        beats queueing into a black hole) and
        :class:`~repro.core.exceptions.ServerError` once the server is
        shutting down.  ``deadline_s`` bounds the request end-to-end
        (default: the config's ``default_deadline_s``; pass ``0`` or a
        negative value to wait unboundedly).  ``plan_kwargs`` forward to
        :meth:`repro.session.Session.solve` (``policy=`` and application
        constructor overrides).
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        now = time.perf_counter()
        deadline_at = (
            now + deadline_s if deadline_s is not None and deadline_s > 0 else None
        )
        if self.supervisor.circuit_open and not self.config.degraded_fallback:
            self.metrics_store.record_rejected()
            raise ShardUnavailableError(
                "no healthy shard available (restart budgets exhausted); "
                "shedding load — retry later"
            )
        request = ServeRequest(
            app=app,
            dim=dim,
            mode=mode,
            plan_kwargs=dict(plan_kwargs),
            enqueued_at=now,
            deadline_at=deadline_at,
        )
        # Count acceptance BEFORE the request becomes visible to shards, so
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
        """The ``GET /readyz`` payload: per-shard state and degraded mode.

        ``ready`` is true while at least one shard is healthy *or* the
        degraded fallback can still answer requests on the server's own
        session; external probes should route traffic away on 503.
        """
        info = self.supervisor.info()
        degraded = info["circuit_open"] and self.config.degraded_fallback
        return {
            "ready": self.running and (info["ready"] or degraded),
            "running": self.running,
            "degraded": degraded,
            "shards": info["shards"],
            "restarts": info["restarts"],
            "circuit_open": info["circuit_open"],
        }

    # ------------------------------------------------------------------
    # The shards' work source
    # ------------------------------------------------------------------
    def _next_task(self, timeout: float) -> ShardTask | None:
        """One coalesced batch as a shard task (the supervisor's ``source``).

        Called by whichever shard thread is idle, waiting up to ``timeout``
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
        does.  A failure is delivered to each waiting client.  Graceful
        degradation: when every shard is gone and ``degraded_fallback`` is
        set, the batch is solved right here on the borrowed session —
        deterministic, so bit-exact with what a shard would have produced.
        """
        head, result, error = batch[0], task.result, task.error
        if isinstance(error, ShardUnavailableError) and self.config.degraded_fallback:
            taken_at = time.perf_counter()
            try:
                result = self.session.solve_many([head.as_request()], mode=head.mode)[0]
                error = None
            except Exception as failure:  # noqa: BLE001 - delivered to the client
                error = failure
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
                head.app,
                head.dim,
                head.mode,
                head.plan_kwargs,
                now - taken_at,
                count=len(batch),
            )
