"""The concurrent serving core: :class:`ReproServer` over one session.

Architecture (one box per thread role)::

    clients (any threads)          scheduler workers            session
    ---------------------          ------------------           -------
    submit() --admission--> [RequestQueue] --next_batch--> solve_many()
        ^   BackpressureError        |   same-signature            |
        |                            v   coalescing                v
    ticket.result() <-------- complete()/fail() <-------- ExecutionResult

    ``start()`` spawns the workers; ``close()`` drains and joins them and
    (for a server that owns its session) releases the worker pools of
    :class:`repro.runtime.lifecycle.EngineHost`.

The server adds exactly three behaviours on top of
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
count against capacity) until the scheduler workers come up — which also
makes batching deterministic to test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
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
from repro.server.supervisor import ShardSupervisor, SupervisorConfig
from repro.session import Session

#: Default bound of the request queue (admission control).
DEFAULT_QUEUE_CAPACITY = 64
#: Default maximum number of same-signature requests served per batch.
DEFAULT_MAX_BATCH = 8
#: Default per-request deadline (seconds) when the client sends none.
DEFAULT_DEADLINE_S = 30.0
#: How long an idle scheduler worker waits before re-checking for shutdown.
_IDLE_WAIT_S = 0.05


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`ReproServer`.

    ``queue_capacity`` bounds admitted-but-unscheduled requests (overflow is
    rejected with backpressure); ``max_batch`` bounds how many coalesced
    same-signature requests one coalesced execution serves; ``workers`` is
    the number of scheduler threads (more than one only overlaps planning —
    the session's run lock serialises grid execution); ``drain_timeout_s``
    bounds how long :meth:`ReproServer.close` waits for in-flight work.

    ``default_deadline_s`` is the per-request deadline applied when the
    client sends none (``None`` disables the default — requests without an
    explicit deadline then wait unboundedly); ``shards`` is the number of
    supervised worker shards (1 = the degenerate in-thread shard sharing
    the server's session); ``degraded_fallback`` makes the scheduler solve
    directly on the server's session when every shard is unavailable,
    instead of shedding the request with 429.

    ``adaptive`` selects how far the online tuning loop runs
    (:data:`repro.adaptive.ADAPTIVE_MODES`): ``"off"`` builds no
    controller, ``"shadow"`` (the default) observes, detects drift and
    logs would-be decisions, ``"live"`` additionally promotes them to
    rollback-guarded plan swaps.
    """

    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    max_batch: int = DEFAULT_MAX_BATCH
    workers: int = 1
    drain_timeout_s: float = 30.0
    default_deadline_s: float | None = DEFAULT_DEADLINE_S
    shards: int = 1
    degraded_fallback: bool = False
    adaptive: str = "shadow"

    def __post_init__(self) -> None:
        """Validate the knobs once, at construction."""
        if self.queue_capacity < 1:
            raise ServerError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.max_batch < 1:
            raise ServerError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.workers < 1:
            raise ServerError(f"workers must be >= 1, got {self.workers}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ServerError(
                f"default_deadline_s must be > 0 or None, "
                f"got {self.default_deadline_s}"
            )
        if self.shards < 1:
            raise ServerError(f"shards must be >= 1, got {self.shards}")
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
        self._threads: list[threading.Thread] = []
        self._lifecycle = threading.Lock()
        self._started = False
        self._closed = False
        # Every execution goes through the supervisor.  With shards == 1 and
        # no factory this is the degenerate in-thread shard borrowing the
        # server's own session — same execution semantics as before, but the
        # supervision/chaos path is always exercised.  A factory builds one
        # session per shard (share a warmed tuner and one ResultCache across
        # them so re-dispatches coalesce); `session` stays the degraded
        # fallback and the metrics/cache-info source either way.
        self.supervisor = ShardSupervisor(
            session=None if session_factory is not None else session,
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
        sessions = [self.session]
        sessions.extend(shard.session for shard in self.supervisor.shards)
        return sessions

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Spawn the scheduler workers; idempotent until :meth:`close`."""
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
            for index in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
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
            started = self._started
        if not started:
            # No scheduler workers exist, so waiting cannot make progress;
            # report the truth immediately (close() fails any stragglers).
            return self._queue.depth == 0 and self.metrics_store.in_flight == 0
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self._queue.depth == 0 and self.metrics_store.in_flight == 0:
                return True
            time.sleep(0.01)
        return self._queue.depth == 0 and self.metrics_store.in_flight == 0

    def close(self) -> None:
        """Graceful shutdown: drain, join workers, release owned resources.

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
        for thread in self._threads:
            thread.join(timeout=self.config.drain_timeout_s)
        self._threads.clear()
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
        # Count acceptance BEFORE the request becomes visible to workers, so
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
    # Scheduler workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        """Drain coalesced batches until the queue closes and empties."""
        while True:
            batch = self._queue.next_batch(self.config.max_batch, _IDLE_WAIT_S)
            if not batch:
                if self._queue.closed and self._queue.depth == 0:
                    return
                continue
            self._serve_batch(batch)

    def _serve_batch(self, batch: list[ServeRequest]) -> None:
        """Serve one same-signature batch with a single execution.

        Requests whose waiter already gave up (``cancel()``) are dropped
        here instead of executed — no ghost work for absent clients.  The
        batch is identical by construction (one signature → one plan, one
        deterministic answer), so it is **executed once** and every ticket
        completes with the same shared :class:`ExecutionResult` — callers
        must treat results as read-only, which every shipped consumer (HTTP
        payload, verification, metrics) already does.  A failure applies to
        the whole batch, is delivered to each waiting client, and never
        kills the worker — the server keeps serving subsequent batches.
        """
        live = []
        for request in batch:
            if request.cancelled:
                request.fail(ServerError("request was cancelled by its client"))
                self.metrics_store.record_cancelled()
            elif request.expired:
                # The deadline passed while the request sat in the queue:
                # fail it typed instead of executing work nobody can use.
                request.fail(
                    DeadlineError(
                        f"request {request.app}[dim={request.dim}] expired "
                        "in the queue before execution"
                    )
                )
                self.metrics_store.record_deadline_expired(None)
            else:
                live.append(request)
        if not live:
            return
        batch = live
        self.metrics_store.record_batch(len(batch))
        # The strictest deadline in the batch bounds the shared execution;
        # coalesced peers are identical apart from their deadlines, so the
        # tightest one is the only one that can expire first.
        deadlines = [r.deadline_at for r in batch if r.deadline_at is not None]
        deadline_at = min(deadlines) if deadlines else None
        executed_at = time.perf_counter()
        try:
            result = self.supervisor.execute(
                batch[0].as_request(),
                mode=batch[0].mode,
                deadline_at=deadline_at,
                signature=batch[0].signature,
                count=len(batch),
            )
        except DeadlineError as error:
            now = time.perf_counter()
            for request in batch:
                request.fail(error)
                self.metrics_store.record_deadline_expired(
                    now - request.enqueued_at
                )
            return
        except ShardUnavailableError as error:
            if self.config.degraded_fallback:
                self._serve_degraded(batch)
                return
            now = time.perf_counter()
            for request in batch:
                request.fail(error)
                self.metrics_store.record_failed(now - request.enqueued_at)
            return
        except Exception as error:  # noqa: BLE001 - delivered to the client
            now = time.perf_counter()
            for request in batch:
                request.fail(error)
                self.metrics_store.record_failed(now - request.enqueued_at)
            return
        now = time.perf_counter()
        service_s = now - executed_at
        for request in batch:
            request.complete(result)
            self.metrics_store.record_completed(
                now - request.enqueued_at, signature=request.signature
            )
        if self.adaptive is not None:
            head = batch[0]
            self.adaptive.observe(
                head.app,
                head.dim,
                head.mode,
                head.plan_kwargs,
                service_s,
                count=len(batch),
            )

    def _serve_degraded(self, batch: list[ServeRequest]) -> None:
        """Answer one batch directly on the server's session (last resort).

        Graceful degradation: every shard is dead, but going dark is worse
        than serving slowly — solve in the scheduler thread on the borrowed
        session.  Deterministic execution keeps the response bit-exact with
        what a shard would have produced.
        """
        executed_at = time.perf_counter()
        try:
            result = self.session.solve_many(
                [batch[0].as_request()], mode=batch[0].mode
            )[0]
        except Exception as error:  # noqa: BLE001 - delivered to the client
            now = time.perf_counter()
            for request in batch:
                request.fail(error)
                self.metrics_store.record_failed(now - request.enqueued_at)
            return
        now = time.perf_counter()
        service_s = now - executed_at
        for request in batch:
            request.complete(result)
            self.metrics_store.record_completed(
                now - request.enqueued_at, signature=request.signature
            )
        if self.adaptive is not None:
            head = batch[0]
            self.adaptive.observe(
                head.app,
                head.dim,
                head.mode,
                head.plan_kwargs,
                service_s,
                count=len(batch),
            )
