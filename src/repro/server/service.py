"""The concurrent serving core: :class:`ReproServer` over one session.

Architecture (one box per thread role)::

    clients (any threads)            lane thread (repro-shard-0)      session
    ---------------------            ---------------------------      -------
    submit() --admission--> [RequestQueue] --next_batch--> solve_one()
        |   BackpressureError        |   same-signature            |
        |   memory-tier hit          v   coalescing                v
    ticket.result() <-------- complete()/fail() <-------- ExecutionResult
        |
        +-- at its deadline the waiter fails its own ticket (DeadlineError)

    ``start()`` starts the lane; ``close()`` drains and joins it and (for a
    server that owns its session) releases the worker pools of
    :class:`repro.runtime.lifecycle.EngineHost`.

A request crosses threads exactly twice: the submitting thread queues it;
the lane thread takes a coalesced batch from the queue, runs it on the
server's own session and completes its tickets on the spot.  Memory hits
cross none: :meth:`repro.session.Session.serve_from_memory` answers them at
admission.  A request is named once, at admission
(:attr:`ServeRequest.identity`, default ``dim`` filled in); the lane plans
by that name and hands the plan it ran to the adaptive loop.  The server
adds four behaviours on top of :meth:`repro.session.Session.solve_one`:

* **admission control** — a bounded queue with an explicit, typed
  backpressure rejection instead of unbounded latency;
* **coalescing** — concurrent same-signature requests are drained as one
  batch and served by a single ``solve_one`` execution whose deterministic
  result every ticket in the group shares, amortising the tuner/plan
  resolution, the worker-pool warm-up *and the grid sweep itself*;
* **supervision** — every exception that escapes a batch on the lane is a
  crash (:class:`~repro.core.exceptions.ShardCrashError` from a chaos
  ``kill``, :class:`~repro.core.exceptions.WorkerCrashError` from a broken
  worker team, anything else).  The lane counts it, checks the breaker,
  backs off (jittered, exponential in the crashes since the last clean
  batch) and re-runs the same batch, up to :data:`MAX_REDISPATCH` extra
  attempts — in place, on the same thread.  More than
  :data:`RESTART_BUDGET` crashes inside :data:`RESTART_WINDOW_S` open the
  breaker (state ``dead``): admission sheds load and the lane fails what
  was admitted with :class:`~repro.core.exceptions.ShardUnavailableError`
  until the window slides below the budget.  Chaos faults
  (:mod:`repro.server.faults`) fire before the solve, which keeps kills
  at-most-once;
* **observability and lifecycle** — per-request/aggregate metrics as JSON
  (:mod:`repro.server.metrics`) and graceful drain/shutdown.

Each ticket enforces its own deadline: its waiter fails it with a typed
:class:`~repro.core.exceptions.DeadlineError` at exactly its
``deadline_at``, while the batch's execution is bounded by its latest live
deadline, so a request coalesced with a tighter peer still gets its answer.
A solve that runs past a deadline is not a crash; a chaos ``drop`` simply
skips delivery.

Requests may be submitted before :meth:`ReproServer.start`; they queue (and
count against capacity) until the lane comes up — which also makes
batching deterministic to test.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from numbers import Real

from repro.adaptive.controller import ADAPTIVE_MODES, AdaptiveController
from repro.adaptive.drift import DriftConfig
from repro.apps.registry import default_dim
from repro.core.exceptions import (
    BackpressureError,
    DeadlineError,
    InvalidParameterError,
    ServerError,
    ShardCrashError,
    ShardUnavailableError,
    WorkerCrashError,
)
from repro.runtime.executor_base import ExecutionMode
from repro.server.faults import FaultInjector, FaultPlan
from repro.server.metrics import ServerMetrics
from repro.server.queue import RequestQueue, ServeRequest
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
#: Seconds :meth:`ReproServer.close` waits for queued and in-flight work.
DRAIN_TIMEOUT_S = 30.0
#: The lane's backoff after the Nth crash since its last clean batch:
#: ``BACKOFF_BASE_S * 2^(N-1)`` capped at ``BACKOFF_CAP_S``, plus up to
#: ``BACKOFF_JITTER`` relative jitter.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
BACKOFF_JITTER = 0.25
#: More than ``RESTART_BUDGET`` crashes inside ``RESTART_WINDOW_S`` seconds
#: open the circuit breaker until the window slides below the budget.
RESTART_BUDGET = 5
RESTART_WINDOW_S = 30.0
#: Extra attempts a crashed batch gets before it fails.
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

    ``queue_capacity`` bounds admitted-but-unscheduled requests (overflow is
    rejected with backpressure); ``max_batch`` bounds how many coalesced
    same-signature requests one coalesced execution serves.

    ``default_deadline_s`` is the per-request deadline applied when the
    client sends none (``None`` disables the default — requests without an
    explicit deadline then wait unboundedly); it is finite seconds
    (:func:`finite_seconds`).

    ``adaptive`` switches the online observation loop
    (:data:`repro.adaptive.ADAPTIVE_MODES`): ``"off"`` builds no
    controller, ``"on"`` (the default) observes latencies and detects
    drift without ever changing the plan traffic runs.
    """

    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    max_batch: int = DEFAULT_MAX_BATCH
    default_deadline_s: float | None = DEFAULT_DEADLINE_S
    adaptive: str = "on"

    def __post_init__(self) -> None:
        """Validate the knobs once, at construction."""
        for name in ("queue_capacity", "max_batch"):
            if getattr(self, name) < 1:
                raise ServerError(f"{name} must be >= 1, got {getattr(self, name)}")
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
    the CLI's ``repro serve`` does exactly that.  ``fault_plan`` arms chaos
    injection (:class:`~repro.server.faults.FaultPlan`); ``drift`` sets the
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
        self._injector = FaultInjector(
            plan=fault_plan if fault_plan is not None else FaultPlan()
        )
        # Under a chaos plan every request reaches the lane, so a fault's
        # ordinal counts requests, not only the memory tier's misses.
        self._answer_hits = not len(self._injector.plan)
        # The online tuning loop, with the drift detector's thresholds;
        # "off" builds nothing and costs nothing on the serving path.
        self.adaptive: AdaptiveController | None = None
        if self.config.adaptive != "off":
            self.adaptive = AdaptiveController(drift)
        # The lane: one thread, its batch in hand, and its crash record,
        # all guarded by one lock.  ``_phase`` reads ``restarting`` until
        # started and while backing off; ``_state`` reads ``dead`` over it
        # while the breaker is open.
        self._lane_lock = threading.Lock()
        self._lane_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._rng = random.Random()
        self._phase = "restarting"
        self._current: list[ServeRequest] | None = None
        # Tickets whose answer a chaos ``drop`` discarded: only their waiter
        # (at the deadline) or close() resolves them.
        self._dropped: list[ServeRequest] = []
        self._consecutive_crashes = 0
        self._crash_times: deque[float] = deque()
        self._counts = dict.fromkeys(
            ("dropped_responses", "restarts", "crashes", "redispatches"), 0
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Start the lane thread; idempotent until :meth:`close`."""
        with self._lifecycle:
            if self._closed:
                raise ServerError("cannot start a closed server")
            if self._started:
                return self
            self._phase = "healthy"
            self._lane_thread = threading.Thread(
                target=self._lane, name="repro-shard-0", daemon=True
            )
            self._lane_thread.start()
            self._started = True
            return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admission and wait for queued + in-flight work to finish.

        Returns ``True`` when everything completed within ``timeout``
        (default :data:`DRAIN_TIMEOUT_S`).  A ticket whose answer a chaos
        ``drop`` discarded is not waited for: no work is left to finish it.
        The server cannot accept requests afterwards.
        """
        timeout = timeout if timeout is not None else DRAIN_TIMEOUT_S
        self._queue.close()
        with self._lifecycle:
            if not self._started:
                # No lane thread exists, so waiting cannot make progress;
                # report the truth immediately (close() fails any stragglers).
                timeout = 0.0
        deadline = time.perf_counter() + timeout
        # ``in_flight`` is read before the dropped tickets, so a ticket that
        # resolves in between can only make the loop wait one more tick.
        while (
            self._queue.depth
            or self.metrics_store.in_flight > self._unanswered_drops()
        ):
            if time.perf_counter() >= deadline:
                return False
            time.sleep(0.01)
        return True

    def close(self) -> None:
        """Graceful shutdown: drain, stop the lane, release owned resources.

        Safe to call more than once.  Requests still queued or in the
        lane's hands after the drain timeout, and dropped ones still
        unanswered, are failed with :class:`~repro.core.exceptions.ServerError`
        so no client blocks forever.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        if not self.drain():
            self._queue.drain_rejected(
                ServerError("server shut down before the request was scheduled")
            )
        with self._lane_lock:
            # Under the lane lock: a batch the lane publishes after this
            # point is failed by the lane itself, one published before by
            # this call.
            self._stop.set()
            stranded = [*(self._current or []), *self._dropped]
            self._dropped = []
        error = ServerError(SHUT_DOWN)
        for request in stranded:
            request.fail(error)
        if self._lane_thread is not None:
            self._lane_thread.join(timeout=2.0)
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
ShardUnavailableError` subclass while the lane's circuit breaker is
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
        if self._state() == "dead":
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
            metrics=self.metrics_store,
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
                return request
        # Count acceptance BEFORE the request becomes visible to the lane, so
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
        (explicit ``deadline_s`` or the config default), at which the
        ticket fails itself with a typed
        :class:`~repro.core.exceptions.DeadlineError`.
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
            supervisor=self._lane_info(),
            adaptive=(
                self.adaptive.snapshot() if self.adaptive is not None else None
            ),
        )

    def readiness(self) -> dict:
        """The ``GET /readyz`` payload: the lane's supervision snapshot.

        ``ready`` is true while the server runs and its lane is healthy;
        external probes should route traffic away on 503.
        """
        info = self._lane_info()
        running = self.running
        return {**info, "ready": running and info["ready"], "running": running}

    def _lane_info(self) -> dict:
        """The ``/metrics`` ``supervisor`` section: state and counters."""
        faults = self._injector.info()
        with self._lane_lock:
            state = self._state_locked(time.perf_counter())
            lane = {
                "state": state,
                "in_flight": self._current is not None,
                **self._counts,
            }
        return {
            **lane,
            "faults_injected": faults["injected"],
            "faults": faults,
            "ready": state == "healthy",
            "circuit_open": state == "dead",
        }

    def _unanswered_drops(self) -> int:
        """How many dropped tickets are still unresolved."""
        with self._lane_lock:
            self._dropped = [request for request in self._dropped if not request.done]
            return len(self._dropped)

    def _state(self) -> str:
        """``healthy``, ``restarting`` or ``dead`` (circuit open)."""
        with self._lane_lock:
            return self._state_locked(time.perf_counter())

    def _state_locked(self, now: float) -> str:
        """Slide the crash window to ``now`` and read the state off it.

        The caller holds the lane lock.  ``dead`` while the window holds
        more than :data:`RESTART_BUDGET` crashes — which ends once it
        slides below.
        """
        window_start = now - RESTART_WINDOW_S
        while self._crash_times and self._crash_times[0] < window_start:
            self._crash_times.popleft()
        if len(self._crash_times) > RESTART_BUDGET:
            return "dead"
        return self._phase

    # ------------------------------------------------------------------
    # The lane
    # ------------------------------------------------------------------
    def _lane(self) -> None:
        """The lane thread: serve coalesced batches until the queue closes.

        Each batch is the oldest request plus its queued same-signature
        peers.  A ticket already resolved (cancelled, or failed by its
        waiter) is skipped, and one whose deadline passed in the queue is
        failed, not executed — no ghost work for absent clients.  The rest
        is identical by construction (one signature → one plan, one
        deterministic answer): **one** execution whose result every ticket
        shares.
        """
        while batch := self._queue.next_batch(self.config.max_batch):
            live = []
            for request in batch:
                if request.done:
                    continue
                if request.expired:
                    request.fail(
                        DeadlineError(
                            f"request {request.app}[dim={request.dim}] expired "
                            "in the queue before execution"
                        ),
                        latency=False,
                    )
                else:
                    live.append(request)
            if live:
                self.metrics_store.record_batch(len(live))
                self._serve(live)

    def _serve(self, batch: list[ServeRequest]) -> None:
        """Run one batch until it is answered, recovering crashes in place."""
        taken_at = time.perf_counter()
        with self._lane_lock:
            dead = self._state_locked(taken_at) == "dead"
            stopped = self._stop.is_set()
            if not (dead or stopped):
                self._current = batch
        if dead or stopped:
            error = ServerError(SHUT_DOWN) if stopped else ShardUnavailableError(
                f"the shard exceeded its restart budget ({RESTART_BUDGET} "
                f"crashes per {RESTART_WINDOW_S:g}s); retry later"
            )
            for request in batch:
                request.fail(error)
            return
        attempts = 0
        while True:
            attempts += 1
            # The latest live deadline bounds the shared execution: a
            # tighter peer's waiter fails itself at its own deadline.
            deadlines = [request.deadline_at for request in batch]
            deadline_at = None if None in deadlines else max(deadlines)
            try:
                self._execute(batch, taken_at, deadline_at)
            except Exception as crash:  # noqa: BLE001 - every escape is a crash
                batch = [request for request in batch if not request.done]
                if self._on_crash(batch, attempts, deadline_at, crash):
                    continue
            else:
                with self._lane_lock:
                    self._consecutive_crashes = 0
            break
        with self._lane_lock:
            self._current = None

    def _execute(
        self, batch: list[ServeRequest], taken_at: float, deadline_at: float | None
    ) -> None:
        """One attempt at a batch: chaos hooks, the solve, delivery."""
        faults = self._injector.take(len(batch))
        kinds = [fault.kind for fault in faults]
        for fault in faults:
            if fault.kind == "slow":
                time.sleep(fault.sleep_s)
        if "kill" in kinds:
            raise ShardCrashError(
                "chaos kill fault on the shard (request ordinal "
                f"{faults[kinds.index('kill')].at})"
            )
        head = batch[0]
        try:
            # Past its deadline by now, the session itself refuses the batch.
            plan, result = self.session.solve_one(
                head.as_request(), head.mode, deadline_at
            )
        except (ShardCrashError, WorkerCrashError):
            raise  # a lane-level crash: recovered by _serve
        except Exception as error:  # noqa: BLE001 - delivered to the waiters
            for request in batch:
                request.fail(error)
            return
        if "drop" in kinds:
            # Chaos: the work happened, the answer vanishes; each waiter
            # fails itself at its deadline.
            for request in batch:
                request.dropped = True
            with self._lane_lock:
                self._counts["dropped_responses"] += 1
                self._dropped = [held for held in self._dropped if not held.done]
                self._dropped.extend(batch)
            return
        # Callers must treat the shared ExecutionResult as read-only, which
        # every shipped consumer (HTTP payload, verification, metrics) does.
        for request in batch:
            request.complete(result)
        if self.adaptive is not None:
            self.adaptive.observe(
                head.signature,
                plan.expected_s,
                time.perf_counter() - taken_at,
                count=len(batch),
            )

    def _on_crash(
        self,
        batch: list[ServeRequest],
        attempts: int,
        deadline_at: float | None,
        crash: BaseException,
    ) -> bool:
        """Count a crash, check the breaker, settle the batch, back off.

        ``batch`` holds the tickets still unresolved.  Returns whether they
        get another attempt; otherwise they are failed before the backoff
        starts.  Once the server is closing, nothing is re-run.
        """
        now = time.perf_counter()
        stopping = self._stop.is_set()
        with self._lane_lock:
            self._counts["crashes"] += 1
            self._consecutive_crashes += 1
            self._crash_times.append(now)
            tripped = self._state_locked(now) == "dead"
            if not tripped:
                self._phase = "restarting"
                delay = min(
                    BACKOFF_CAP_S,
                    BACKOFF_BASE_S * 2 ** (self._consecutive_crashes - 1),
                ) * (1.0 + BACKOFF_JITTER * self._rng.random())
        retry = False
        if batch:  # else answered before the crash: nothing to re-run
            app = batch[0].app
            if deadline_at is not None and now > deadline_at:
                error: BaseException = DeadlineError(
                    f"request {app!r} crashed with its shard and its deadline "
                    "passed before re-dispatch"
                )
            elif stopping:
                error = ServerError(SHUT_DOWN)
            elif attempts > MAX_REDISPATCH:
                error = ShardCrashError(
                    f"request {app!r} failed {attempts} times on a crashing "
                    f"shard (re-dispatch budget {MAX_REDISPATCH}): {crash}"
                )
            elif tripped:
                error = ShardUnavailableError("the shard is gone")
            else:
                retry = True
            if not retry:
                for request in batch:
                    request.fail(error)
        if not tripped:
            self._stop.wait(delay)
            # A close() during the backoff has failed the batch in hand.
            retry = retry and not self._stop.is_set()
            with self._lane_lock:
                self._phase = "healthy"
                self._counts["restarts"] += 1
                self._counts["redispatches"] += retry
        return retry
