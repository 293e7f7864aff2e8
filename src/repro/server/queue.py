"""The serving layer's bounded request queue with admission control.

Requests enter the server through exactly one door: :meth:`RequestQueue.submit`.
Admission control happens there — a queue at capacity rejects immediately
with :class:`repro.core.exceptions.BackpressureError` instead of letting
latency grow without bound, which is the explicit-backpressure half of the
serving contract (the other half, batching, lives in
:mod:`repro.server.service`).

The queue also implements *signature-aware draining*: the lane thread
calling :meth:`RequestQueue.next_batch` receives the oldest request **plus
every queued request with the same signature** (up to the batch bound), even
when other signatures are interleaved between them.  Same-signature requests
resolve to one tuned plan and reuse one warm worker pool, so handing them to
one :meth:`repro.session.Session.solve_one` execution amortises the
per-plan work across the whole group.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cache.keys import RequestIdentity, request_identity
from repro.core.exceptions import BackpressureError, DeadlineError, ServerError

if TYPE_CHECKING:
    from repro.server.metrics import ServerMetrics


@dataclass
class ServeRequest:
    """One queued request and its completion state.

    Created by :meth:`repro.server.ReproServer.submit`; callers hold it as a
    ticket and block on :meth:`result`.  The ticket resolves **exactly
    once**: the first :meth:`complete` / :meth:`fail` / :meth:`cancel`
    wins, whoever makes it (the lane, the waiter at its deadline, a
    cancelling client, shutdown), and only the winner records the outcome
    in :attr:`metrics`, before the waiter wakes.
    """

    app: str
    dim: int | None
    mode: str | None
    plan_kwargs: dict
    enqueued_at: float
    #: Absolute ``time.perf_counter()`` deadline; ``None`` means unbounded.
    deadline_at: float | None = None
    #: The server's :class:`~repro.server.metrics.ServerMetrics`, which the
    #: resolving call records the outcome in (``None``: nothing records).
    metrics: ServerMetrics | None = field(default=None, repr=False)
    #: The request's :class:`~repro.cache.RequestIdentity` without its
    #: mode: the key the session's plan cache and result tiers look it up
    #: under.  Fixed once, at admission, and carried to the lane.
    identity: RequestIdentity = field(init=False)
    #: The coalescing key: :attr:`identity` with the mode.  Equal signatures
    #: resolve to the same plan and answer, so the server may serve them in
    #: one batch; ``/metrics`` and the adaptive loop label traffic by it.
    signature: RequestIdentity = field(init=False)
    #: Set by the lane when a chaos ``drop`` fault discarded the answer.
    dropped: bool = field(default=False, repr=False)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _result: Any = field(default=None, repr=False)
    _error: BaseException | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        """Name the request once, at admission time.

        A value the identity cannot canonicalise raises a typed
        :class:`~repro.core.exceptions.InvalidParameterError` here, before
        the request is queued.
        """
        app_kwargs = dict(self.plan_kwargs)
        policy = app_kwargs.pop("policy", None)
        self.identity = request_identity(self.app, self.dim, app_kwargs, policy)
        self.signature = self.identity._replace(mode=self.mode)

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

    @property
    def expired(self) -> bool:
        """True once the request's deadline (if any) has passed."""
        return (
            self.deadline_at is not None
            and time.perf_counter() > self.deadline_at
        )

    def cancel(self) -> bool:
        """Abandon the request; return whether it was still pending.

        A pending ticket resolves at once with a
        :class:`~repro.core.exceptions.ServerError` and counts as
        cancelled; the lane skips it if it is still queued (no ghost work
        for a client that gave up) and discards its answer if it is
        mid-execution — compute cannot be aborted part-way.
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

    def fail(self, error: BaseException, latency: bool = True) -> bool:
        """Deliver a failure and wake the waiter; False when already resolved.

        ``latency=False`` for a request that never reached the lane (expired
        in the queue, stranded at shutdown): it counts as failed but adds no
        latency sample.  A :class:`~repro.core.exceptions.DeadlineError` also
        counts in ``deadline_expired``.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self._error = error
            if self.metrics is not None:
                self.metrics.record_failed(
                    time.perf_counter() - self.enqueued_at if latency else None,
                    deadline_expired=isinstance(error, DeadlineError),
                )
            self._done.set()
        return True

    def result(self, timeout: float | None = None) -> Any:
        """Block until the request resolves; return or re-raise its outcome.

        The waiter enforces the request's own deadline: once
        :attr:`deadline_at` passes unanswered, it fails the ticket with a
        :class:`~repro.core.exceptions.DeadlineError` itself — unless the
        lane answered first, whose answer then wins.  A ``timeout`` that
        ends before the deadline raises
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


class RequestQueue:
    """Bounded FIFO of :class:`ServeRequest` with coalescing batch drains.

    ``capacity`` bounds the number of *queued* (admitted, not yet scheduled)
    requests; :meth:`submit` beyond it raises
    :class:`~repro.core.exceptions.BackpressureError`.  :meth:`close` stops
    admission and wakes every waiting drainer so the server can drain and
    exit.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServerError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._items: deque[ServeRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False
        #: Highest queue depth ever observed (served to the metrics page).
        self.high_water = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of admitted requests not yet taken by the lane."""
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` stopped admission."""
        with self._cond:
            return self._closed

    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> ServeRequest:
        """Admit one request, or reject it with explicit backpressure.

        Raises :class:`~repro.core.exceptions.BackpressureError` when the
        queue is at capacity and :class:`~repro.core.exceptions.ServerError`
        when the queue was closed.
        """
        with self._cond:
            if self._closed:
                raise ServerError("request queue is closed (server shutting down)")
            if len(self._items) >= self.capacity:
                raise BackpressureError(
                    f"request queue is full ({self.capacity} requests queued); "
                    "retry with backoff or reduce the offered load"
                )
            self._items.append(request)
            self.high_water = max(self.high_water, len(self._items))
            self._cond.notify()
            return request

    def next_batch(
        self, max_batch: int, timeout: float | None = None
    ) -> list[ServeRequest]:
        """The oldest request plus queued same-signature peers (coalescing).

        Blocks up to ``timeout`` seconds for a request to arrive; returns an
        empty list on timeout or once the queue is closed *and* drained.
        Requests with other signatures keep their relative order.  The scan
        stops as soon as the batch is full, so one drain touches at most the
        prefix it needed — not the whole backlog.
        """
        with self._cond:
            while not self._items:
                if self._closed:
                    return []
                if not self._cond.wait(timeout):
                    return []
            head = self._items.popleft()
            batch = [head]
            if max_batch > 1 and self._items:
                skipped: deque[ServeRequest] = deque()
                while self._items and len(batch) < max_batch:
                    candidate = self._items.popleft()
                    if candidate.signature == head.signature:
                        batch.append(candidate)
                    else:
                        skipped.append(candidate)
                skipped.extend(self._items)  # untouched tail stays behind
                self._items = skipped
            return batch

    def close(self) -> None:
        """Stop admission and wake every waiting drainer."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain_rejected(self, error: BaseException) -> list[ServeRequest]:
        """Fail every still-queued request with ``error``; return them.

        Used by non-graceful shutdown so no client blocks forever on a
        request that will never run; each failure is recorded without a
        latency sample.
        """
        with self._cond:
            failed: list[ServeRequest] = []
            while self._items:
                request = self._items.popleft()
                request.fail(error, latency=False)
                failed.append(request)
            return failed
