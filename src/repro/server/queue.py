"""The serving layer's bounded request queue with admission control.

Requests enter the server through exactly one door: :meth:`RequestQueue.submit`.
Admission control happens there — a queue at capacity rejects immediately
with :class:`repro.core.exceptions.BackpressureError` instead of letting
latency grow without bound, which is the explicit-backpressure half of the
serving contract (the other half, batching, lives in
:mod:`repro.server.service`).

The queue also implements *signature-aware draining*: a shard thread
calling :meth:`RequestQueue.next_batch` receives the oldest request **plus
every queued request with the same signature** (up to the batch bound), even
when other signatures are interleaved between them.  Same-signature requests
resolve to one tuned plan and reuse one warm worker pool, so handing them to
:meth:`repro.session.Session.solve_many` as one batch amortises the per-plan
work across the whole group.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.adaptive.observations import observation_signature
from repro.core.exceptions import BackpressureError, DeadlineError, ServerError

#: Hashable request signature: ``(app, dim, mode, sorted plan overrides)``.
Signature = tuple


def request_signature(
    app: str, dim: int | None, mode: str | None, plan_kwargs: dict
) -> Signature:
    """The coalescing key of one request.

    Two requests with equal signatures resolve to the same tuned plan (same
    application instance, same overrides, same execution mode), so the
    server may serve them in one batch.  Delegates to
    :func:`repro.adaptive.observations.observation_signature` — the one
    canonical signature implementation — so coalescing keys and adaptive
    observation keys can never diverge.
    """
    return observation_signature(app, dim, mode, plan_kwargs)


@dataclass
class ServeRequest:
    """One queued request and its completion state.

    Created by :meth:`repro.server.ReproServer.submit`; callers hold it as a
    ticket and block on :meth:`result`.  The thread that resolves its batch
    fills exactly one of ``_result`` / ``_error`` and sets the event.
    """

    app: str
    dim: int | None
    mode: str | None
    plan_kwargs: dict
    enqueued_at: float
    #: Absolute ``time.perf_counter()`` deadline; ``None`` means unbounded.
    deadline_at: float | None = None
    signature: Signature = field(default=None)  # type: ignore[assignment]
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _result: Any = field(default=None, repr=False)
    _error: BaseException | None = field(default=None, repr=False)
    _cancelled: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        """Derive the coalescing signature once, at admission time."""
        if self.signature is None:
            self.signature = request_signature(
                self.app, self.dim, self.mode, self.plan_kwargs
            )

    # ------------------------------------------------------------------
    def as_request(self) -> dict:
        """The :meth:`repro.session.Session.solve_many` mapping form."""
        return {"app": self.app, "dim": self.dim, **self.plan_kwargs}

    @property
    def done(self) -> bool:
        """True once the request completed (successfully or not)."""
        return self._done.is_set()

    @property
    def cancelled(self) -> bool:
        """True once the waiter abandoned the request (best-effort)."""
        return self._cancelled

    @property
    def expired(self) -> bool:
        """True once the request's deadline (if any) has passed."""
        return (
            self.deadline_at is not None
            and time.perf_counter() > self.deadline_at
        )

    def cancel(self) -> bool:
        """Mark the request abandoned; return whether it was still pending.

        Best-effort: a still-queued request is skipped by the shards
        (no ghost work for a client that gave up); one already mid-execution
        completes normally — compute cannot be aborted part-way.
        """
        if self._done.is_set():
            return False
        self._cancelled = True
        return True

    def complete(self, result: Any) -> None:
        """Deliver the execution result and wake the waiting client."""
        self._result = result
        self._done.set()

    def fail(self, error: BaseException) -> None:
        """Deliver a failure and wake the waiting client."""
        self._error = error
        self._done.set()

    def result(self, timeout: float | None = None) -> Any:
        """Block until the request completes; return or re-raise its outcome.

        With ``timeout=None`` the wait is bounded by the request's own
        deadline (plus a short grace for the server to deliver the typed
        failure first): a deadline-carrying ticket raises
        :class:`~repro.core.exceptions.DeadlineError` instead of blocking
        forever.  An explicit ``timeout`` that expires first raises
        :class:`~repro.core.exceptions.ServerError`.
        """
        if timeout is None and self.deadline_at is not None:
            # Grace of 0.25s: the server fails expired tickets with the
            # typed DeadlineError; this local fallback only fires when the
            # server never answered at all.
            remaining = self.deadline_at + 0.25 - time.perf_counter()
            if not self._done.wait(max(0.0, remaining)):
                raise DeadlineError(
                    f"request {self.app}[dim={self.dim}] missed its deadline "
                    "and the server delivered no response"
                )
        elif not self._done.wait(timeout):
            raise ServerError(
                f"request {self.app}[dim={self.dim}] did not complete "
                f"within {timeout:g}s"
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
        """Number of admitted requests not yet taken by a shard."""
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
        request that will never run; the caller accounts the returned
        requests in its metrics.
        """
        with self._cond:
            failed: list[ServeRequest] = []
            while self._items:
                request = self._items.popleft()
                request.fail(error)
                failed.append(request)
            return failed
