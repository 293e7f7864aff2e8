"""A bounded FIFO of tickets with same-signature drains.

It is what admission was while one lane thread served coalesced batches
from it.  The server now solves each request on the thread that admits it
(:mod:`repro.server.service`) and uses none of this; ``bench/layers.py``
still prices one hand-off through it (``server.queue.handoff_us``), so it
stays until that probe measures something the server does.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING

from repro.core.exceptions import BackpressureError, ServerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.service import ServeRequest


class RequestQueue:
    """Bounded FIFO of :class:`~repro.server.service.ServeRequest` tickets.

    :meth:`submit` past ``capacity`` raises
    :class:`~repro.core.exceptions.BackpressureError`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServerError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._items: deque[ServeRequest] = deque()
        self._cond = threading.Condition()

    def submit(self, request: ServeRequest) -> ServeRequest:
        """Queue one request, or refuse it with explicit backpressure."""
        with self._cond:
            if len(self._items) >= self.capacity:
                raise BackpressureError(
                    f"request queue is full ({self.capacity} requests queued)"
                )
            self._items.append(request)
            self._cond.notify()
            return request

    def next_batch(self, max_batch: int, timeout: float | None = None) -> list[ServeRequest]:
        """The oldest request plus queued same-signature peers, ``max_batch`` at most.

        Waits up to ``timeout`` seconds for a request; ``[]`` when none came.
        Requests of other signatures keep their order.
        """
        with self._cond:
            if not self._cond.wait_for(lambda: self._items, timeout):
                return []
            head = self._items.popleft()
            batch, skipped = [head], deque()
            while self._items and len(batch) < max_batch:
                candidate = self._items.popleft()
                (batch if candidate.signature == head.signature else skipped).append(candidate)
            skipped.extend(self._items)
            self._items = skipped
            return batch
