"""Request/aggregate metrics of the serving layer, exposed as plain JSON.

One :class:`ServerMetrics` instance per server collects, under a single
lock:

* request counters — accepted, rejected (backpressure), completed, failed,
  and the number currently in flight;
* a bounded latency reservoir (most recent ``reservoir_size`` end-to-end
  service latencies) from which the percentiles are computed;
* a batch-size histogram, the direct evidence of how well the coalescing
  scheduler is amortising plan resolution;
* a bounded per-signature latency breakdown (one
  :class:`repro.adaptive.observations.SignatureStats` per traffic class,
  LRU over at most ``signature_limit`` signatures) — what the drift
  detector reasons about and what operators need to see per workload.

:meth:`ServerMetrics.snapshot` renders everything as a JSON-safe dictionary
— the payload of the HTTP endpoint's ``GET /metrics`` and of the
``--metrics-out`` artifact the CLI writes at shutdown.  The schema is
documented in ``docs/serving.md``.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict, deque
from typing import Hashable

from repro.adaptive.observations import SignatureStats, signature_label

#: Default number of most-recent latency samples kept for percentiles.
DEFAULT_RESERVOIR_SIZE = 4096

#: Default bound on distinct signatures in the per-signature breakdown.
DEFAULT_SIGNATURE_LIMIT = 64

#: Percentile points reported in every snapshot.
PERCENTILES = (50, 90, 95, 99)


def summarise_latencies(latencies_s: list[float]) -> dict[str, float | int]:
    """Percentile/mean/max summary (in milliseconds) of latency samples.

    Shared by the server metrics and the load generator so both artifacts
    speak the same schema.  Returns zeroed fields for an empty sample set.
    """
    if not latencies_s:
        return {f"p{p}": 0.0 for p in PERCENTILES} | {
            "mean": 0.0,
            "max": 0.0,
            "samples": 0,
        }
    ordered = sorted(latencies_s)
    out: dict[str, float | int] = {}
    for p in PERCENTILES:
        rank = min(len(ordered) - 1, max(0, round(p / 100 * (len(ordered) - 1))))
        out[f"p{p}"] = ordered[rank] * 1e3
    out["mean"] = sum(ordered) / len(ordered) * 1e3
    out["max"] = ordered[-1] * 1e3
    out["samples"] = len(ordered)
    return out


class ServerMetrics:
    """Thread-safe counters, latency reservoir and batch histogram.

    All ``record_*`` methods are safe to call from any thread (HTTP handler
    threads, shard threads, the admission path); :meth:`snapshot` can be
    taken at any time, including after shutdown.
    """

    def __init__(
        self,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        signature_limit: int = DEFAULT_SIGNATURE_LIMIT,
    ) -> None:
        self._lock = threading.Lock()
        self._started_at = time.perf_counter()
        self._latencies_s: deque[float] = deque(maxlen=max(1, int(reservoir_size)))
        self._batch_sizes: Counter[int] = Counter()
        self._signature_limit = max(1, int(signature_limit))
        self._signatures: OrderedDict[Hashable, SignatureStats] = OrderedDict()
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.in_flight = 0
        self.deadline_expired = 0

    # ------------------------------------------------------------------
    def record_accepted(self) -> None:
        """One request passed admission control."""
        with self._lock:
            self.accepted += 1
            self.in_flight += 1

    def record_rejected(self, rollback_accept: bool = False) -> None:
        """One request was refused with backpressure.

        ``rollback_accept`` undoes a prior :meth:`record_accepted` in the
        same lock acquisition — for callers that count acceptance *before*
        publishing the request, so completion can never be observed ahead
        of acceptance.
        """
        with self._lock:
            self.rejected += 1
            if rollback_accept:
                self.accepted -= 1
                self.in_flight -= 1

    def record_completed(
        self, latency_s: float, signature: Hashable = None
    ) -> None:
        """One request finished successfully after ``latency_s`` seconds.

        With ``signature`` given, the latency also feeds that traffic
        class's per-signature breakdown (bounded: the least-recently
        updated signature is dropped past ``signature_limit``).
        """
        with self._lock:
            self.completed += 1
            self.in_flight -= 1
            self._latencies_s.append(latency_s)
            if signature is not None:
                stats = self._signatures.get(signature)
                if stats is None:
                    stats = SignatureStats()
                    self._signatures[signature] = stats
                else:
                    self._signatures.move_to_end(signature)
                while len(self._signatures) > self._signature_limit:
                    self._signatures.popitem(last=False)
        if signature is not None:
            stats.record(latency_s)

    def record_failed(
        self, latency_s: float | None, deadline_expired: bool = False
    ) -> None:
        """One admitted request failed after ``latency_s`` seconds.

        Pass ``None`` for requests that never executed (e.g. stranded in
        the queue at shutdown): they count as failed but contribute no
        latency sample, for the same reason as :meth:`record_cancelled`.
        A missed deadline (typed 504) is a failure that *also* increments
        the dedicated ``deadline_expired`` counter in the same lock
        acquisition, so the ``accepted == completed + failed + cancelled +
        in_flight`` invariant is preserved while the chaos gate can still
        see deadline misses separately.
        """
        with self._lock:
            self.failed += 1
            self.deadline_expired += deadline_expired
            self.in_flight -= 1
            if latency_s is not None:
                self._latencies_s.append(latency_s)

    def record_cancelled(self) -> None:
        """One admitted request was abandoned by its waiter and skipped.

        No latency sample: the request never executed, so its queue time
        would only distort the service-latency percentiles.
        """
        with self._lock:
            self.cancelled += 1
            self.in_flight -= 1

    def rollback_accepted(self) -> None:
        """Undo one :meth:`record_accepted` for a never-admitted request.

        Used when the queue is closed (shutdown): unlike backpressure this
        is not load shedding, so it must not inflate the rejected counter.
        """
        with self._lock:
            self.accepted -= 1
            self.in_flight -= 1

    def record_batch(self, size: int) -> None:
        """A shard took one batch of ``size`` coalesced requests."""
        with self._lock:
            self._batch_sizes[int(size)] += 1

    # ------------------------------------------------------------------
    @property
    def uptime_s(self) -> float:
        """Seconds since the metrics (i.e. the server) were created."""
        return time.perf_counter() - self._started_at

    def snapshot(
        self,
        queue_depth: int | None = None,
        queue_capacity: int | None = None,
        queue_high_water: int | None = None,
        caches: dict | None = None,
        cache: dict | None = None,
        supervisor: dict | None = None,
        adaptive: dict | None = None,
    ) -> dict:
        """JSON-safe view of everything collected so far.

        ``queue_*`` are sampled by the caller (the queue owns its own lock)
        and ``caches`` is the session's ``cache_info()`` — both optional so
        the metrics object stays reusable outside a full server.  ``cache``
        is the persistent result cache's tier counters
        (:meth:`repro.cache.ResultCache.info`); it is always present in the
        snapshot — ``None`` when no ``--cache-dir`` is configured — so
        artifact consumers can distinguish "cache off" from "old schema".
        ``adaptive`` (the adaptive controller's
        :meth:`~repro.adaptive.AdaptiveController.snapshot`) follows the
        same always-present convention: ``None`` means ``--adaptive off``.
        ``supervisor`` is the shard supervisor's :meth:`info` (shard states,
        restarts, re-dispatches, faults survived); included when provided.
        """
        with self._lock:
            uptime = self.uptime_s
            batches = sum(self._batch_sizes.values())
            batched_requests = sum(s * n for s, n in self._batch_sizes.items())
            snapshot = {
                "uptime_s": uptime,
                "requests": {
                    "accepted": self.accepted,
                    "rejected": self.rejected,
                    "completed": self.completed,
                    "failed": self.failed,
                    "cancelled": self.cancelled,
                    "in_flight": self.in_flight,
                    "deadline_expired": self.deadline_expired,
                },
                "queue": {
                    "depth": queue_depth,
                    "capacity": queue_capacity,
                    "high_water": queue_high_water,
                },
                "batches": {
                    "count": batches,
                    "mean_size": (batched_requests / batches) if batches else 0.0,
                    "max_size": max(self._batch_sizes, default=0),
                    "histogram": {
                        str(size): count
                        for size, count in sorted(self._batch_sizes.items())
                    },
                },
                "latency_ms": summarise_latencies(list(self._latencies_s)),
                "throughput_rps": (self.completed / uptime) if uptime > 0 else 0.0,
            }
            per_signature = list(self._signatures.items())[::-1]
        snapshot["signatures"] = {
            (
                signature_label(sig)
                if isinstance(sig, tuple) and len(sig) == 4
                else repr(sig)
            ): stats.snapshot()
            for sig, stats in per_signature
        }
        snapshot["cache"] = cache
        snapshot["adaptive"] = adaptive
        if caches is not None:
            snapshot["caches"] = caches
        if supervisor is not None:
            snapshot["supervisor"] = supervisor
        return snapshot
