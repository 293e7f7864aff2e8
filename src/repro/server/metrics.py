"""Request/aggregate metrics of the serving layer, exposed as plain JSON.

One :class:`ServerMetrics` instance per server collects, under a single
lock:

* request counters — accepted, rejected (backpressure), completed, failed,
  and the number currently in flight;
* a bounded latency reservoir (most recent :data:`DEFAULT_RESERVOIR_SIZE`
  end-to-end service latencies) from which the percentiles are computed;
* the number of solves run — the ``batches`` section, every batch one
  request since requests run to completion on their own threads;
* the server's one per-signature table (:attr:`ServerMetrics.signatures`,
  an :class:`repro.adaptive.observations.ObservationLog`): end-to-end
  latencies per traffic class, beside the adaptive loop's service times
  and drift state; ``signatures`` renders the most recent
  :data:`DEFAULT_SIGNATURE_LIMIT`.

:meth:`ServerMetrics.snapshot` renders everything as a JSON-safe dictionary
— the payload of the HTTP endpoint's ``GET /metrics`` and of the
``--metrics-out`` artifact the CLI writes at shutdown.  The schema is
documented in ``docs/serving.md``.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.adaptive.observations import ObservationLog, SignatureEntry, percentile
from repro.cache.keys import RequestIdentity

#: Number of most-recent latency samples kept for percentiles.
DEFAULT_RESERVOIR_SIZE = 4096

#: How many signatures the ``signatures`` section renders, most recent first.
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
        out[f"p{p}"] = percentile(ordered, p) * 1e3
    out["mean"] = sum(ordered) / len(ordered) * 1e3
    out["max"] = ordered[-1] * 1e3
    out["samples"] = len(ordered)
    return out


class ServerMetrics:
    """Thread-safe counters and latency reservoir.

    All ``record_*`` methods are safe to call from any thread;
    :meth:`snapshot` can be taken at any time, including after shutdown.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_at = time.perf_counter()
        self._latencies_s: deque[float] = deque(maxlen=DEFAULT_RESERVOIR_SIZE)
        self.solves = 0
        #: The per-signature table, shared with the adaptive controller.
        self.signatures = ObservationLog()
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.in_flight = 0
        self.deadline_expired = 0

    # ------------------------------------------------------------------
    def record_accepted(self) -> None:
        """One request was accepted and answered at admission (a memory hit)."""
        with self._lock:
            self.accepted += 1
            self.in_flight += 1

    def record_admitted(self) -> None:
        """One request passed admission control on its way to the solve."""
        with self._lock:
            self.accepted += 1
            self.in_flight += 1
            self.solves += 1

    def record_rejected(self) -> None:
        """One request was refused with backpressure."""
        with self._lock:
            self.rejected += 1

    def record_completed(self, latency_s: float, signature: RequestIdentity) -> SignatureEntry:
        """One request of ``signature`` finished after ``latency_s`` seconds.

        The latency also feeds the signature's table entry, returned.
        """
        with self._lock:
            self.completed += 1
            self.in_flight -= 1
            self._latencies_s.append(latency_s)
        return self.signatures.record(signature, latency_s)

    def record_failed(self, latency_s: float, deadline_expired: bool = False) -> None:
        """One admitted request failed after ``latency_s`` seconds.

        A missed deadline (typed 504) is a failure that *also* increments
        the dedicated ``deadline_expired`` counter in the same lock
        acquisition, so the ``accepted == completed + failed + in_flight``
        invariant is preserved while the chaos gate can still see deadline
        misses separately.
        """
        with self._lock:
            self.failed += 1
            self.deadline_expired += deadline_expired
            self.in_flight -= 1
            self._latencies_s.append(latency_s)

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

        ``queue_*`` are sampled by the caller (the server owns admission)
        and ``caches`` is the session's ``cache_info()`` — both optional so
        the metrics object stays reusable outside a full server.  ``batches``
        keeps the schema of the coalescing scheduler this server no longer
        has: each solve is a batch of one.  ``cache``
        is the persistent result cache's tier counters
        (:meth:`repro.cache.ResultCache.info`); it is always present in the
        snapshot — ``None`` when no ``--cache-dir`` is configured — so
        artifact consumers can distinguish "cache off" from "old schema".
        ``adaptive`` (the adaptive controller's
        :meth:`~repro.adaptive.AdaptiveController.snapshot`) follows the
        same always-present convention: ``None`` means ``--adaptive off``.
        ``supervisor`` is the supervision snapshot (crashes, re-dispatches,
        dropped responses, faults injected); included when provided.
        """
        with self._lock:
            uptime = self.uptime_s
            solves = self.solves
            snapshot = {
                "uptime_s": uptime,
                "requests": {
                    "accepted": self.accepted,
                    "rejected": self.rejected,
                    "completed": self.completed,
                    "failed": self.failed,
                    "in_flight": self.in_flight,
                    "deadline_expired": self.deadline_expired,
                },
                "queue": {
                    "depth": queue_depth,
                    "capacity": queue_capacity,
                    "high_water": queue_high_water,
                },
                "batches": {
                    "count": solves,
                    "mean_size": 1.0 if solves else 0.0,
                    "max_size": 1 if solves else 0,
                    "histogram": {"1": solves} if solves else {},
                },
                "latency_ms": summarise_latencies(list(self._latencies_s)),
                "throughput_rps": (self.completed / uptime) if uptime > 0 else 0.0,
            }
        snapshot["signatures"] = {
            entry.signature.label: entry.latency.snapshot()
            for entry in self.signatures.entries()[:DEFAULT_SIGNATURE_LIMIT]
        }
        snapshot["cache"] = cache
        snapshot["adaptive"] = adaptive
        if caches is not None:
            snapshot["caches"] = caches
        if supervisor is not None:
            snapshot["supervisor"] = supervisor
        return snapshot
