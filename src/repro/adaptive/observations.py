"""Streaming latency observations keyed by request signature.

Every served request is a timed observation the tuner never sees during
offline profiling.  This module collects those observations cheaply and
exactly: a :class:`SignatureStats` tracks count/mean/M2/min/max with
Welford's streaming update (the constant-space moment tracking advocated
by the probabilistic-loops literature — no raw sample log needed for mean
or variance) plus a small bounded reservoir of recent latencies so
percentiles stay available for operators.  An :class:`ObservationLog`
owns one :class:`SignatureStats` per request signature, bounded LRU-style
so an adversarial stream of distinct signatures cannot grow memory.

Signatures are the server queue's coalescing key, a
:class:`repro.cache.RequestIdentity` with its mode filled in at admission,
so cache keys, batch coalescing, ``/metrics`` and adaptive-tuning
observations all speak about the same traffic classes under one label.

This module must stay import-free of ``repro.server`` — the serving
layer imports the adaptive layer, never the reverse.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque

from repro.cache.keys import RequestIdentity

#: Default bound on distinct signatures an ObservationLog tracks.
DEFAULT_SIGNATURES = 256
#: Default per-signature reservoir of recent raw latencies (for p50/p95).
DEFAULT_RESERVOIR = 128
#: Percentiles reported by :meth:`SignatureStats.snapshot`.
SNAPSHOT_PERCENTILES = (50, 95)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0 when empty).

    The one rank formula: the adaptive layer and ``/metrics``
    (:func:`repro.server.metrics.summarise_latencies`) both call it, so
    they report comparable numbers.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(pct / 100 * (len(ordered) - 1))))
    return ordered[rank]


class SignatureStats:
    """Streaming latency statistics of one traffic class.

    Welford's single-pass update keeps count, mean and the centred sum of
    squares (M2) exactly, in O(1) space, under one lock; a bounded deque
    of recent samples backs the percentile view.  ``expected_s`` is a
    slot the adaptive controller fills with the active plan's predicted
    latency so snapshots can show predicted-vs-observed side by side.
    """

    def __init__(self, reservoir_size: int = DEFAULT_RESERVOIR) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min_s = math.inf
        self.max_s = -math.inf
        self._reservoir: deque[float] = deque(maxlen=max(1, int(reservoir_size)))
        #: The active plan's predicted latency for this signature (seconds),
        #: filled by the adaptive controller; ``None`` when the plan has none.
        self.expected_s: float | None = None

    def record(self, latency_s: float, count: int = 1) -> None:
        """Fold ``count`` observations of ``latency_s`` into the stream."""
        latency_s = float(latency_s)
        with self._lock:
            for _ in range(max(1, int(count))):
                self.count += 1
                delta = latency_s - self.mean
                self.mean += delta / self.count
                self._m2 += delta * (latency_s - self.mean)
            self.min_s = min(self.min_s, latency_s)
            self.max_s = max(self.max_s, latency_s)
            self._reservoir.append(latency_s)

    def snapshot(self) -> dict:
        """JSON-safe summary: count, moments and reservoir percentiles."""
        with self._lock:
            count = self.count
            mean = self.mean
            m2 = self._m2
            min_s = self.min_s if self.count else 0.0
            max_s = self.max_s if self.count else 0.0
            samples = list(self._reservoir)
            expected = self.expected_s
        std = math.sqrt(m2 / (count - 1)) if count > 1 else 0.0
        summary = {
            "count": count,
            "mean_ms": mean * 1e3,
            "std_ms": std * 1e3,
            "min_ms": min_s * 1e3,
            "max_ms": max_s * 1e3,
            "expected_ms": expected * 1e3 if expected is not None else None,
        }
        for pct in SNAPSHOT_PERCENTILES:
            summary[f"p{pct}_ms"] = percentile(samples, pct) * 1e3
        return summary


class ObservationLog:
    """Bounded per-signature observation store (LRU over signatures).

    ``record`` folds one (possibly batch-coalesced) latency observation
    into the signature's :class:`SignatureStats`, creating and — beyond
    ``maxsize`` distinct signatures — evicting least-recently-updated
    entries.  ``observations`` counts every folded request, matching the
    server's completed-request counter when fed from batch completion.
    """

    def __init__(self, maxsize: int = DEFAULT_SIGNATURES) -> None:
        if maxsize < 1:
            raise ValueError(f"ObservationLog maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._lock = threading.RLock()
        self._stats: OrderedDict[RequestIdentity, SignatureStats] = OrderedDict()
        self.observations = 0
        self.evictions = 0

    def record(
        self, signature: RequestIdentity, latency_s: float, count: int = 1
    ) -> SignatureStats:
        """Fold an observation; return the signature's (live) stats."""
        count = max(1, int(count))
        with self._lock:
            stats = self._stats.get(signature)
            if stats is None:
                stats = SignatureStats()
                self._stats[signature] = stats
            else:
                self._stats.move_to_end(signature)
            while len(self._stats) > self.maxsize:
                self._stats.popitem(last=False)
                self.evictions += 1
            self.observations += count
        stats.record(latency_s, count)
        return stats

    def snapshot(self, limit: int | None = None) -> dict:
        """JSON-safe view: totals plus per-signature summaries.

        Signatures are reported most-recently-updated first; ``limit``
        bounds how many appear (totals always cover everything).
        """
        with self._lock:
            items = list(self._stats.items())[::-1]
            observations = self.observations
            evictions = self.evictions
        tracked = len(items)
        if limit is not None:
            items = items[: max(0, int(limit))]
        return {
            "observations": observations,
            "tracked_signatures": tracked,
            "evictions": evictions,
            "signatures": {sig.label: stats.snapshot() for sig, stats in items},
        }
