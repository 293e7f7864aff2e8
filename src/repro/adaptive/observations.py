"""The per-signature table: everything a server knows about each traffic class.

An :class:`ObservationLog` holds one :class:`SignatureEntry` per request
signature, bounded LRU-style so an adversarial stream of distinct
signatures cannot grow memory.  An entry carries the end-to-end latency
stream ``/metrics`` renders and, with the adaptive loop on, the
service-time stream and the detector's drift state.  A :class:`SignatureStats`
tracks one stream exactly and cheaply: count/mean/M2/min/max with
Welford's streaming update (the constant-space moment tracking advocated
by the probabilistic-loops literature) plus a small bounded reservoir of
recent latencies for percentiles.

Signatures are the server's request labels, a
:class:`repro.cache.RequestIdentity` with its mode filled in at admission,
so cache keys, ``/metrics`` and the adaptive loop all speak about the same
traffic classes under one label.  This module must stay import-free of
``repro.server`` — the serving layer imports the adaptive layer, never
the reverse.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque

from repro.cache.keys import RequestIdentity

#: Default bound on distinct signatures an ObservationLog holds.
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
    """One latency stream: Welford moments and a reservoir, under one lock.

    ``expected_s`` is the executed plan's predicted latency (seconds),
    which the adaptive controller writes on the service-time stream so
    snapshots show predicted beside observed; ``None`` when the plan has
    none.
    """

    def __init__(self, reservoir_size: int = DEFAULT_RESERVOIR) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min_s = math.inf
        self.max_s = -math.inf
        self._reservoir: deque[float] = deque(maxlen=max(1, int(reservoir_size)))
        self.expected_s: float | None = None

    def record(self, latency_s: float) -> None:
        """Fold one observation of ``latency_s`` into the stream."""
        latency_s = float(latency_s)
        with self._lock:
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


class SignatureEntry:
    """Everything one server knows about one traffic class.

    ``latency`` is the end-to-end stream.  The adaptive loop fills the
    rest: ``service``, the service-time stream, at the first observation,
    and ``drift``, the :class:`~repro.adaptive.drift.DriftState` that only
    :mod:`repro.adaptive.drift` reads or writes, at the first assessment.
    Both leave with the entry, so an evicted signature calibrates again.
    """

    __slots__ = ("signature", "latency", "service", "drift")

    def __init__(self, signature: RequestIdentity) -> None:
        self.signature = signature
        self.latency = SignatureStats()
        self.service: SignatureStats | None = None
        self.drift = None


class ObservationLog:
    """Bounded per-signature table: an LRU of :class:`SignatureEntry`.

    :meth:`record` is the one lookup a completed request makes; past
    ``maxsize`` signatures the least recently updated entry leaves with
    all its state.
    """

    def __init__(self, maxsize: int = DEFAULT_SIGNATURES) -> None:
        if maxsize < 1:
            raise ValueError(f"ObservationLog maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: OrderedDict[RequestIdentity, SignatureEntry] = OrderedDict()

    def record(self, signature: RequestIdentity, latency_s: float) -> SignatureEntry:
        """Fold an end-to-end latency; return the signature's (live) entry."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                entry = self._entries[signature] = SignatureEntry(signature)
                if len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(signature)
        entry.latency.record(latency_s)
        return entry

    def entries(self) -> list[SignatureEntry]:
        """Every entry, most recently updated first."""
        with self._lock:
            return list(reversed(self._entries.values()))
