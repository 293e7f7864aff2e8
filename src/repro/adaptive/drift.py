"""Latency drift detection: does a plan still run as fast as it did?

Hosts change — thermal throttling, noisy neighbours, a cache directory
filling up — and a plan that was fast when it was resolved silently
slows down.  The :class:`DriftDetector` watches each signature's
*observed* service times and decides, deterministically, when they no
longer match the signature's own early behaviour.  It never needs a
prediction (``ResolvedPlan.expected_s``), so a plan without one (the
``local`` rule's) is watched like any other.

The rule is calibrated rather than absolute, because CI hosts and laptops
disagree wildly on base latency:

1. the first ``min_samples`` observations of a signature form its
   **reference** (their running mean) — nothing is assessed while
   calibrating;
2. an observation **breaches** when it exceeds ``ratio_threshold`` × the
   reference *and* the reference plus ``min_excess_s`` — the absolute
   floor keeps microsecond-scale noise (3× of nothing is still nothing)
   from breaching;
3. only ``hysteresis`` *consecutive* breaching executions latch a
   :class:`DriftEvent` — one garbage-collection pause or scheduler burp
   cannot flap the detector on a noisy 1-core host;
4. a latched signature needs ``hysteresis`` consecutive clean executions
   to **recover**; re-drifting afterwards fires a fresh event.

Assessment is per *execution* (one coalesced batch = one assessment), so
a single slow batch counts once no matter how many requests it answered.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from numbers import Integral, Real

from repro.cache.keys import RequestIdentity
from repro.core.exceptions import UsageError

#: Bound on remembered drift events (oldest dropped first).
EVENT_HISTORY = 64
#: Bound on per-signature detector states tracked at once.
STATE_LIMIT = 512


@dataclass(frozen=True)
class DriftConfig:
    """Thresholds of one :class:`DriftDetector` (validated at construction).

    ``ratio_threshold`` multiplies the calibrated reference mean;
    ``min_samples`` sets the calibration length (and the minimum evidence
    before any event); ``hysteresis`` is the consecutive-breach latch
    count; ``min_excess_s`` the absolute slowdown floor.
    """

    ratio_threshold: float = 3.0
    min_samples: int = 5
    hysteresis: int = 2
    min_excess_s: float = 0.05

    def __post_init__(self) -> None:
        """Reject thresholds that are impossible or can never fire, typed."""
        for name, kind in (("ratio_threshold", Real), ("min_excess_s", Real),
                           ("min_samples", Integral), ("hysteresis", Integral)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
                raise UsageError(f"{name} must be a finite {kind.__name__.lower()}, got {value!r}")
        if self.min_samples < 1:
            raise UsageError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.hysteresis < 1:
            raise UsageError(f"hysteresis must be >= 1, got {self.hysteresis}")
        if self.ratio_threshold <= 1.0:
            raise UsageError(
                f"ratio_threshold must be > 1, got {self.ratio_threshold}"
            )
        if self.min_excess_s < 0:
            raise UsageError(
                f"min_excess_s must be >= 0, got {self.min_excess_s}"
            )


@dataclass(frozen=True)
class DriftEvent:
    """One latched drift detection for one signature.

    ``observed_s`` is the execution that completed the hysteresis run,
    ``reference_s`` the calibrated baseline mean it was judged against,
    ``expected_s`` the active plan's offline prediction (``None`` when the
    plan has none), and ``assessment`` the signature's execution
    ordinal at which the event latched.
    """

    signature: RequestIdentity
    observed_s: float
    reference_s: float
    expected_s: float | None
    assessment: int

    @property
    def ratio(self) -> float:
        """Observed over reference — how far the plan has drifted."""
        if self.reference_s <= 0:
            return float("inf")
        return self.observed_s / self.reference_s

    def to_dict(self) -> dict:
        """JSON-safe rendering for ``/metrics`` and reports."""
        return {
            "signature": self.signature.label,
            "observed_ms": self.observed_s * 1e3,
            "reference_ms": self.reference_s * 1e3,
            "expected_ms": (
                self.expected_s * 1e3 if self.expected_s is not None else None
            ),
            "ratio": self.ratio if self.reference_s > 0 else None,
            "assessment": self.assessment,
        }


class _SignatureState:
    """Per-signature calibration and hysteresis bookkeeping."""

    __slots__ = (
        "baseline_count",
        "baseline_mean",
        "breaches",
        "clean",
        "drifted",
        "assessments",
    )

    def __init__(self) -> None:
        self.baseline_count = 0
        self.baseline_mean = 0.0
        self.breaches = 0
        self.clean = 0
        self.drifted = False
        self.assessments = 0


class DriftDetector:
    """Deterministic, calibrated drift detection over many signatures.

    Feed one :meth:`assess` call per execution; it returns the
    :class:`DriftEvent` that latched on this execution, or ``None``.
    The same observation sequence always produces the same events —
    there is no clock or randomness anywhere in the detector.
    """

    def __init__(self, config: DriftConfig | None = None) -> None:
        self.config = config if config is not None else DriftConfig()
        self._lock = threading.Lock()
        self._states: OrderedDict[RequestIdentity, _SignatureState] = OrderedDict()
        self._events: deque[DriftEvent] = deque(maxlen=EVENT_HISTORY)
        self.events_total = 0
        self.recoveries = 0
        self.assessments = 0

    def assess(
        self,
        signature: RequestIdentity,
        observed_s: float,
        expected_s: float | None = None,
    ) -> DriftEvent | None:
        """Judge one execution's service time; return a newly-latched event."""
        config = self.config
        with self._lock:
            state = self._states.get(signature)
            if state is None:
                state = _SignatureState()
                self._states[signature] = state
                while len(self._states) > STATE_LIMIT:
                    self._states.popitem(last=False)
            else:
                self._states.move_to_end(signature)
            self.assessments += 1
            state.assessments += 1
            if state.baseline_count < config.min_samples:
                state.baseline_count += 1
                state.baseline_mean += (
                    observed_s - state.baseline_mean
                ) / state.baseline_count
                return None
            reference = state.baseline_mean
            breach = (
                observed_s > reference * config.ratio_threshold
                and observed_s > reference + config.min_excess_s
            )
            if not breach:
                state.breaches = 0
                if state.drifted:
                    state.clean += 1
                    if state.clean >= config.hysteresis:
                        state.drifted = False
                        state.clean = 0
                        self.recoveries += 1
                return None
            state.clean = 0
            state.breaches += 1
            if state.drifted or state.breaches < config.hysteresis:
                return None
            state.drifted = True
            self.events_total += 1
            event = DriftEvent(
                signature=signature,
                observed_s=observed_s,
                reference_s=reference,
                expected_s=expected_s,
                assessment=state.assessments,
            )
            self._events.append(event)
            return event

    def snapshot(self) -> dict:
        """JSON-safe counters + recent events for ``/metrics``."""
        with self._lock:
            active = sum(1 for s in self._states.values() if s.drifted)
            events = [event.to_dict() for event in self._events]
            return {
                "events": self.events_total,
                "recoveries": self.recoveries,
                "assessments": self.assessments,
                "active": active,
                "recent": events,
                "config": {
                    "ratio_threshold": self.config.ratio_threshold,
                    "min_samples": self.config.min_samples,
                    "hysteresis": self.config.hysteresis,
                    "min_excess_s": self.config.min_excess_s,
                },
            }
