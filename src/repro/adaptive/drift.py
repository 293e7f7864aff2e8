"""Latency drift detection: does a plan still run as fast as it did?

Hosts change — thermal throttling, noisy neighbours, a cache directory
filling up — and a plan that was fast when it was resolved silently slows
down.  The :class:`DriftDetector` decides, deterministically, when a
signature's observed service times no longer match its own early
behaviour; it needs no prediction, so a plan without one (the ``local``
rule's) is watched like any other.  The rule is calibrated rather than
absolute, because CI hosts and laptops disagree wildly on base latency:

1. the first :data:`MIN_SAMPLES` observations of a signature form its
   **reference** (their running mean); nothing is assessed while
   calibrating;
2. an observation **breaches** when it exceeds :data:`RATIO_THRESHOLD` ×
   the reference *and* the reference plus :data:`MIN_EXCESS_S` (3× of
   microseconds is still nothing);
3. only :data:`HYSTERESIS` *consecutive* breaches latch a
   :class:`DriftEvent`, so one garbage-collection pause cannot flap it;
4. a latched signature needs :data:`HYSTERESIS` consecutive clean
   executions to **recover**; re-drifting afterwards fires a fresh event.

One answered solve is one assessment.  A signature's state is one
:class:`DriftState` in its :class:`~repro.adaptive.observations.SignatureEntry`,
so it leaves with the entry; the thresholds are module constants, not
knobs (tests ``monkeypatch`` them).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.adaptive.observations import SignatureEntry
from repro.cache.keys import RequestIdentity

#: An observation breaches above this multiple of the reference mean.
RATIO_THRESHOLD = 3.0
#: Observations that calibrate a signature's reference (and the least
#: evidence before any event).
MIN_SAMPLES = 5
#: Consecutive breaching executions that latch an event, and consecutive
#: clean ones that recover from it.
HYSTERESIS = 2
#: Seconds above the reference a breach must also clear.
MIN_EXCESS_S = 0.05
#: Bound on remembered drift events (oldest dropped first).
EVENT_HISTORY = 64


class DriftState:
    """One signature's detector state: calibration, the runs, the latch."""

    __slots__ = ("calibration", "reference_s", "breaches", "clean", "drifted", "assessments")

    def __init__(self) -> None:
        self.calibration = self.breaches = self.clean = self.assessments = 0
        self.reference_s = 0.0
        self.drifted = False


@dataclass(frozen=True)
class DriftEvent:
    """One latched drift detection for one signature.

    ``observed_s`` is the execution that completed the hysteresis run,
    ``reference_s`` the calibrated mean it was judged against,
    ``expected_s`` the plan's prediction (``None`` when it has none), and
    ``assessment`` the signature's execution ordinal at the latch.
    """

    signature: RequestIdentity
    observed_s: float
    reference_s: float
    expected_s: float | None
    assessment: int

    @property
    def ratio(self) -> float:
        """Observed over reference — how far the plan has drifted."""
        return self.observed_s / self.reference_s if self.reference_s > 0 else float("inf")

    def to_dict(self) -> dict:
        """JSON-safe rendering for ``/metrics`` and reports."""
        return {
            "signature": self.signature.label,
            "observed_ms": self.observed_s * 1e3,
            "reference_ms": self.reference_s * 1e3,
            "expected_ms": self.expected_s * 1e3 if self.expected_s is not None else None,
            "ratio": self.ratio if self.reference_s > 0 else None,
            "assessment": self.assessment,
        }


class DriftDetector:
    """Deterministic, calibrated drift detection over many signatures.

    Feed one :meth:`assess` per execution.  The same observation sequence
    always latches the same events: no clock, no randomness.  It takes no
    lock: the caller serialises (the adaptive controller does).
    """

    def __init__(self) -> None:
        self._events: deque[DriftEvent] = deque(maxlen=EVENT_HISTORY)
        self.events_total = 0
        self.recoveries = 0
        self.assessments = 0

    def assess(
        self, entry: SignatureEntry, observed_s: float, expected_s: float | None = None
    ) -> DriftEvent | None:
        """Judge one execution's service time; return a newly-latched event."""
        state = entry.drift
        if state is None:
            state = entry.drift = DriftState()
        self.assessments += 1
        state.assessments += 1
        if state.calibration < MIN_SAMPLES:
            state.calibration += 1
            state.reference_s += (observed_s - state.reference_s) / state.calibration
            return None
        reference = state.reference_s
        breach = observed_s > max(reference * RATIO_THRESHOLD, reference + MIN_EXCESS_S)
        if not breach:
            state.breaches = 0
            if state.drifted:
                state.clean += 1
                if state.clean >= HYSTERESIS:
                    state.drifted = False
                    state.clean = 0
                    self.recoveries += 1
            return None
        state.clean = 0
        state.breaches += 1
        if state.drifted or state.breaches < HYSTERESIS:
            return None
        state.drifted = True
        self.events_total += 1
        event = DriftEvent(entry.signature, observed_s, reference, expected_s, state.assessments)
        self._events.append(event)
        return event

    def snapshot(self, entries: list[SignatureEntry]) -> dict:
        """JSON-safe counters + recent events for ``/metrics``; ``active``
        counts the drifted signatures among ``entries``."""
        active = sum(1 for entry in entries if entry.drift is not None and entry.drift.drifted)
        return {
            "events": self.events_total,
            "recoveries": self.recoveries,
            "assessments": self.assessments,
            "active": active,
            "recent": [event.to_dict() for event in self._events],
            "config": {
                "ratio_threshold": RATIO_THRESHOLD,
                "min_samples": MIN_SAMPLES,
                "hysteresis": HYSTERESIS,
                "min_excess_s": MIN_EXCESS_S,
            },
        }
