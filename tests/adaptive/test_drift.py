"""Tests for the calibrated drift detector.

The detector's contract is determinism plus noise-immunity: the same
observation sequence always yields the same events, a single outlier
never latches, and microsecond-scale noise is below the absolute floor
no matter the ratio.  Its per-signature state is the signature's table
entry, so it leaves with the entry.
"""

import pytest

from repro.adaptive import drift
from repro.adaptive.drift import DriftDetector, DriftEvent
from repro.adaptive.observations import ObservationLog, SignatureEntry
from repro.cache import request_identity

SIG = request_identity("lcs", 48, mode="functional")


@pytest.fixture(autouse=True)
def three_calibration_samples(monkeypatch):
    """Ratio 3, floor 50 ms, hysteresis 2 (the defaults), 3 calibration samples."""
    monkeypatch.setattr(drift, "MIN_SAMPLES", 3)


def feed(detector, values, expected_s=0.01, entry=None):
    """Assess a sequence on one entry; return the events latched along the way."""
    entry = SignatureEntry(SIG) if entry is None else entry
    events = []
    for value in values:
        event = detector.assess(entry, value, expected_s)
        if event is not None:
            events.append(event)
    return events


class TestCalibration:
    def test_no_events_while_calibrating(self):
        detector = DriftDetector()
        # Wildly varying calibration samples still produce no event.
        assert feed(detector, [0.001, 5.0, 0.002]) == []
        assert detector.snapshot([])["events"] == 0

    def test_reference_is_the_calibration_mean(self):
        detector = DriftDetector()
        events = feed(detector, [0.01, 0.01, 0.01, 0.5, 0.5])
        assert len(events) == 1
        assert events[0].reference_s == pytest.approx(0.01)
        assert events[0].observed_s == pytest.approx(0.5)
        assert events[0].ratio == pytest.approx(50.0)


class TestBreachRule:
    def test_ratio_alone_is_not_enough_below_the_floor(self):
        # Microsecond baseline: 100x the reference is still < min_excess_s.
        detector = DriftDetector()
        assert feed(detector, [1e-6] * 3 + [1e-4] * 10) == []

    def test_absolute_excess_alone_is_not_enough(self):
        # 100ms baseline + 60ms excess clears the floor but not the 3x ratio.
        detector = DriftDetector()
        assert feed(detector, [0.1] * 3 + [0.16] * 10) == []

    def test_both_conditions_latch(self):
        detector = DriftDetector()
        assert len(feed(detector, [0.01] * 3 + [0.5] * 2)) == 1


class TestHysteresis:
    def test_single_outlier_never_latches(self):
        detector = DriftDetector()
        values = [0.01] * 3 + [0.5] + [0.01] * 5 + [0.5] + [0.01] * 5
        assert feed(detector, values) == []

    def test_latched_event_does_not_refire_while_drifted(self):
        detector, entry = DriftDetector(), SignatureEntry(SIG)
        events = feed(detector, [0.01] * 3 + [0.5] * 10, entry=entry)
        assert len(events) == 1
        assert detector.snapshot([entry])["active"] == 1

    def test_recovery_then_redrift_fires_a_fresh_event(self):
        detector = DriftDetector()
        values = (
            [0.01] * 3  # calibrate
            + [0.5] * 2  # latch (event 1)
            + [0.01] * 2  # recover (hysteresis clean executions)
            + [0.5] * 2  # latch again (event 2)
        )
        entry = SignatureEntry(SIG)
        events = feed(detector, values, entry=entry)
        assert len(events) == 2
        snap = detector.snapshot([entry])
        assert snap["events"] == 2
        assert snap["recoveries"] == 1
        assert snap["active"] == 1


class TestDeterminism:
    def test_same_sequence_same_events(self):
        values = [0.01] * 3 + [0.2, 0.5, 0.01, 0.6, 0.7, 0.01]
        runs = []
        for _ in range(3):
            detector = DriftDetector()
            runs.append(
                [(e.observed_s, e.assessment) for e in feed(detector, values)]
            )
        assert runs[0] == runs[1] == runs[2]


class TestEventPayload:
    def test_to_dict_is_json_safe(self):
        detector = DriftDetector()
        (event,) = feed(detector, [0.01] * 3 + [0.5] * 2, expected_s=0.012)
        payload = event.to_dict()
        assert payload["signature"] == "lcs[dim=48] mode=functional"
        assert payload["observed_ms"] == pytest.approx(500.0)
        assert payload["expected_ms"] == pytest.approx(12.0)
        assert payload["assessment"] == 5
        assert DriftEvent(SIG, 0.5, 0.0, None, 1).ratio == float("inf")

    def test_snapshot_carries_config_and_recent_events(self):
        detector, entry = DriftDetector(), SignatureEntry(SIG)
        feed(detector, [0.01] * 3 + [0.5] * 2 + [0.01], entry=entry)
        # one clean execution is not a recovery: the signature is still drifted
        snap = detector.snapshot([entry, SignatureEntry(request_identity("lcs", 8))])
        assert snap["active"] == 1
        assert snap["config"] == {
            "ratio_threshold": 3.0, "min_samples": 3, "hysteresis": 2, "min_excess_s": 0.05,
        }
        assert len(snap["recent"]) == 1


class TestStateLivesOnTheEntry:
    def test_each_entry_calibrates_on_its_own(self):
        detector = DriftDetector()
        slow, fast = SignatureEntry(SIG), SignatureEntry(request_identity("lcs", 8))
        feed(detector, [0.01] * 3, entry=slow)
        # a second signature's calibration neither reads nor moves the first's
        assert feed(detector, [0.5] * 3, entry=fast) == []
        assert (slow.drift.calibration, fast.drift.calibration) == (3, 3)
        assert slow.drift.reference_s == pytest.approx(0.01)
        assert fast.drift.reference_s == pytest.approx(0.5)
        assert len(feed(detector, [0.5] * 2, entry=slow)) == 1
        assert detector.snapshot([slow, fast])["active"] == 1

    def test_an_evicted_signature_calibrates_again(self):
        table, detector = ObservationLog(maxsize=1), DriftDetector()
        for value in [0.01] * 3:
            detector.assess(table.record(SIG, value), value)
        table.record(request_identity("lcs", 8), 0.01)  # evicts SIG's entry
        entry = table.record(SIG, 0.5)
        assert entry.drift is None
        # with its calibration gone, the slow samples become the reference
        assert feed(detector, [0.5] * 5, entry=entry) == []
        assert entry.drift.reference_s == pytest.approx(0.5)
        assert detector.snapshot([entry])["active"] == 0


class TestConstants:
    @pytest.mark.parametrize(
        "name, value",
        [("MIN_SAMPLES", 1), ("RATIO_THRESHOLD", 100.0), ("HYSTERESIS", 3), ("MIN_EXCESS_S", 1.0)],
    )
    def test_each_threshold_is_read_when_assessing(self, monkeypatch, name, value):
        values = [0.01] * 3 + [0.5] * 2  # latches once under the test thresholds
        assert len(feed(DriftDetector(), values)) == 1
        monkeypatch.setattr(drift, name, value)
        # one calibration sample makes 0.01, 0.01 clean and 0.5, 0.5 latch
        # later; each other value keeps the sequence below its threshold
        events = feed(DriftDetector(), values)
        assert [e.assessment for e in events] == ([5] if name == "MIN_SAMPLES" else [])

