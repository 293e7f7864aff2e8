"""Tests for the calibrated drift detector.

The detector's contract is determinism plus noise-immunity: the same
observation sequence always yields the same events, a single outlier
never latches, and microsecond-scale noise is below the absolute floor
no matter the ratio.
"""

import pytest

from repro.adaptive.drift import DriftConfig, DriftDetector, DriftEvent
from repro.adaptive.observations import observation_signature
from repro.core.exceptions import UsageError

SIG = observation_signature("lcs", 48, "functional", {})
CONFIG = DriftConfig(ratio_threshold=3.0, min_samples=3, hysteresis=2, min_excess_s=0.05)


def feed(detector, values, expected_s=0.01):
    """Assess a sequence; return the events latched along the way."""
    events = []
    for value in values:
        event = detector.assess(SIG, value, expected_s)
        if event is not None:
            events.append(event)
    return events


class TestCalibration:
    def test_no_events_while_calibrating(self):
        detector = DriftDetector(CONFIG)
        # Wildly varying calibration samples still produce no event.
        assert feed(detector, [0.001, 5.0, 0.002]) == []
        assert detector.snapshot()["events"] == 0

    def test_reference_is_the_calibration_mean(self):
        detector = DriftDetector(CONFIG)
        events = feed(detector, [0.01, 0.01, 0.01, 0.5, 0.5])
        assert len(events) == 1
        assert events[0].reference_s == pytest.approx(0.01)
        assert events[0].observed_s == pytest.approx(0.5)
        assert events[0].ratio == pytest.approx(50.0)


class TestBreachRule:
    def test_ratio_alone_is_not_enough_below_the_floor(self):
        # Microsecond baseline: 100x the reference is still < min_excess_s.
        detector = DriftDetector(CONFIG)
        assert feed(detector, [1e-6] * 3 + [1e-4] * 10) == []

    def test_absolute_excess_alone_is_not_enough(self):
        # 100ms baseline + 60ms excess clears the floor but not the 3x ratio.
        detector = DriftDetector(CONFIG)
        assert feed(detector, [0.1] * 3 + [0.16] * 10) == []

    def test_both_conditions_latch(self):
        detector = DriftDetector(CONFIG)
        assert len(feed(detector, [0.01] * 3 + [0.5] * 2)) == 1


class TestHysteresis:
    def test_single_outlier_never_latches(self):
        detector = DriftDetector(CONFIG)
        values = [0.01] * 3 + [0.5] + [0.01] * 5 + [0.5] + [0.01] * 5
        assert feed(detector, values) == []

    def test_latched_event_does_not_refire_while_drifted(self):
        detector = DriftDetector(CONFIG)
        events = feed(detector, [0.01] * 3 + [0.5] * 10)
        assert len(events) == 1
        assert detector.snapshot()["active"] == 1

    def test_recovery_then_redrift_fires_a_fresh_event(self):
        detector = DriftDetector(CONFIG)
        values = (
            [0.01] * 3  # calibrate
            + [0.5] * 2  # latch (event 1)
            + [0.01] * 2  # recover (hysteresis clean executions)
            + [0.5] * 2  # latch again (event 2)
        )
        events = feed(detector, values)
        assert len(events) == 2
        snap = detector.snapshot()
        assert snap["events"] == 2
        assert snap["recoveries"] == 1

    def test_reset_recalibrates_from_scratch(self):
        detector = DriftDetector(CONFIG)
        feed(detector, [0.01] * 3 + [0.5] * 2)
        detector.reset(SIG)
        assert detector.snapshot()["active"] == 0
        # Post-reset the slow latency becomes the new normal: calibration
        # re-runs and no event fires against the old baseline.
        assert feed(detector, [0.5] * 6) == []


class TestDeterminism:
    def test_same_sequence_same_events(self):
        values = [0.01] * 3 + [0.2, 0.5, 0.01, 0.6, 0.7, 0.01]
        runs = []
        for _ in range(3):
            detector = DriftDetector(CONFIG)
            runs.append(
                [(e.observed_s, e.assessment) for e in feed(detector, values)]
            )
        assert runs[0] == runs[1] == runs[2]


class TestEventPayload:
    def test_to_dict_is_json_safe(self):
        detector = DriftDetector(CONFIG)
        (event,) = feed(detector, [0.01] * 3 + [0.5] * 2, expected_s=0.012)
        payload = event.to_dict()
        assert payload["signature"] == "lcs[dim=48] mode=functional"
        assert payload["observed_ms"] == pytest.approx(500.0)
        assert payload["expected_ms"] == pytest.approx(12.0)
        assert payload["assessment"] == 5
        assert DriftEvent(SIG, 0.5, 0.0, None, 1).ratio == float("inf")

    def test_snapshot_carries_config_and_recent_events(self):
        detector = DriftDetector(CONFIG)
        feed(detector, [0.01] * 3 + [0.5] * 2)
        snap = detector.snapshot()
        assert snap["active"] == 1
        assert snap["config"]["ratio_threshold"] == 3.0
        assert len(snap["recent"]) == 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ratio_threshold": 1.0},
            {"ratio_threshold": 0.5},
            {"min_samples": 0},
            {"hysteresis": 0},
            {"min_excess_s": -0.1},
        ],
    )
    def test_impossible_thresholds_rejected(self, kwargs):
        with pytest.raises(UsageError):
            DriftConfig(**kwargs)
