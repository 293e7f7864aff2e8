"""End-to-end tests of the adaptive loop through a real in-process server.

The acceptance contract of the subsystem:

* replaying the committed cache-smoke trace with a ``slow@`` fault
  injected at two consecutive executions of one signature latches drift
  *exactly there* and nowhere else (observed, never acted on);
* the same replay without faults is drift-free — zero events, and every
  completed request counted as an observation;
* a plan without a prediction (the ``local`` rule's) is drift-assessed
  like any other;
* the whole loop is visible in ``/metrics`` and renderable as a report.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveController,
    ObservationLog,
    SignatureStats,
    drift,
    render_adaptive_report,
)
from repro.cache import request_identity
from repro.core.exceptions import ServerError
from repro.server import FaultPlan, ReproServer, ServerConfig
from repro.session import Session

TRACE_PATH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "traces"
    / "cache_smoke_trace.json"
)

#: Calibration samples in these tests.
MIN_SAMPLES = 3


@pytest.fixture(autouse=True)
def test_thresholds(monkeypatch):
    """Ratio 3 and hysteresis 2 (the defaults), 3 calibration samples, and a
    wide absolute floor so host noise cannot breach; the injected 0.3 s
    always does."""
    monkeypatch.setattr(drift, "MIN_SAMPLES", MIN_SAMPLES)
    monkeypatch.setattr(drift, "MIN_EXCESS_S", 0.1)


def observe_all(controller, signature, expected_s, service_times):
    """Complete and observe one request per service time, as the server does."""
    for service_s in service_times:
        entry = controller.table.record(signature, service_s)
        controller.observe(entry, expected_s, service_s)


def trace_entries():
    """The committed trace's (app, dim) sequence, in replay order."""
    payload = json.loads(TRACE_PATH.read_text(encoding="utf-8"))
    return [(entry["app"], entry["dim"]) for entry in payload["entries"]]


def consecutive_ordinals(entries, app, dim, *, after=0):
    """Two consecutive 1-based ordinals of ``(app, dim)``.

    ``after`` skips pairs until at least that many earlier occurrences of
    the signature exist — the drift detector calibrates on those, so a
    fault injected any sooner is silently absorbed as calibration data.
    """
    prior = 0
    for index in range(len(entries) - 1):
        if entries[index] == (app, dim):
            if prior >= after and entries[index + 1] == (app, dim):
                return index + 1, index + 2
            prior += 1
    raise AssertionError(f"no consecutive {(app, dim)} entries in the trace")


def replay(server, entries):
    """Issue the trace sequentially: execution ordinal == trace position."""
    for app, dim in entries:
        server.solve(app, dim)


class TestDriftOnTrace:
    def test_injected_slowdown_drifts_exactly_at_the_faulted_signature(
        self, adaptive_session
    ):
        entries = trace_entries()
        first, second = consecutive_ordinals(
            entries, "lcs", 48, after=MIN_SAMPLES
        )
        plan = f"slow@{first}:0.3,slow@{second}:0.3"
        active = adaptive_session.plan("lcs", 48)
        server = ReproServer(
            adaptive_session,
            ServerConfig(queue_capacity=128),
            fault_plan=FaultPlan.parse(plan),
        ).start()
        try:
            replay(server, entries)
            metrics = server.metrics()
        finally:
            server.close()

        adaptive = metrics["adaptive"]
        assert adaptive["mode"] == "on"
        assert adaptive["errors"] == 0, adaptive["last_error"]
        # every completed request became an observation
        assert adaptive["observations"] == metrics["requests"]["completed"]
        assert adaptive["observations"] == len(entries)
        # drift latched exactly once, exactly at the faulted signature
        assert adaptive["drift"]["events"] == 1
        (event,) = adaptive["drift"]["recent"]
        assert event["signature"] == "lcs[dim=48] mode=functional"
        assert event["observed_ms"] >= 300.0
        # the session's plan is unchanged
        assert adaptive_session.plan("lcs", 48) == active

    def test_stable_replay_is_drift_free(self, adaptive_session):
        entries = trace_entries()
        active = adaptive_session.plan("lcs", 48)
        server = ReproServer(
            adaptive_session,
            ServerConfig(queue_capacity=128, adaptive="on"),
        ).start()
        try:
            replay(server, entries)
            metrics = server.metrics()
        finally:
            server.close()

        adaptive = metrics["adaptive"]
        assert adaptive["errors"] == 0, adaptive["last_error"]
        assert adaptive["observations"] == metrics["requests"]["completed"]
        assert adaptive["drift"]["events"] == 0
        # the session's plan is unchanged
        assert adaptive_session.plan("lcs", 48) == active

    def test_per_signature_breakdown_reaches_the_metrics_page(
        self, adaptive_session
    ):
        server = ReproServer(
            adaptive_session, ServerConfig(queue_capacity=16)
        ).start()
        try:
            for _ in range(4):
                server.solve("lcs", 48)
            metrics = server.metrics()
        finally:
            server.close()
        breakdown = metrics["signatures"]
        # an omitted mode is the session's default, filled in at admission:
        # /metrics and the adaptive loop label the traffic class alike
        label = "lcs[dim=48] mode=functional"
        assert list(breakdown) == [label]
        assert list(metrics["adaptive"]["signatures"]) == [label]
        stats = breakdown[label]
        assert stats["count"] == 4
        assert stats["mean_ms"] > 0
        assert stats["p50_ms"] > 0 and stats["p95_ms"] >= stats["p50_ms"]
        # JSON-safe end to end
        json.dumps(metrics)


# ----------------------------------------------------------------------
# Plans without a prediction (the local rule's)
# ----------------------------------------------------------------------
class TestUnpredictedPlans:
    """Drift is judged against the signature's own baseline, never ``expected_s``."""

    def test_a_plan_without_a_prediction_still_latches_drift(self):
        with Session() as session:
            assert session.plan("lcs", 48).expected_s is None
            controller = AdaptiveController(ObservationLog())
            signature = request_identity("lcs", 48, mode="functional")
            observe_all(controller, signature, None, [0.01] * 3 + [0.5] * 2 + [0.01])
            snapshot = controller.snapshot()
        assert snapshot["errors"] == 0, snapshot["last_error"]
        assert snapshot["drift"]["assessments"] == 6
        assert snapshot["drift"]["events"] == 1
        (event,) = snapshot["drift"]["recent"]
        assert event["expected_ms"] is None and event["observed_ms"] == 500.0
        stats = snapshot["signatures"]["lcs[dim=48] mode=functional"]
        assert stats["expected_ms"] is None and stats["count"] == 6

    def test_a_served_rule_plan_drifts_at_the_injected_slowdown(self):
        session = Session()
        server = ReproServer(
            session,
            ServerConfig(queue_capacity=16),
            fault_plan=FaultPlan.parse("slow@4:0.3,slow@5:0.3"),
            own_session=True,
        ).start()
        try:
            answers = [server.solve("lcs", 48) for _ in range(7)]
            metrics = server.metrics()
        finally:
            server.close()
        adaptive = metrics["adaptive"]
        assert adaptive["mode"] == "on"
        assert adaptive["errors"] == 0, adaptive["last_error"]
        assert adaptive["observations"] == 7
        assert adaptive["drift"]["events"] == 1
        assert {a.stats["strategy"] for a in answers} == {"vectorized"}


class TestControllerContract:
    def test_a_simulate_mode_observation_is_recorded_but_not_assessed(self):
        controller = AdaptiveController(ObservationLog())
        signature = request_identity("lcs", 48, mode="simulate")
        observe_all(controller, signature, 0.02, [0.01] * 3 + [0.5] * 7)
        snapshot = controller.snapshot()
        assert snapshot["observations"] == 10
        assert snapshot["drift"]["assessments"] == snapshot["drift"]["events"] == 0
        assert snapshot["signatures"][signature.label]["count"] == 10
        (entry,) = controller.table.entries()
        assert entry.drift is None

    def test_an_internal_failure_is_counted_never_raised(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        controller = AdaptiveController(ObservationLog())
        monkeypatch.setattr(controller.detector, "assess", broken)
        observe_all(controller, request_identity("lcs", 48, mode="functional"), None, [0.01])
        snapshot = controller.snapshot()
        assert (snapshot["errors"], snapshot["last_error"]) == (1, "RuntimeError: boom")
        assert snapshot["observations"] == 1


class TestControllerLock:
    def test_the_stream_and_the_detector_are_written_under_the_lock(self, monkeypatch):
        controller = AdaptiveController(ObservationLog())
        entry = controller.table.record(request_identity("lcs", 48, mode="functional"), 0.01)
        held = []
        record, assess = SignatureStats.record, controller.detector.assess

        def checked_record(stats, latency_s):
            held.append(("record", controller._lock.locked()))
            record(stats, latency_s)

        def checked_assess(*args):
            held.append(("assess", controller._lock.locked()))
            return assess(*args)

        monkeypatch.setattr(SignatureStats, "record", checked_record)
        monkeypatch.setattr(controller.detector, "assess", checked_assess)
        controller.observe(entry, None, 0.01)
        assert held == [("record", True), ("assess", True)]
        assert controller.snapshot()["errors"] == 0


class TestActiveDrift:
    """``drift.active`` counts the table's signatures that are drifted now."""

    SIG = request_identity("lcs", 48, mode="functional")

    def test_a_latched_signature_is_active_until_it_recovers(self):
        controller = AdaptiveController(ObservationLog())
        observe_all(controller, self.SIG, None, [0.01] * 3 + [0.5] * 2)
        assert controller.snapshot()["drift"]["active"] == 1
        observe_all(controller, self.SIG, None, [0.01])
        assert controller.snapshot()["drift"]["active"] == 1
        observe_all(controller, self.SIG, None, [0.01])  # the second clean run recovers
        drift_section = controller.snapshot()["drift"]
        assert (drift_section["active"], drift_section["recoveries"]) == (0, 1)

    def test_an_evicted_drifted_signature_is_no_longer_active(self):
        controller = AdaptiveController(ObservationLog(maxsize=1))
        observe_all(controller, self.SIG, None, [0.01] * 3 + [0.5] * 2)
        assert controller.snapshot()["drift"]["active"] == 1
        observe_all(controller, request_identity("lcs", 8, mode="functional"), None, [0.01])
        drift_section = controller.snapshot()["drift"]
        assert (drift_section["active"], drift_section["events"]) == (0, 1)


# ----------------------------------------------------------------------
# Session-level primitives
# ----------------------------------------------------------------------
class TestSessionPrimitives:
    def test_run_observer_sees_every_solve(self, adaptive_session):
        seen = []
        adaptive_session.attach_observer(
            lambda plan, mode, wall_s: seen.append((plan.app, mode, wall_s))
        )
        try:
            adaptive_session.solve("lcs", 32)
        finally:
            adaptive_session.attach_observer(None)
        assert len(seen) == 1
        app, mode, wall_s = seen[0]
        assert app == "lcs"
        assert wall_s > 0


# ----------------------------------------------------------------------
# Reporting / artifact plumbing
# ----------------------------------------------------------------------
class TestReporting:
    def test_report_renders_predicted_observed_and_drift(self, adaptive_session):
        controller = AdaptiveController(ObservationLog())
        signature = request_identity("lcs", 48, mode="functional")
        expected_s = adaptive_session.plan("lcs", 48).expected_s
        observe_all(controller, signature, expected_s, [0.01] * 3 + [0.5] * 2)
        text = render_adaptive_report(controller.snapshot())
        assert "adaptive tuning [on]" in text
        (row,) = [line for line in text.splitlines() if line.startswith("lcs[dim=48]")]
        predicted_ms = expected_s * 1e3
        assert row.split()[2] == f"{predicted_ms:.2f}"
        assert "drift: 1 events" in text
        assert "shadow" not in text and "swap" not in text

    def test_report_renders_off_mode(self):
        assert "off" in render_adaptive_report(None)


class TestConfigSurface:
    def test_server_config_rejects_unknown_adaptive_mode(self):
        with pytest.raises(ServerError):
            ServerConfig(adaptive="everything")

    @pytest.mark.parametrize("retired", ["live", "shadow"])
    def test_retired_modes_are_refused(self, retired):
        with pytest.raises(ServerError):
            ServerConfig(adaptive=retired)

    def test_adaptive_off_builds_no_controller(self, adaptive_session):
        server = ReproServer(
            adaptive_session, ServerConfig(queue_capacity=8, adaptive="off")
        ).start()
        try:
            server.solve("lcs", 32)
            metrics = server.metrics()
        finally:
            server.close()
        assert server.adaptive is None
        assert metrics["adaptive"] is None
