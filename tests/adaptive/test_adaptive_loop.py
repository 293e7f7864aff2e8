"""End-to-end tests of the adaptive loop through a real in-process server.

The acceptance contract of the subsystem:

* replaying the committed cache-smoke trace with a ``slow@`` fault
  injected at two consecutive executions of one signature latches drift
  *exactly there* and nowhere else (shadow mode: observed, never acted);
* the same replay without faults is drift-free — zero events, zero
  would-be swaps, and every completed request counted as an observation;
* on a measured tuner a drifted plan is shadow-re-ranked into a different
  proposal that is logged, never installed: the session keeps its plan
  and every answer stays bit-exact;
* the whole loop is visible in ``/metrics`` and renderable as a report.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.adaptive import DriftConfig, render_adaptive_report
from repro.autotuner.measured import (
    MeasuredProfile,
    MeasuredRecord,
    MeasuredTuner,
)
from repro.core.exceptions import ServerError
from repro.core.params import InputParams
from repro.server import FaultPlan, ReproServer, ServerConfig
from repro.server.loadgen import _adaptive_delta
from repro.session import Session

TRACE_PATH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "traces"
    / "cache_smoke_trace.json"
)

#: Wide absolute floor so host noise cannot breach; the injected 0.3s always does.
TEST_DRIFT = DriftConfig(
    ratio_threshold=3.0, min_samples=3, hysteresis=2, min_excess_s=0.1
)


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
        server.solve(app, dim, timeout=60)


class TestShadowModeOnTrace:
    def test_injected_slowdown_drifts_exactly_at_the_faulted_signature(
        self, adaptive_session
    ):
        entries = trace_entries()
        first, second = consecutive_ordinals(
            entries, "lcs", 48, after=TEST_DRIFT.min_samples
        )
        plan = f"slow@{first}:0.3,slow@{second}:0.3"
        active = adaptive_session.plan("lcs", 48)
        server = ReproServer(
            adaptive_session,
            ServerConfig(queue_capacity=128, adaptive="shadow"),
            fault_plan=FaultPlan.parse(plan),
            drift=TEST_DRIFT,
        ).start()
        try:
            replay(server, entries)
            metrics = server.metrics()
        finally:
            server.close()

        adaptive = metrics["adaptive"]
        assert adaptive["mode"] == "shadow"
        assert adaptive["errors"] == 0, adaptive["last_error"]
        # every completed request became an observation
        assert adaptive["observations"] == metrics["requests"]["completed"]
        assert adaptive["observations"] == len(entries)
        # drift latched exactly once, exactly at the faulted signature
        assert adaptive["drift"]["events"] == 1
        (event,) = adaptive["drift"]["recent"]
        assert event["signature"] == "lcs[dim=48] mode=functional"
        assert event["observed_ms"] >= 300.0
        # shadow evaluated, and the session's plan is unchanged
        assert adaptive["shadow"]["evaluations"] == 1
        assert adaptive_session.plan("lcs", 48) == active

    def test_stable_replay_is_drift_free(self, adaptive_session):
        entries = trace_entries()
        active = adaptive_session.plan("lcs", 48)
        server = ReproServer(
            adaptive_session,
            ServerConfig(queue_capacity=128, adaptive="shadow"),
            drift=TEST_DRIFT,
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
        assert adaptive["shadow"]["would_swap"] == 0
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
                server.solve("lcs", 48, timeout=60)
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
# Shadow re-ranking on a measured tuner
# ----------------------------------------------------------------------
def synthetic_measured_tuner():
    """A measured tuner whose profile makes vectorized the clear winner.

    Serial is measured 4x slower, so a live observation showing the
    vectorized plan at ~100ms flips the re-ranked choice to serial —
    deterministically, whatever the host.
    """
    records = []
    for dim in (32, 48, 64):
        params = InputParams(dim=dim, tsize=0.5, dsize=0)
        for backend, wall in (("serial", 0.004), ("vectorized", 0.001)):
            records.append(
                MeasuredRecord(app="lcs", backend=backend, params=params, wall_s=wall)
            )
    profile = MeasuredProfile(system="local", host={"cores": 1}, records=records)
    return MeasuredTuner(profile)


@pytest.fixture(scope="module")
def measured_shadow_run():
    """Nine ``lcs`` 48 requests, the 4th and 5th slowed by 0.3 s.

    Calibration is 3 executions, so the two faults latch one drift event
    and the shadow pass re-ranks the measured profile.  Returns the answers,
    a fault-free reference answer, the session's plan before and after the
    run, and the final ``/metrics`` snapshot.
    """
    with Session(system="local", tuner=synthetic_measured_tuner()) as ref:
        expected = ref.solve("lcs", 48)
    session = Session(system="local", tuner=synthetic_measured_tuner())
    before = session.plan("lcs", 48)
    server = ReproServer(
        session,
        ServerConfig(queue_capacity=16, adaptive="shadow"),
        fault_plan=FaultPlan.parse("slow@4:0.3,slow@5:0.3"),
        drift=TEST_DRIFT,
        own_session=True,
    ).start()
    try:
        answers = [server.solve("lcs", 48, timeout=60) for _ in range(9)]
        after = session.plan("lcs", 48)
        metrics = server.metrics()
    finally:
        server.close()
    return {
        "answers": answers,
        "expected": expected,
        "before": before,
        "after": after,
        "metrics": metrics,
    }


class TestShadowRetrain:
    def test_retrained_proposal_is_logged_and_never_installed(
        self, measured_shadow_run
    ):
        run = measured_shadow_run
        adaptive = run["metrics"]["adaptive"]
        assert adaptive["errors"] == 0, adaptive["last_error"]
        assert adaptive["drift"]["events"] == 1
        assert adaptive["shadow"]["evaluations"] == 1
        assert adaptive["shadow"]["would_swap"] == 1
        (decision,) = adaptive["shadow"]["decisions"]
        assert decision["signature"] == "lcs[dim=48] mode=functional"
        assert decision["reason"] == "retrained"
        assert decision["would_swap"] is True
        assert decision["active"]["backend"] == "vectorized"
        assert decision["proposed"]["backend"] == "serial"
        # the proposal stays a proposal: the session keeps its plan
        assert run["before"].backend == "vectorized"
        assert run["after"] == run["before"]
        for index, result in enumerate(run["answers"]):
            assert np.array_equal(
                result.grid.values, run["expected"].grid.values
            ), f"answer diverged at request {index}"


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
    def test_report_renders_predicted_observed_and_swap(self, measured_shadow_run):
        text = render_adaptive_report(measured_shadow_run["metrics"]["adaptive"])
        assert "adaptive tuning [shadow]" in text
        assert "lcs[dim=48] mode=functional" in text
        assert "swap to serial" in text and "[retrained]" in text
        assert "<< LIVE" not in text

    def test_report_renders_off_mode(self):
        assert "off" in render_adaptive_report(None)

    def test_adaptive_delta_isolates_this_run(self):
        before = {
            "observations": 100,
            "drift": {"events": 2},
            "shadow": {"evaluations": 2, "would_swap": 1},
            "errors": 0,
            "mode": "shadow",
        }
        after = {
            "observations": 160,
            "drift": {"events": 3},
            "shadow": {"evaluations": 3, "would_swap": 1},
            "errors": 0,
            "mode": "shadow",
        }
        delta = _adaptive_delta(before, after)
        assert delta["observations"] == 60
        assert delta["drift_events"] == 1
        assert delta["shadow_evaluations"] == 1
        assert delta["would_swap"] == 0
        assert "swaps_applied" not in delta
        assert delta["mode"] == "shadow"
        # cold start: no before snapshot means the run owns every counter
        assert _adaptive_delta(None, after)["observations"] == 160
        # adaptive off: no section, no delta
        assert _adaptive_delta(before, None) is None


class TestConfigSurface:
    def test_server_config_rejects_unknown_adaptive_mode(self):
        with pytest.raises(ServerError):
            ServerConfig(adaptive="everything")

    def test_live_mode_is_refused(self):
        with pytest.raises(ServerError):
            ServerConfig(adaptive="live")

    def test_adaptive_off_builds_no_controller(self, adaptive_session):
        server = ReproServer(
            adaptive_session, ServerConfig(queue_capacity=8, adaptive="off")
        ).start()
        try:
            server.solve("lcs", 32, timeout=60)
            metrics = server.metrics()
        finally:
            server.close()
        assert server.adaptive is None
        assert metrics["adaptive"] is None
