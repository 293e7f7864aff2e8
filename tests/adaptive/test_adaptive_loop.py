"""End-to-end tests of the adaptive loop through a real in-process server.

The acceptance contract of the subsystem:

* replaying the committed cache-smoke trace with a ``slow@`` fault
  injected at two consecutive executions of one signature latches drift
  *exactly there* and nowhere else (shadow mode: observed, never acted);
* the same replay without faults is drift-free — zero events, zero
  would-be swaps, and every completed request counted as an observation;
* in ``live`` mode a drifted measured-tuner plan is swapped through the
  session's plan LRU, keeps serving bit-exact answers, and is confirmed —
  or rolled back (and the signature pinned) when the regression persists;
* the whole loop is visible in ``/metrics`` and renderable as a report.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    DriftConfig,
    render_adaptive_report,
)
from repro.adaptive.observations import observation_signature, signature_label
from repro.autotuner.measured import (
    MeasuredProfile,
    MeasuredRecord,
    MeasuredTuner,
)
from repro.core.exceptions import UsageError
from repro.core.params import InputParams, TunableParams
from repro.facade.policy import ExecutionPolicy
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
        config = AdaptiveConfig(mode="shadow", drift=TEST_DRIFT)
        server = ReproServer(
            adaptive_session,
            ServerConfig(queue_capacity=128, adaptive="shadow"),
            fault_plan=FaultPlan.parse(plan),
            adaptive_config=config,
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
        # shadow evaluated, but shadow mode never swaps
        assert adaptive["shadow"]["evaluations"] == 1
        assert adaptive["swaps"]["applied"] == 0
        assert adaptive_session.stats["plans_adopted"] == 0

    def test_stable_replay_is_drift_free(self, adaptive_session):
        entries = trace_entries()
        config = AdaptiveConfig(mode="shadow", drift=TEST_DRIFT)
        server = ReproServer(
            adaptive_session,
            ServerConfig(queue_capacity=128, adaptive="shadow"),
            adaptive_config=config,
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
        assert adaptive["swaps"]["applied"] == 0

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
        # requests that didn't pin a mode are labelled without the clause
        label = "lcs[dim=48]"
        assert label in breakdown
        stats = breakdown[label]
        assert stats["count"] == 4
        assert stats["mean_ms"] > 0
        assert stats["p50_ms"] > 0 and stats["p95_ms"] >= stats["p50_ms"]
        # JSON-safe end to end
        json.dumps(metrics)


# ----------------------------------------------------------------------
# Live promotion on a measured tuner
# ----------------------------------------------------------------------
def synthetic_measured_tuner():
    """A measured tuner whose profile makes vectorized the clear winner.

    Serial is measured 4x slower, so a live observation showing the
    vectorized plan at ~100ms flips the retrained choice to serial —
    deterministically, whatever the host.
    """
    records = []
    for dim in (32, 48, 64):
        params = InputParams(dim=dim, tsize=0.5, dsize=0)
        for backend, wall in (("serial", 0.004), ("vectorized", 0.001)):
            records.append(
                MeasuredRecord(
                    app="lcs",
                    backend=backend,
                    workers=1,
                    params=params,
                    tunables=TunableParams(cpu_tile=8),
                    wall_s=wall,
                )
            )
    profile = MeasuredProfile(system="local", host={"cores": 1}, records=records)
    return MeasuredTuner.train(profile)


LIVE_CONFIG = AdaptiveConfig(mode="live", drift=TEST_DRIFT)


class TestLivePromotion:
    def test_swapped_plan_serves_bit_exactly_and_confirms(self):
        tuner = synthetic_measured_tuner()
        with Session(system="local", tuner=synthetic_measured_tuner()) as ref:
            expected = ref.solve("lcs", 48)
        session = Session(system="local", tuner=tuner)
        assert session.plan("lcs", 48).backend == "vectorized"
        # calibration is 3 executions; faults at 4 and 5 latch the drift
        server = ReproServer(
            session,
            ServerConfig(queue_capacity=16, adaptive="live"),
            fault_plan=FaultPlan.parse("slow@4:0.3,slow@5:0.3"),
            adaptive_config=LIVE_CONFIG,
            own_session=True,
        ).start()
        try:
            for index in range(9):
                result = server.solve("lcs", 48, timeout=60)
                assert np.array_equal(
                    result.grid.values, expected.grid.values
                ), f"answer diverged at request {index}"
            swapped = session.plan("lcs", 48)
            metrics = server.metrics()
        finally:
            server.close()

        adaptive = metrics["adaptive"]
        assert adaptive["errors"] == 0, adaptive["last_error"]
        assert adaptive["drift"]["events"] == 1
        assert adaptive["swaps"]["applied"] == 1
        assert adaptive["swaps"]["confirmed"] == 1
        assert adaptive["swaps"]["rolled_back"] == 0
        # the swap is live in the session's plan cache, attributed to the loop
        assert swapped.backend == "serial"
        assert swapped.tuner == "adaptive"
        assert session.stats["plans_adopted"] == 1
        installed = adaptive["swaps"]["installed"]
        assert installed["lcs[dim=48] mode=functional"]["to_backend"] == "serial"

    def test_persistent_regression_rolls_back_and_pins(self):
        session = Session(system="local", tuner=synthetic_measured_tuner())
        # faults persist past the swap (executions 4-8), so the promoted
        # plan looks just as slow and must be rolled back
        server = ReproServer(
            session,
            ServerConfig(queue_capacity=16, adaptive="live"),
            fault_plan=FaultPlan.parse(
                "slow@4:0.3,slow@5:0.3,slow@6:0.3,slow@7:0.3,slow@8:0.3"
            ),
            adaptive_config=LIVE_CONFIG,
            own_session=True,
        ).start()
        try:
            for _ in range(10):
                server.solve("lcs", 48, timeout=60)
            restored = session.plan("lcs", 48)
            metrics = server.metrics()
        finally:
            server.close()

        adaptive = metrics["adaptive"]
        assert adaptive["errors"] == 0, adaptive["last_error"]
        assert adaptive["swaps"]["applied"] == 1
        assert adaptive["swaps"]["rolled_back"] == 1
        assert adaptive["swaps"]["confirmed"] == 0
        assert adaptive["swaps"]["pinned"] == ["lcs[dim=48] mode=functional"]
        # the original plan is back in charge
        assert restored.backend == "vectorized"

    def test_swap_budget_bounds_promotions(self):
        session = Session(system="local", tuner=synthetic_measured_tuner())
        config = AdaptiveConfig(mode="live", drift=TEST_DRIFT, swap_budget=0)
        server = ReproServer(
            session,
            ServerConfig(queue_capacity=16, adaptive="live"),
            fault_plan=FaultPlan.parse("slow@4:0.3,slow@5:0.3"),
            adaptive_config=config,
            own_session=True,
        ).start()
        try:
            for _ in range(6):
                server.solve("lcs", 48, timeout=60)
            metrics = server.metrics()
        finally:
            server.close()
        adaptive = metrics["adaptive"]
        assert adaptive["drift"]["events"] == 1
        assert adaptive["swaps"]["applied"] == 0
        assert adaptive["swaps"]["budget_denied"] == 1


# ----------------------------------------------------------------------
# Session-level primitives
# ----------------------------------------------------------------------
class TestSessionPrimitives:
    def test_adopt_plan_replaces_the_cached_answer(self, adaptive_session):
        before = adaptive_session.stats["plans_adopted"]
        plan = adaptive_session.plan("matrix-chain", 24)
        adopted = plan.with_(expected_s=1.23, tuner="adaptive")
        adaptive_session.adopt_plan(adopted)
        assert adaptive_session.plan("matrix-chain", 24) is adopted
        assert adaptive_session.stats["plans_adopted"] == before + 1
        # manual overrides bypass the adopted plan
        manual = adaptive_session.plan(
            "matrix-chain", 24, policy=ExecutionPolicy(backend="serial")
        )
        assert manual.tuner == "manual"

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

    def test_controller_record_run_feeds_the_run_log(self, adaptive_session):
        controller = AdaptiveController(adaptive_session)
        adaptive_session.attach_observer(controller.record_run)
        try:
            adaptive_session.solve("lcs", 32)
            adaptive_session.solve("lcs", 32)
        finally:
            adaptive_session.attach_observer(None)
        assert controller.run_log.observations == 2
        sig = observation_signature("lcs", 32, adaptive_session.mode.value, {})
        assert controller.run_log.snapshot()["signatures"][signature_label(sig)]["count"] == 2


# ----------------------------------------------------------------------
# Reporting / artifact plumbing
# ----------------------------------------------------------------------
class TestReporting:
    def test_report_renders_predicted_observed_and_swap(self):
        session = Session(system="local", tuner=synthetic_measured_tuner())
        server = ReproServer(
            session,
            ServerConfig(queue_capacity=16, adaptive="live"),
            fault_plan=FaultPlan.parse("slow@4:0.3,slow@5:0.3"),
            adaptive_config=LIVE_CONFIG,
            own_session=True,
        ).start()
        try:
            for _ in range(9):
                server.solve("lcs", 48, timeout=60)
            adaptive = server.metrics()["adaptive"]
        finally:
            server.close()
        text = render_adaptive_report(adaptive)
        assert "adaptive tuning [live]" in text
        assert "lcs[dim=48] mode=functional" in text
        assert "<< LIVE" in text
        assert "swaps: 1 applied" in text

    def test_report_renders_off_mode(self):
        assert "off" in render_adaptive_report(None)

    def test_adaptive_delta_isolates_this_run(self):
        before = {
            "observations": 100,
            "drift": {"events": 2},
            "shadow": {"evaluations": 2, "would_swap": 1},
            "swaps": {"applied": 1, "rolled_back": 0},
            "errors": 0,
            "mode": "shadow",
        }
        after = {
            "observations": 160,
            "drift": {"events": 3},
            "shadow": {"evaluations": 3, "would_swap": 1},
            "swaps": {"applied": 1, "rolled_back": 0},
            "errors": 0,
            "mode": "shadow",
        }
        delta = _adaptive_delta(before, after)
        assert delta["observations"] == 60
        assert delta["drift_events"] == 1
        assert delta["shadow_evaluations"] == 1
        assert delta["would_swap"] == 0
        assert delta["swaps_applied"] == 0
        assert delta["mode"] == "shadow"
        # cold start: no before snapshot means the run owns every counter
        assert _adaptive_delta(None, after)["observations"] == 160
        # adaptive off: no section, no delta
        assert _adaptive_delta(before, None) is None


class TestConfigSurface:
    def test_server_config_rejects_unknown_adaptive_mode(self):
        from repro.core.exceptions import ServerError

        with pytest.raises(ServerError):
            ServerConfig(adaptive="everything")

    def test_adaptive_config_validation(self):
        with pytest.raises(UsageError):
            AdaptiveConfig(mode="sometimes")
        with pytest.raises(UsageError):
            AdaptiveConfig(swap_budget=-1)
        with pytest.raises(UsageError):
            AdaptiveConfig(rollback_ratio=0.0)

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
