"""Tests for the measured-profile autotuning pipeline.

Covers the profile → tune loop on a deliberately tiny instance grid (this
runs for real), persistence round-trips including the stale
``format_version`` contract, and the rule every tuner keeps: no plan names
a multicore engine or more than one worker.
"""

import ast
import dataclasses
import inspect
import math

import pytest

from repro.apps.registry import available_applications, get_application
from repro.autotuner import measured as measured_module
from repro.autotuner.measured import (
    PROFILE_FORMAT_VERSION,
    PROFILED_BACKENDS,
    MeasuredProfile,
    MeasuredRecord,
    MeasuredTuner,
    ProfileConfig,
    load_profile,
    profile_host,
    save_profile,
)
from repro.autotuner.protocol import ExhaustiveTuner
from repro.facade.tuners import DEFAULT_PROFILE_PATH
from repro.core.exceptions import ArtifactError, SearchError, UsageError
from repro.core.params import InputParams
from repro.hardware.calibration import constants_from_measurements
from repro.hardware.system import detect_local_system
from repro.runtime.registry import engines_with, fill_engine
from repro.session import Session
from repro.utils.serialization import load_json, save_json

TINY_CONFIG = ProfileConfig(
    apps=("lcs", "synthetic"),
    dims=(48, 64),
    repeats=3,
    budget_s=60.0,
)


@pytest.fixture(scope="module")
def tiny_profile():
    return profile_host(detect_local_system(), TINY_CONFIG)


@pytest.fixture(scope="module")
def tiny_tuner(tiny_profile):
    return MeasuredTuner(tiny_profile)


def record(app, backend, dim, wall, tsize=0.5):
    return MeasuredRecord(
        app=app,
        backend=backend,
        params=InputParams(dim=dim, tsize=tsize, dsize=0),
        wall_s=wall,
    )


class TestDetectLocalSystem:
    def test_reports_this_host(self):
        system = detect_local_system()
        assert system.name == "local"
        assert system.cpu.cores >= 1
        assert not system.has_gpu

    def test_resolve_system_knows_local(self):
        from repro.hardware.platforms import resolve_system

        assert resolve_system("local").name == "local"
        assert resolve_system("i7-2600K").name == "i7-2600K"


class TestProfileHost:
    def test_grid_is_covered(self, tiny_profile):
        assert len(tiny_profile.instances()) == 4  # 2 apps x 2 dims
        assert {r.backend for r in tiny_profile.records} == set(PROFILED_BACKENDS)
        assert len(tiny_profile) == 4 * len(PROFILED_BACKENDS)
        assert not tiny_profile.host["truncated"]

    def test_serial_reference_every_instance(self, tiny_profile):
        for params in tiny_profile.instances():
            assert tiny_profile.serial_time(params) > 0

    def test_walls_are_positive_and_best_is_min(self, tiny_profile):
        for params in tiny_profile.instances():
            records = tiny_profile.records_for(params)
            assert all(r.wall_s > 0 for r in records)
            assert tiny_profile.best(params).wall_s == min(r.wall_s for r in records)

    def test_profiled_backends_are_the_whole_grid_engines(self):
        # No second hand-written list, and no tiled engine: the registry's
        # whole-grid engines, best first.
        assert PROFILED_BACKENDS == tuple(engines_with("serial"))
        assert PROFILED_BACKENDS == ("vectorized", "serial")
        assert not set(PROFILED_BACKENDS) & set(engines_with("multicore"))

    def test_the_grid_is_apps_dims_repeats_and_budget(self):
        assert [f.name for f in dataclasses.fields(ProfileConfig)] == [
            "apps", "dims", "repeats", "budget_s",
        ]
        ProfileConfig().validate()
        ProfileConfig.quick().validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"apps": ()}, "at least one app"),
            ({"dims": ()}, "at least one app and one dim"),
            ({"apps": ("nope",)}, "unknown applications"),
            ({"dims": (1, 64)}, "dims must be >= 2"),
            ({"repeats": 0}, "repeats must be >= 1"),
            ({"budget_s": 0.0}, "finite and > 0"),
            ({"budget_s": -1.0}, "finite and > 0"),
            ({"budget_s": math.nan}, "finite and > 0"),
            ({"budget_s": math.inf}, "finite and > 0"),
        ],
    )
    def test_an_unusable_grid_is_a_usage_error(self, overrides, message):
        config = dataclasses.replace(ProfileConfig.quick(), **overrides)
        with pytest.raises(UsageError, match=message):
            config.validate()
        with pytest.raises(UsageError, match=message):
            profile_host(detect_local_system(), config)

    def test_budget_truncates_but_keeps_serial(self):
        config = ProfileConfig(apps=("lcs",), dims=(32, 48), repeats=1, budget_s=1e-9)
        profile = profile_host(detect_local_system(), config)
        assert profile.host["truncated"]
        for params in profile.instances():
            assert profile.serial_time(params) > 0


class TestProfilePersistence:
    def test_round_trip(self, tiny_profile, tmp_path):
        path = save_profile(tiny_profile, tmp_path / "profile.json")
        restored = load_profile(path)
        assert restored.system == tiny_profile.system
        assert restored.records == tiny_profile.records
        assert restored.host["cores"] == tiny_profile.host["cores"]

    def test_records_carry_no_tile_or_worker_count(self, tiny_profile):
        keys = set(tiny_profile.to_dict()["records"][0])
        assert keys == {"app", "backend", "dim", "tsize", "dsize", "wall_s", "repeats"}

    @pytest.mark.parametrize("version", [1, 2, PROFILE_FORMAT_VERSION + 1])
    def test_stale_format_version_raises(self, tiny_profile, tmp_path, version):
        # Version 1 profiles carry ``hybrid-<engine>`` rows no engine answers
        # to; version 2 ones tiled ``mp-parallel`` / ``pipelined`` rows.
        path = save_profile(tiny_profile, tmp_path / "profile.json")
        payload = load_json(path)
        payload["format_version"] = version
        save_json(payload, path)
        with pytest.raises(ArtifactError, match="format version .* re-run `repro profile`"):
            load_profile(path)
        with Session(system="local", tuner="measured", profile_path=path) as session:
            with pytest.raises(ArtifactError, match="re-run `repro profile`"):
                session.plan("lcs", 48)

    def test_not_a_profile_raises(self, tmp_path):
        path = save_json({"something": "else"}, tmp_path / "junk.json")
        with pytest.raises(SearchError, match="does not contain"):
            load_profile(path)

    def test_default_path_is_under_benchmarks(self):
        assert "benchmarks" in str(DEFAULT_PROFILE_PATH)

    def test_the_committed_profile_loads_and_plans_whole_grid(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / DEFAULT_PROFILE_PATH
        tuner = MeasuredTuner(load_profile(path))
        plan = tuner.resolve("lcs", InputParams(dim=512, tsize=0.5, dsize=0))
        assert plan.backend in PROFILED_BACKENDS and plan.workers == 1


class TestMeasuredTuner:
    def test_holds_only_its_profile(self, tiny_tuner, tiny_profile):
        assert vars(tiny_tuner) == {"profile": tiny_profile}

    def test_imports_nothing_from_the_fitting_pipeline(self):
        tree = ast.parse(inspect.getsource(measured_module))
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        }
        for module in ("models", "training", "exhaustive"):
            assert f"repro.autotuner.{module}" not in imported

    def test_resolve_is_the_measured_best_at_every_profiled_instance(self, tiny_tuner):
        profile = tiny_tuner.profile
        for app in profile.apps():
            for params in dict.fromkeys(r.params for r in profile.records_for(app=app)):
                plan = tiny_tuner.resolve(app, params)
                best = profile.best(params, app=app)
                assert (plan.backend, plan.expected_s) == (best.backend, best.wall_s)
                assert plan.tunables.cpu_tile == 1 and plan.workers == 1

    def test_plan_cache_is_o1(self, tiny_tuner):
        # The session's plan cache is the one plan cache: a repeat is one
        # LRU hit, the tuner is asked once.
        with Session(system=detect_local_system(), tuner=tiny_tuner) as session:
            first = session.plan("lcs", 48)
            again = session.plan("lcs", 48)
            assert again is first
            assert session.stats["plans_resolved"] == 1
            assert session.cache_info()["plans"]["size"] == 1

    def test_unseen_dim_uses_nearest_instance(self, tiny_tuner):
        params = InputParams(dim=56, tsize=0.5, dsize=0)
        plan = tiny_tuner.resolve("lcs", params)
        anchor = tiny_tuner.nearest_instance(params)
        assert anchor.dim in (48, 64)
        assert plan.expected_s == tiny_tuner.profile.best(anchor, app="lcs").wall_s

    def test_empty_profile_rejected(self):
        with pytest.raises(SearchError, match="non-empty profile"):
            MeasuredTuner(MeasuredProfile(system="local"))

    @pytest.mark.parametrize("backend", ["mp-parallel", "pipelined", "hybrid"])
    def test_a_profile_holding_a_tiled_record_is_refused(self, backend):
        # Even when that record is the fastest: it is never planned.
        profile = MeasuredProfile(
            system="local",
            records=[record("lcs", "serial", 64, 0.004), record("lcs", backend, 64, 0.001)],
        )
        with pytest.raises(SearchError, match="plans only"):
            MeasuredTuner(profile)

    def test_a_model_file_is_a_usage_error(self, tiny_profile, tmp_path):
        path = save_profile(tiny_profile, tmp_path / "profile.json")
        with Session(
            system="local", tuner="measured", profile_path=path, model_path=tmp_path / "m.json"
        ) as session:
            with pytest.raises(UsageError, match="no model file"):
                session.plan("lcs", 48)

    def test_same_signature_apps_keep_their_own_measurements(self):
        # lcs and edit-distance share the (tsize=0.5, dsize=0) signature, so
        # they collapse onto one InputParams instance; deployment queries
        # must still answer from the asking app's own records.
        config = ProfileConfig(apps=("lcs", "edit-distance"), dims=(48,), repeats=1)
        profile = profile_host(detect_local_system(), config)
        assert len(profile.instances()) == 1  # signatures collapsed
        tuner = MeasuredTuner(profile)
        params = profile.instances()[0]
        for app in ("lcs", "edit-distance"):
            plan = tuner.resolve(app, params)
            own_walls = {r.wall_s for r in profile.records_for(params, app=app)}
            assert plan.expected_s in own_walls
            assert plan.backend == profile.best(params, app=app).backend


#: Profiled (48, 64), between them, and beyond both ends.
PLAN_DIMS = (16, 48, 56, 64, 200)


def assert_whole_grid_single_worker(tuner):
    for app in available_applications():
        for dim in PLAN_DIMS:
            plan = tuner.resolve(app, get_application(app, dim=dim).input_params(dim))
            assert fill_engine(plan.backend, plan.engine) in engines_with("serial"), (app, dim, plan)
            assert plan.workers == 1, (app, dim, plan)


class TestNoTunerPlansAMulticoreEngine:
    """Only a pinned policy reaches a tiled engine or a worker count."""

    def test_measured(self, tiny_tuner):
        assert_whole_grid_single_worker(tiny_tuner)

    def test_learned(self, trained_tuner_i7):
        assert_whole_grid_single_worker(trained_tuner_i7)

    def test_exhaustive(self, i7_2600k, tiny_space):
        assert_whole_grid_single_worker(ExhaustiveTuner(i7_2600k, tiny_space))


class TestCalibration:
    def test_constants_from_measurements_inverts_serial(self):
        system = detect_local_system()
        # Fabricate walls from a known iter-ns so the fit must recover it.
        true_iter_ns = 5.0
        clock = 1.6 / system.cpu.freq_ghz
        walls = {}
        for dim in (64, 128):
            params = InputParams(dim=dim, tsize=2.0, dsize=0)
            walls[params] = params.cells * true_iter_ns * params.tsize * clock * 1e-9
        constants = constants_from_measurements(system, walls)
        assert math.isclose(constants.cpu_iter_ns, true_iter_ns, rel_tol=1e-6)

    def test_profile_calibration_predicts_same_order(self, tiny_profile):
        system = detect_local_system()
        constants = tiny_profile.calibrated_constants(system)
        from repro.hardware.costmodel import CostModel

        model = CostModel(system, constants)
        params = tiny_profile.instances()[0]
        predicted = model.serial_time(params)
        measured = tiny_profile.serial_time(params)
        # Same order of magnitude is all the analytic form can promise.
        assert predicted == pytest.approx(measured, rel=9.0)

    def test_needs_at_least_one_wall(self):
        with pytest.raises(ValueError):
            constants_from_measurements(detect_local_system(), {})


class TestMeasuredReport:
    def test_report_renders_and_summarises(self, tiny_profile):
        from repro.analysis.measured import render_measured_report

        text = render_measured_report(tiny_profile, detect_local_system())
        assert "average-case gap" in text and "model [ms]" in text
        assert "tuned" not in text  # the tuned plan is the best record
        for params in tiny_profile.instances():
            assert str(params.dim) in text

    def test_rows_name_the_best_backend_and_price_it(self, tiny_profile):
        from repro.analysis.measured import measured_report_rows

        rows = measured_report_rows(tiny_profile, detect_local_system())
        assert len(rows) == len(tiny_profile.instances())
        for row in rows:
            assert row[5] in PROFILED_BACKENDS
            assert row[6] <= row[7] and row[8] > 0


class TestMeasuredRecordSerialisation:
    def test_record_round_trip(self):
        rec = MeasuredRecord(
            app="lcs",
            backend="vectorized",
            params=InputParams(dim=64, tsize=0.5, dsize=0),
            wall_s=0.0123,
            repeats=3,
        )
        assert MeasuredRecord.from_dict(rec.to_dict()) == rec
