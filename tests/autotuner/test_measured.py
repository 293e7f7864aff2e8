"""Tests for the measured-profile autotuning pipeline.

Covers the whole profile → train → tune loop on a deliberately tiny
instance grid (this runs for real), persistence round-trips including the
stale ``format_version`` contract, and the tuned-plan cache.
"""

import math

import pytest

from repro.autotuner.measured import (
    DEFAULT_MODEL_PATH,
    DEFAULT_PROFILE_PATH,
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
from repro.autotuner.persistence import load_tuner, save_tuner
from repro.core.exceptions import ArtifactError, SearchError
from repro.core.params import InputParams, TunableParams
from repro.hardware.calibration import constants_from_measurements
from repro.hardware.system import detect_local_system
from repro.session import Session
from repro.utils.serialization import load_json, save_json

TINY_CONFIG = ProfileConfig(
    apps=("lcs", "synthetic"),
    dims=(48, 64),
    backends=("serial", "vectorized", "mp-parallel"),
    tiles=(8, 16),
    repeats=3,
    budget_s=60.0,
)


@pytest.fixture(scope="module")
def tiny_profile():
    return profile_host(detect_local_system(), TINY_CONFIG)


@pytest.fixture(scope="module")
def tiny_tuner(tiny_profile):
    return MeasuredTuner.train(tiny_profile)


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
        assert {r.backend for r in tiny_profile.records} == set(TINY_CONFIG.backends)
        assert not tiny_profile.host["truncated"]

    def test_serial_reference_every_instance(self, tiny_profile):
        for params in tiny_profile.instances():
            assert tiny_profile.serial_time(params) > 0

    def test_walls_are_positive_and_best_is_min(self, tiny_profile):
        for params in tiny_profile.instances():
            records = tiny_profile.records_for(params)
            assert all(r.wall_s > 0 for r in records)
            assert tiny_profile.best(params).wall_s == min(r.wall_s for r in records)

    def test_reference_backend_required(self):
        with pytest.raises(SearchError):
            ProfileConfig(backends=("vectorized",)).validate()

    def test_unregistered_backend_rejected(self):
        with pytest.raises(SearchError, match="unknown backends"):
            ProfileConfig(backends=("serial", "compiled")).validate()

    def test_profiled_backends_are_the_registered_cpu_engines(self):
        # No second hand-written list: the registry's whole-grid engines,
        # best first, then its tiled ones.
        assert PROFILED_BACKENDS == ("vectorized", "serial", "mp-parallel", "pipelined")
        assert ProfileConfig().backends == PROFILED_BACKENDS
        ProfileConfig().validate()

    def test_budget_truncates_but_keeps_serial(self):
        config = ProfileConfig(
            apps=("lcs",),
            dims=(32, 48),
            backends=("serial", "vectorized", "mp-parallel"),
            tiles=(8, 16),
            repeats=1,
            budget_s=1e-9,
        )
        profile = profile_host(detect_local_system(), config)
        assert profile.host["truncated"]
        for params in profile.instances():
            assert profile.serial_time(params) > 0

    def test_to_search_results_is_compatible(self, tiny_profile):
        results = tiny_profile.to_search_results()
        assert results.system == "local"
        assert set(results.instances()) == set(tiny_profile.instances())
        for params in results.instances():
            assert results.best(params).rtime == tiny_profile.best(params).wall_s
            assert results.serial_time(params) == tiny_profile.serial_time(params)


class TestProfilePersistence:
    def test_round_trip(self, tiny_profile, tmp_path):
        path = save_profile(tiny_profile, tmp_path / "profile.json")
        restored = load_profile(path)
        assert restored.system == tiny_profile.system
        assert restored.records == tiny_profile.records
        assert restored.host["cores"] == tiny_profile.host["cores"]

    @pytest.mark.parametrize("version", [1, PROFILE_FORMAT_VERSION + 1])
    def test_stale_format_version_raises(self, tiny_profile, tmp_path, version):
        # Version 1 profiles carry ``hybrid-<engine>`` rows no engine answers to.
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

    def test_default_paths_are_under_benchmarks(self):
        assert "benchmarks" in str(DEFAULT_PROFILE_PATH)
        assert "benchmarks" in str(DEFAULT_MODEL_PATH)


class TestMeasuredTuner:
    def test_trains_cpu_only_models(self, tiny_tuner):
        assert tiny_tuner.model.fitted
        assert not tiny_tuner.model.supports_gpu
        assert tiny_tuner.model.cpu_tile_choices == (1, 8, 16)

    def test_tuned_plan_near_measured_best(self, tiny_tuner):
        # The pipeline's acceptance bound is 1.25x at `repro profile --quick`
        # scale (dims >= 128, milliseconds per wall); at this test's tiny
        # dims the walls are fractions of a millisecond and raw timer noise
        # between two configurations alone can exceed 25%, so the bound here
        # is deliberately looser — it still catches picking a genuinely bad
        # backend or tile.
        for params in tiny_tuner.profile.instances():
            records = tiny_tuner.profile.records_for(params)
            app = records[0].app
            plan = tiny_tuner.resolve(app, params)
            best = tiny_tuner.profile.best(params, app=app).wall_s
            assert plan.expected_s <= 2.0 * best
            assert plan.backend in TINY_CONFIG.backends

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
        assert plan.expected_s > 0
        assert plan.tunables.cpu_tile <= 56
        assert tiny_tuner.nearest_instance(params).dim in (48, 64)

    def test_model_round_trip_preserves_predictions(self, tiny_profile, tiny_tuner, tmp_path):
        path = save_tuner(tiny_tuner.model, tmp_path / "tuner.json")
        restored = MeasuredTuner(tiny_profile, load_tuner(path))
        assert restored.model.cpu_tile_choices == tiny_tuner.model.cpu_tile_choices
        for params in tiny_profile.instances():
            app = tiny_profile.records_for(params)[0].app
            assert restored.resolve(app, params) == tiny_tuner.resolve(app, params)

    def test_empty_profile_rejected(self):
        with pytest.raises(SearchError):
            MeasuredTuner.train(MeasuredProfile(system="local"))

    def test_same_signature_apps_keep_their_own_measurements(self):
        # lcs and edit-distance share the (tsize=0.5, dsize=0) signature, so
        # they collapse onto one InputParams instance; deployment queries
        # must still answer from the asking app's own records.
        config = ProfileConfig(
            apps=("lcs", "edit-distance"),
            dims=(48,),
            backends=("serial", "vectorized"),
            tiles=(8,),
            repeats=1,
        )
        profile = profile_host(detect_local_system(), config)
        assert len(profile.instances()) == 1  # signatures collapsed
        tuner = MeasuredTuner.train(profile)
        params = profile.instances()[0]
        for app in ("lcs", "edit-distance"):
            plan = tuner.resolve(app, params)
            own_walls = {r.wall_s for r in profile.records_for(params, app=app)}
            assert plan.expected_s in own_walls
            assert plan.backend == profile.best(params, app=app).backend


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
    def test_report_renders_and_summarises(self, tiny_profile, tiny_tuner, tmp_path):
        from repro.analysis.measured import write_measured_report

        path = write_measured_report(
            tmp_path / "report.txt", tiny_profile, tiny_tuner, detect_local_system()
        )
        text = path.read_text(encoding="utf-8")
        assert "average-case gap" in text
        assert "tuned-plan efficiency" in text
        for params in tiny_profile.instances():
            assert str(params.dim) in text


class TestMeasuredRecordSerialisation:
    def test_record_round_trip(self):
        record = MeasuredRecord(
            app="lcs",
            backend="mp-parallel",
            workers=2,
            params=InputParams(dim=64, tsize=0.5, dsize=0),
            tunables=TunableParams(cpu_tile=16),
            wall_s=0.0123,
            repeats=3,
        )
        assert MeasuredRecord.from_dict(record.to_dict()) == record
