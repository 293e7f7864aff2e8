"""Tests for the AutoTuner facade, baselines and persistence."""

import dataclasses

import pytest

from repro.apps.nash import NASH_DSIZE, NASH_TSIZE, NashEquilibriumApp
from repro.apps.synthetic import SyntheticApp
from repro.autotuner.baselines import simple_scheme_times
from repro.autotuner.persistence import load_tuner, save_tuner
from repro.autotuner.tuner import AutoTuner
from repro.session import Session
from repro.core.exceptions import ModelNotFittedError, SearchError
from repro.core.parameter_space import PAPER_CPU_TILES
from repro.core.params import InputParams
from repro.utils.serialization import load_json, save_json


class TestAutoTuner:
    def test_training_populates_everything(self, trained_tuner_i7):
        assert trained_tuner_i7.trained
        assert len(trained_tuner_i7.results) > 0
        assert len(trained_tuner_i7.training) > 0
        assert trained_tuner_i7.validation.instances > 0

    def test_untrained_tune_rejected(self, i7_2600k, tiny_space):
        tuner = AutoTuner(i7_2600k, space=tiny_space)
        with pytest.raises(ModelNotFittedError):
            tuner.tune(InputParams(dim=64, tsize=10, dsize=1))

    def test_tune_accepts_problem_app_or_params(self, trained_tuner_i7):
        params = InputParams(dim=96, tsize=500, dsize=1)
        app = SyntheticApp(dim=96, tsize=500, dsize=1)
        configs = {
            trained_tuner_i7.tune(params),
            trained_tuner_i7.tune(app),
            trained_tuner_i7.tune(app.problem()),
        }
        assert len(configs) == 1

    def test_tune_rejects_unknown_target(self, trained_tuner_i7):
        with pytest.raises(SearchError):
            trained_tuner_i7.tune("not a problem")

    def test_validation_efficiency_reasonable(self, reduced_tuner_i7):
        """The learned tuner should reach a high fraction of the search optimum."""
        assert reduced_tuner_i7.validation.mean_efficiency > 0.85

    def test_speedup_over_serial_positive(self, reduced_tuner_i7):
        nash = InputParams(dim=1900, tsize=NASH_TSIZE, dsize=NASH_DSIZE)
        serial = reduced_tuner_i7.cost_model.baseline_serial(nash)
        assert serial / reduced_tuner_i7.predicted_rtime(nash) > 1.0

    def test_efficiency_of_unseen_instance(self, reduced_tuner_i7):
        unseen = InputParams(dim=1500, tsize=900, dsize=1)
        eff = reduced_tuner_i7.efficiency(unseen)
        assert 0.0 < eff < 1.6  # may exceed 1.0 slightly (super-optimal)


class TestBaselines:
    def test_scheme_ordering_coarse_grain(self, i3):
        schemes = simple_scheme_times(i3, InputParams(dim=1900, tsize=4000, dsize=1))
        assert schemes.serial > schemes.cpu_parallel
        assert schemes.gpu_only < schemes.serial
        speedups = schemes.speedups_of(schemes.cpu_parallel / 2)
        assert speedups["vs_cpu_parallel"] == pytest.approx(2.0)

    def test_cpu_only_system_has_infinite_gpu_scheme(self, i7_2600k):
        cpu_only = dataclasses.replace(i7_2600k, gpus=())
        schemes = simple_scheme_times(cpu_only, InputParams(dim=500, tsize=100, dsize=1))
        assert schemes.gpu_only == float("inf")


class TestPersistence:
    def test_save_load_roundtrip(self, trained_tuner_i7, tmp_path):
        path = save_tuner(trained_tuner_i7.model, tmp_path / "tuner.json")
        clone = load_tuner(path)
        features = {"dim": 700, "tsize": 750, "dsize": 4}
        assert clone.predict(features) == trained_tuner_i7.model.predict(features)

    def test_a_model_file_carrying_its_tile_grid_still_loads(self, trained_tuner_i7, tmp_path):
        # Files saved while the cpu-tile grid was a LearnedTuner field carry
        # it as "cpu_tile_choices" (the paper grid, for every learned model);
        # the key is ignored and every plan is unchanged.
        path = save_tuner(trained_tuner_i7.model, tmp_path / "tuner.json")
        payload = load_json(path)
        assert "cpu_tile_choices" not in payload["tuner"]
        payload["tuner"]["cpu_tile_choices"] = list(PAPER_CPU_TILES)
        save_json(payload, path)
        tuner = AutoTuner(trained_tuner_i7.system, space=trained_tuner_i7.space)
        tuner.model = load_tuner(path)
        for params in trained_tuner_i7.results.instances():
            assert tuner.resolve("synthetic", params) == trained_tuner_i7.resolve("synthetic", params)

    def test_bad_payload_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"something\": 1}", encoding="utf-8")
        with pytest.raises(SearchError):
            load_tuner(bad)


class TestTuneAndSolveInOneCall:
    def test_one_call_simulate(self, i3, quick_tuner_i3):
        app = SyntheticApp(dim=256, tsize=750, dsize=1)
        with Session(system=i3, tuner=quick_tuner_i3) as session:
            result = session.solve(app, mode="simulate")
        assert result.rtime > 0 and result.grid is None

    def test_one_call_functional_small(self, i3, quick_tuner_i3):
        app = NashEquilibriumApp(dim=20)
        with Session(system=i3, tuner=quick_tuner_i3) as session:
            result = session.solve(app, mode="functional")
        assert result.grid is not None and result.wall_time > 0
