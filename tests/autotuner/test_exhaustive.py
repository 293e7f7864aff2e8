"""Tests for the exhaustive search and its result container."""

import pytest

from repro.autotuner import exhaustive
from repro.autotuner.exhaustive import ExhaustiveSearch, RUNTIME_THRESHOLD_S
from repro.autotuner.search_space import SearchSpace
from repro.core.exceptions import SearchError
from repro.core.parameter_space import ParameterSpace
from repro.core.params import InputParams, TunableParams


class TestSearchSpace:
    def test_single_gpu_system_has_no_dual_configs(self, tiny_space, i3):
        space = SearchSpace(tiny_space, i3)
        instance = InputParams(dim=64, tsize=10, dsize=1)
        assert all(c.gpu_count <= 1 for c in space.configurations(instance))
        assert space.max_gpus == 1

    def test_dual_gpu_system_explores_halo(self, tiny_space, i7_3820):
        space = SearchSpace(tiny_space, i7_3820)
        instance = InputParams(dim=64, tsize=10, dsize=1)
        assert any(c.gpu_count == 2 for c in space.configurations(instance))

    def test_configurations_unique(self, tiny_space, i7_2600k):
        space = SearchSpace(tiny_space, i7_2600k)
        configs = space.configurations(InputParams(dim=64, tsize=10, dsize=1))
        assert len(configs) == len(set(configs))

    def test_size_estimate_and_describe(self, tiny_space, i7_2600k):
        space = SearchSpace(tiny_space, i7_2600k)
        assert space.size_estimate() > 0
        info = space.describe()
        assert info["system"] == "i7-2600K" and info["max_gpus"] == 2


class TestExhaustiveSearch:
    def test_sweep_covers_all_instances(self, tiny_results_i7, tiny_space):
        assert len(tiny_results_i7.instances()) == tiny_space.n_instances
        assert len(tiny_results_i7) > tiny_space.n_instances  # many configs each

    def test_serial_baselines_recorded(self, tiny_results_i7):
        for params in tiny_results_i7.instances():
            assert tiny_results_i7.serial_time(params) > 0

    def test_best_is_minimum(self, tiny_results_i7):
        params = tiny_results_i7.instances()[0]
        best = tiny_results_i7.best(params)
        rtimes = [r.rtime for r in tiny_results_i7.records_for(params)]
        assert best.rtime == min(rtimes)

    def test_best_n_sorted(self, tiny_results_i7):
        params = tiny_results_i7.instances()[0]
        top = tiny_results_i7.best_n(params, 5)
        assert len(top) == 5
        assert all(a.rtime <= b.rtime for a, b in zip(top, top[1:]))

    def test_average_and_std(self, tiny_results_i7):
        params = tiny_results_i7.instances()[0]
        avg = tiny_results_i7.average_rtime(params)
        best = tiny_results_i7.best(params).rtime
        assert avg >= best
        assert tiny_results_i7.std_rtime(params) >= 0

    def test_best_speedup_at_least_cpu_parallel(self, tiny_results_i7):
        params = tiny_results_i7.instances()[-1]
        assert tiny_results_i7.serial_time(params) / tiny_results_i7.best(params).rtime > 1.0

    def test_threshold_flagging(self, i7_2600k, tiny_space, monkeypatch):
        assert ExhaustiveSearch(i7_2600k, tiny_space).threshold_s == RUNTIME_THRESHOLD_S
        monkeypatch.setattr(exhaustive, "RUNTIME_THRESHOLD_S", 1e-9)
        search = ExhaustiveSearch(i7_2600k, tiny_space)
        record = search.evaluate(
            InputParams(dim=64, tsize=100, dsize=1), TunableParams(cpu_tile=4)
        )
        assert record.exceeded_threshold

    def test_unknown_instance_queries_raise(self, tiny_results_i7):
        ghost = InputParams(dim=77, tsize=3, dsize=1)
        with pytest.raises(SearchError):
            tiny_results_i7.best(ghost)
        with pytest.raises(SearchError):
            tiny_results_i7.serial_time(ghost)
