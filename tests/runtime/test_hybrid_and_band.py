"""Correctness tests for the hybrid three-phase executor and the GPU band.

The central invariant of the whole reproduction: for EVERY configuration of
the tunable parameters, the hybrid execution produces exactly the same grid
as the serial sweep.
"""

import sys
import threading

import pytest

from repro.core.exceptions import ExecutionError, InvalidParameterError
from repro.core.params import InputParams, TunableParams
from repro.core.plan import ThreePhasePlan, plan_for
from repro.runtime.band import band_counters
from repro.runtime import band
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.serial import SerialExecutor
from repro.apps.nash import NashEquilibriumApp
from repro.apps.sequence import SequenceComparisonApp
from repro.apps.synthetic import SyntheticApp
from repro.facade.policy import ExecutionPolicy
from repro.session import Session


CONFIGS = [
    TunableParams(cpu_tile=4),                                   # all CPU
    TunableParams.from_encoding(2, 0, -1, 1),                    # single diagonal on GPU
    TunableParams.from_encoding(4, 8, -1, 1),                    # single GPU, partial band
    TunableParams.from_encoding(4, 8, -1, 8),                    # single GPU, tiled
    TunableParams.from_encoding(1, 31, -1, 1),                   # single GPU, full band
    TunableParams.from_encoding(8, 10, 0, 1),                    # dual GPU, halo 0
    TunableParams.from_encoding(2, 10, 3, 1),                    # dual GPU, small halo
    TunableParams.from_encoding(2, 31, 0, 4),                    # dual GPU, full band, tiled
    TunableParams.from_encoding(4, 14, 7, 1),                    # dual GPU, large halo
]


class TestHybridCorrectness:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
    def test_hybrid_matches_serial_synthetic(self, i7_2600k, config):
        problem = SyntheticApp(dim=32, tsize=100, dsize=1).problem()
        serial = SerialExecutor(i7_2600k).execute(problem)
        hybrid = HybridExecutor(i7_2600k).execute(problem, config)
        assert serial.matches(hybrid), f"mismatch for {config.describe()}"

    @pytest.mark.parametrize("app_factory", [
        lambda: NashEquilibriumApp(dim=26),
        lambda: SequenceComparisonApp(dim=27, seed=1),
        lambda: SyntheticApp(dim=25, tsize=10, dsize=5),
    ], ids=["nash", "smith-waterman", "synthetic-d5"])
    def test_hybrid_matches_serial_real_apps(self, i7_3820, app_factory):
        problem = app_factory().problem()
        serial = SerialExecutor(i7_3820).execute(problem)
        for config in (CONFIGS[2], CONFIGS[5], CONFIGS[7]):
            hybrid = HybridExecutor(i7_3820).execute(problem, config)
            assert serial.matches(hybrid), config.describe()

    def test_single_gpu_system_runs_single_gpu_configs(self, i3):
        problem = SyntheticApp(dim=24, tsize=100, dsize=1).problem()
        serial = SerialExecutor(i3).execute(problem)
        hybrid = HybridExecutor(i3).execute(problem, TunableParams.from_encoding(4, 10, -1, 1))
        assert serial.matches(hybrid)

    def test_dual_gpu_config_rejected_on_single_gpu_system(self, i3):
        problem = SyntheticApp(dim=24, tsize=100, dsize=1).problem()
        with pytest.raises(InvalidParameterError):
            HybridExecutor(i3).execute(problem, TunableParams.from_encoding(4, 10, 2, 1))

    def test_a_functional_run_is_measured_not_priced(self, i7_2600k):
        problem = SyntheticApp(dim=28, tsize=200, dsize=1).problem()
        result = HybridExecutor(i7_2600k).execute(problem, TunableParams.from_encoding(4, 9, 2, 1))
        assert result.rtime is None and result.breakdown is None
        assert result.mode == "functional" and result.wall_time > 0

    def test_breakdown_components_positive_for_gpu_config(self, i7_2600k):
        with Session(system=i7_2600k) as session:
            policy = ExecutionPolicy(
                backend="hybrid", tunables=TunableParams.from_encoding(4, 9, -1, 1)
            )
            plan = session.plan("synthetic", 28, policy=policy, tsize=200, dsize=1)
            b = session.run(plan, mode="simulate").breakdown
        assert b.pre_s > 0 and b.post_s > 0 and b.gpu_compute_s > 0 and b.startup_s > 0


class TestBandCounterOperations:
    def band_stats(self, dim=30, band=10, halo=2):
        params = InputParams(dim=dim, tsize=100, dsize=1)
        tunables = TunableParams.from_encoding(4, band, halo, 1).clipped(dim)
        plan = ThreePhasePlan(params, tunables)
        return tunables, band_counters(plan)

    def test_kernel_launch_count_untiled(self):
        tunables, stats = self.band_stats()
        # One launch per diagonal per device when gpu_tile == 1.
        assert stats["kernel_launches"] == stats["band_diagonals"] * tunables.gpu_count

    def test_halo_swaps_counted_and_bounded(self):
        _, stats = self.band_stats(halo=2)
        n_diags = stats["band_diagonals"]
        assert 0 < stats["halo_swaps"] <= n_diags
        # Larger halo => no more swaps than a zero halo needs.
        _, stats_zero = self.band_stats(halo=0)
        assert stats["halo_swaps"] <= stats_zero["halo_swaps"]

    def test_redundant_cells_grow_with_halo(self):
        _, narrow = self.band_stats(halo=0)
        _, wide = self.band_stats(halo=3)
        assert wide["redundant_cells"] > narrow["redundant_cells"]

    def test_transfers_recorded(self):
        _, stats = self.band_stats(halo=2)
        assert stats["bytes_h2d"] > 0 and stats["bytes_d2h"] > 0

    def test_plan_without_a_band_is_rejected(self):
        params = InputParams(dim=30, tsize=100, dsize=1)
        tunables = TunableParams(cpu_tile=4)
        with pytest.raises(ExecutionError):
            band_counters(ThreePhasePlan(params, tunables))


class TestGPUOnlyPlans:
    """The whole grid in the GPU band: the hybrid executor at ``band = dim - 1``."""

    def test_single_gpu_whole_grid(self, i3):
        problem = SyntheticApp(dim=20, tsize=100, dsize=1).problem()
        serial = SerialExecutor(i3).execute(problem)
        whole_grid = TunableParams.from_encoding(cpu_tile=1, band=19, halo=-1, gpu_tile=1)
        gpu = HybridExecutor(i3).execute(problem, whole_grid)
        assert serial.matches(gpu)
        assert gpu.tunables.band == 19 and gpu.tunables.gpu_count == 1
        assert gpu.stats["phase1_cells"] == gpu.stats["phase3_cells"] == 0

    def test_multi_gpu_whole_grid(self, i7_3820):
        problem = SyntheticApp(dim=20, tsize=100, dsize=1).problem()
        serial = SerialExecutor(i7_3820).execute(problem)
        whole_grid = TunableParams.from_encoding(cpu_tile=1, band=19, halo=2, gpu_tile=1)
        gpu = HybridExecutor(i7_3820).execute(problem, whole_grid)
        assert serial.matches(gpu)
        assert gpu.tunables.gpu_count == 2
        assert gpu.stats["phase1_cells"] == gpu.stats["phase3_cells"] == 0


class TestPlanDerivedStateIsNotShared:
    """Counters are computed once per plan; results never share them."""

    CONFIG = TunableParams.from_encoding(4, 9, 2, 1)

    def test_mutating_one_results_stats_does_not_reach_the_next_solve(self, i7_2600k):
        problem = SyntheticApp(dim=28, tsize=200, dsize=1).problem()
        executor = HybridExecutor(i7_2600k)
        first = executor.execute(problem, self.CONFIG)
        pinned = dict(first.stats)
        assert pinned["halo_swaps"] > 0
        first.stats["halo_swaps"] = -1
        first.stats.pop("band_cells")
        second = executor.execute(problem, self.CONFIG)
        assert second.stats is not first.stats
        assert second.stats == pinned

    def test_counters_are_emulated_once_per_plan_and_copied_per_call(self, monkeypatch):
        sweeps = []
        emulate = band._two_device_sweep
        monkeypatch.setattr(
            band, "_two_device_sweep", lambda *args: sweeps.append(args) or emulate(*args)
        )
        plan = ThreePhasePlan(InputParams(dim=30, tsize=100, dsize=1), self.CONFIG)
        first, second = band_counters(plan), band_counters(plan)
        assert first == second and first is not second
        first["events"] = 0
        assert band_counters(plan) == second
        assert len(sweeps) == 1

    def test_a_refused_plan_is_refused_again_not_remembered(self):
        plan = plan_for(InputParams(dim=30, tsize=100, dsize=1), TunableParams(cpu_tile=4))
        for _ in range(2):
            with pytest.raises(ExecutionError):
                band_counters(plan)

    def test_threads_sharing_plans_all_read_the_same_counters(self):
        """More threads than cores race first use of shared plans; nobody sees a torn value."""
        pairs = [
            (InputParams(dim=dim, tsize=100, dsize=1), TunableParams.from_encoding(4, dim // 2, halo, 1))
            for dim in (61, 62, 63)
            for halo in (-1, 0, 3)
        ]
        expected = [band_counters(ThreePhasePlan(*pair)) for pair in pairs]
        wrong = []

        def worker():
            for _ in range(40):
                for pair, counters in zip(pairs, expected):
                    stats = band_counters(plan_for(*pair))
                    if stats != counters:
                        wrong.append(stats)
                    stats.clear()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
