"""Tests for the analytic cost model — the paper's qualitative trade-offs."""

import dataclasses

import pytest

from repro.autotuner.measured import PROFILED_BACKENDS
from repro.core.exceptions import InvalidParameterError
from repro.core.params import InputParams, TunableParams
from repro.hardware import platforms
from repro.hardware.costmodel import CostConstants, CostModel, PhaseBreakdown


def ip(dim=1900, tsize=500, dsize=1):
    return InputParams(dim=dim, tsize=tsize, dsize=dsize)


class TestCostConstants:
    def test_cache_factor_shape(self):
        c = CostConstants()
        # Untiled is worst; moderate tiles are best; huge tiles degrade again.
        assert c.cache_factor(1) > c.cache_factor(4) > c.cache_factor(8)
        assert c.cache_factor(8) <= c.cache_factor(100)
        with pytest.raises(InvalidParameterError):
            c.cache_factor(0)

    def test_scaled_override(self):
        c = CostConstants().scaled(gpu_startup_s=1.0)
        assert c.gpu_startup_s == 1.0
        assert CostConstants().gpu_startup_s != 1.0


class TestBreakdown:
    def test_totals_are_sums(self):
        b = PhaseBreakdown(pre_s=1, post_s=2, gpu_compute_s=3, transfer_s=4, startup_s=5)
        assert b.cpu_s == 3 and b.gpu_s == 12 and b.total_s == 15


class TestCostModelBasics:
    def test_serial_scales_with_cells_and_tsize(self, i7_2600k):
        model = CostModel(i7_2600k)
        base = model.serial_time(ip(dim=500, tsize=100))
        assert model.serial_time(ip(dim=1000, tsize=100)) == pytest.approx(4 * base, rel=0.01)
        assert model.serial_time(ip(dim=500, tsize=200)) > 1.9 * base

    def test_cpu_parallel_faster_than_serial(self, any_system):
        model = CostModel(any_system)
        params = ip(dim=1100, tsize=500)
        assert model.baseline_cpu_parallel(params) < model.baseline_serial(params)

    def test_cpu_parallel_speedup_bounded_by_cores(self, i7_2600k):
        model = CostModel(i7_2600k)
        params = ip(dim=2700, tsize=1000)
        speedup = model.baseline_serial(params) / model.baseline_cpu_parallel(params)
        assert 2.0 < speedup <= i7_2600k.cpu.cores + 1

    def test_hybrid_cpu_only_has_no_gpu_cost(self, i7_2600k):
        model = CostModel(i7_2600k)
        b = model.hybrid_breakdown(ip(), TunableParams(cpu_tile=8))
        assert b.gpu_s == 0.0 and b.cpu_s > 0.0

    def test_gpu_config_includes_startup_and_transfer(self, i7_2600k):
        model = CostModel(i7_2600k)
        b = model.hybrid_breakdown(ip(), TunableParams.from_encoding(8, 500, -1, 1))
        assert b.startup_s > 0 and b.transfer_s > 0 and b.gpu_launch_s > 0

    def test_gpu_on_cpu_only_system_rejected(self, i7_2600k):
        model = CostModel(dataclasses.replace(i7_2600k, gpus=()))
        with pytest.raises(InvalidParameterError):
            model.predict(ip(), TunableParams.from_encoding(1, 10, -1, 1))

    def test_dual_gpu_on_single_gpu_system_rejected(self, i3):
        model = CostModel(i3)
        with pytest.raises(InvalidParameterError):
            model.predict(ip(), TunableParams.from_encoding(1, 100, 5, 1))


class TestBackendPricing:
    """Every engine the profiler times is one the model can price."""

    @pytest.mark.parametrize("backend", PROFILED_BACKENDS)
    def test_every_profiled_backend_is_priced(self, backend, i7_2600k):
        model = CostModel(i7_2600k)
        params = ip(dim=256, tsize=100)
        assert 0 < model.cpu_backend_time(backend, params, cpu_tile=32, workers=2) < float("inf")

    def test_an_unregistered_engine_is_not_priced(self, i7_2600k):
        with pytest.raises(InvalidParameterError, match="unknown serial engine 'compiled'"):
            CostModel(i7_2600k).cpu_backend_time("compiled", ip())


class TestPaperTradeoffs:
    """The qualitative effects of Section 2.1 / 4.1 must hold in the model."""

    def test_gpu_wins_for_coarse_grain_large_problems(self, any_system):
        model = CostModel(any_system)
        params = ip(dim=2700, tsize=8000, dsize=1)
        # Use as many GPUs as the platform offers: on the fast-CPU i7-3820 a
        # single Tesla alone does not beat all eight cores (consistent with
        # the paper's observation about GPU-only on the i7 systems).
        gpu = model.baseline_gpu_only(params, gpu_count=any_system.max_usable_gpus)
        cpu = model.baseline_cpu_parallel(params)
        assert gpu < cpu

    def test_cpu_wins_for_fine_grain_small_problems(self, any_system):
        model = CostModel(any_system)
        params = ip(dim=500, tsize=10, dsize=1)
        assert model.baseline_cpu_parallel(params) < model.baseline_gpu_only(params)

    def test_i3_gpu_threshold_lower_than_i7(self):
        """The slow-CPU i3 should favour the GPU at lower tsize than the i7s."""
        params = ip(dim=1100, tsize=200, dsize=1)
        i3_model = CostModel(platforms.I3_540)
        i7_model = CostModel(platforms.I7_3820)
        i3_ratio = i3_model.baseline_gpu_only(params) / i3_model.baseline_cpu_parallel(params)
        i7_ratio = i7_model.baseline_gpu_only(params) / i7_model.baseline_cpu_parallel(params)
        assert i3_ratio < i7_ratio

    def test_dsize_raises_gpu_cost(self, i7_2600k):
        model = CostModel(i7_2600k)
        fat = model.baseline_gpu_only(ip(dsize=5))
        thin = model.baseline_gpu_only(ip(dsize=1))
        assert fat > thin
        # ... while barely affecting the CPU path.
        cpu_fat = model.baseline_cpu_parallel(ip(dsize=5))
        cpu_thin = model.baseline_cpu_parallel(ip(dsize=1))
        assert (fat - thin) > (cpu_fat - cpu_thin)

    def test_best_tuned_speedup_in_paper_range(self):
        """Max tuned speedup over serial should be of order 10-25x (paper: 20x)."""
        best = 0.0
        for system in platforms.ALL_SYSTEMS:
            model = CostModel(system)
            params = ip(dim=2700, tsize=12000, dsize=1)
            halo = 0 if system.max_usable_gpus >= 2 else -1
            tuned = model.predict(
                params, TunableParams.from_encoding(8, 2699, halo, 1)
            )
            best = max(best, model.baseline_serial(params) / tuned)
        assert 8.0 < best < 40.0

    def test_gpu_only_worse_than_cpu_only_on_fast_cpu_low_granularity(self):
        """On the i7 systems, tiny tsize makes the GPU-only scheme lose badly."""
        model = CostModel(platforms.I7_3820)
        params = ip(dim=1100, tsize=50, dsize=1)
        assert model.baseline_gpu_only(params) > 2 * model.baseline_cpu_parallel(params)

    def test_halo_tradeoff_nonmonotone_for_coarse_grain(self, i7_3820):
        """For large tsize, a huge halo must cost more than a moderate one.

        The band is kept partial (band < dim-1) so the paper's constraint
        halo <= 0.5 * (first offloaded diagonal length) leaves headroom.
        """
        model = CostModel(i7_3820)
        params = ip(dim=1900, tsize=8000, dsize=1)
        def rtime(halo):
            return model.predict(params, TunableParams.from_encoding(8, 1200, halo, 1))
        assert rtime(4) < rtime(300)

    def test_large_halo_helps_fine_grain(self, i7_3820):
        """For small tsize the swap latency dominates: larger halo should help."""
        model = CostModel(i7_3820)
        params = ip(dim=1900, tsize=100, dsize=1)
        def rtime(halo):
            return model.predict(params, TunableParams.from_encoding(8, 1200, halo, 1))
        assert rtime(50) < rtime(0)

    def test_halo_clipped_to_half_first_diagonal(self, i7_3820):
        """With a maximal band the first offloaded diagonal has length 1, so
        the halo is forced to 0 (Table 3's upper bound)."""
        model = CostModel(i7_3820)
        params = ip(dim=1900, tsize=1000, dsize=1)
        a = model.predict(params, TunableParams.from_encoding(8, 1899, 0, 1))
        b = model.predict(params, TunableParams.from_encoding(8, 1899, 50, 1))
        assert a == pytest.approx(b)

    def test_gpu_tiling_reduces_launches_but_adds_sync(self, i7_2600k):
        model = CostModel(i7_2600k)
        params = ip(dim=1900, tsize=2000, dsize=1)
        untiled = model.hybrid_breakdown(params, TunableParams.from_encoding(8, 1899, -1, 1))
        tiled = model.hybrid_breakdown(params, TunableParams.from_encoding(8, 1899, -1, 8))
        assert tiled.gpu_launch_s < untiled.gpu_launch_s
        assert tiled.gpu_sync_s > untiled.gpu_sync_s == 0.0
        # When compute dominates, tiling is counter-productive overall (Sec 4.1.1).
        assert tiled.total_s > untiled.total_s

    def test_dual_gpu_helps_large_coarse_problems(self, i7_3820):
        model = CostModel(i7_3820)
        params = ip(dim=2700, tsize=8000, dsize=1)
        single = model.predict(params, TunableParams.from_encoding(8, 2699, -1, 1))
        dual = model.predict(params, TunableParams.from_encoding(8, 2699, 20, 1))
        assert dual < single
