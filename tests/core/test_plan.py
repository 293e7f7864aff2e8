"""Tests for the three-phase hybrid plan."""

import pytest

from repro.core.exceptions import PlanError
from repro.core.params import InputParams, TunableParams
from repro.core.plan import PLAN_CACHE_SIZE, Phase, ThreePhasePlan
from repro.core.plan import plan_for as shared_plan


def plan_for(dim=20, band=-1, halo=-1, cpu_tile=4, tsize=100, dsize=1, gpu_tile=1):
    params = InputParams(dim=dim, tsize=tsize, dsize=dsize)
    tunables = TunableParams.from_encoding(cpu_tile, band, halo, gpu_tile)
    return ThreePhasePlan(params, tunables)


class TestThreePhasePlan:
    def test_cpu_only_plan_has_empty_gpu_phase(self):
        plan = plan_for(band=-1)
        assert plan.is_all_cpu and not plan.is_all_gpu
        assert plan.gpu.is_empty
        assert plan.pre.cells(20) + plan.post.cells(20) == 400

    def test_band_covers_2b_plus_1_diagonals(self):
        plan = plan_for(dim=20, band=3)
        assert plan.gpu.n_diagonals == 7
        assert plan.gpu.lo == 16 and plan.gpu.hi == 22

    def test_full_band_is_all_gpu(self):
        plan = plan_for(dim=20, band=19)
        assert plan.is_all_gpu
        assert plan.pre.is_empty and plan.post.is_empty
        assert plan.gpu.cells(20) == 400

    def test_cells_partition_the_grid(self):
        for band in (-1, 0, 1, 5, 10, 19):
            plan = plan_for(dim=20, band=band)
            cells = plan.cells_per_phase()
            assert sum(cells.values()) == 400

    def test_phase_of_diagonal(self):
        plan = plan_for(dim=20, band=2)
        assert plan.phase_of_diagonal(0) is Phase.CPU_PRE
        assert plan.phase_of_diagonal(19) is Phase.GPU_BAND
        assert plan.phase_of_diagonal(38) is Phase.CPU_POST
        with pytest.raises(PlanError):
            plan.phase_of_diagonal(39)

    def test_band_larger_than_grid_is_clipped(self):
        plan = plan_for(dim=20, band=500)
        assert plan.is_all_gpu

    def test_gpu_diagonal_lengths(self):
        plan = plan_for(dim=10, band=1)
        assert plan.gpu_diagonal_lengths().tolist() == [9, 10, 9]
        assert plan_for(dim=10, band=-1).gpu_diagonal_lengths().size == 0

    def test_offload_bytes_include_boundary(self):
        params = InputParams(dim=10, tsize=1, dsize=1)
        plan = ThreePhasePlan(params, TunableParams.from_encoding(1, 1, -1, 1))
        band_cells = plan.gpu.cells(10)
        boundary_cells = 8 + 7  # diagonals 7 and 6
        assert plan.offload_nbytes() == (band_cells + boundary_cells) * 16

    def test_offload_bytes_zero_for_cpu_only(self):
        assert plan_for(band=-1).offload_nbytes() == 0

    def test_symmetric_phases_for_centred_band(self):
        plan = plan_for(dim=21, band=4)
        assert plan.pre.n_diagonals == plan.post.n_diagonals
        assert plan.pre.cells(21) == plan.post.cells(21)

    def test_describe_mentions_phases(self):
        text = plan_for(dim=20, band=3).describe()
        assert "CPU_PRE" in text and "GPU_BAND" in text and "CPU_POST" in text

    def test_dual_gpu_plan_accepted(self):
        plan = plan_for(dim=30, band=10, halo=2)
        assert plan.tunables.gpu_count == 2
        assert not plan.gpu.is_empty


class TestSharedPlans:
    """``plan_for`` hands out one plan per pair; ``once`` keeps what was derived from it."""

    PARAMS = InputParams(dim=40, tsize=100, dsize=1)

    def test_equal_pairs_share_one_plan_object(self):
        first = shared_plan(self.PARAMS, TunableParams.from_encoding(4, 9, 2, 1))
        again = shared_plan(InputParams(dim=40, tsize=100, dsize=1), TunableParams.from_encoding(4, 9, 2, 1))
        assert again is first
        assert shared_plan(self.PARAMS, TunableParams.from_encoding(4, 9, 3, 1)) is not first

    def test_the_factory_is_bounded(self):
        """A stream of distinct pairs evicts: nothing grows with the number of pairs seen."""
        tunables = TunableParams.from_encoding(4, 5, -1, 1)
        first = shared_plan(self.PARAMS, tunables)
        for dim in range(41, 41 + PLAN_CACHE_SIZE):
            shared_plan(InputParams(dim=dim, tsize=100, dsize=1), tunables)
        assert shared_plan(self.PARAMS, tunables) is not first

    def test_an_invalid_pair_raises_every_time_and_is_not_kept(self, monkeypatch):
        calls = []

        def refuse(self):
            calls.append(self)
            raise PlanError("refused")

        monkeypatch.setattr(ThreePhasePlan, "_validate", refuse)
        pair = (InputParams(dim=33, tsize=7, dsize=2), TunableParams.from_encoding(2, 3, -1, 1))
        for _ in range(2):
            with pytest.raises(PlanError):
                shared_plan(*pair)
        assert len(calls) == 2
        monkeypatch.undo()
        assert shared_plan(*pair).gpu.n_diagonals == 7

    def test_once_derives_once_and_forgets_failures(self):
        plan = plan_for(dim=12, band=3)
        attempts = []

        def derive(p):
            attempts.append(p)
            if len(attempts) == 1:
                raise ValueError("first attempt fails")
            return ("derived", len(attempts))

        with pytest.raises(ValueError):
            plan.once(derive)
        assert plan.once(derive) == ("derived", 2)
        assert plan.once(derive) == ("derived", 2)
        assert attempts == [plan, plan]
        # Another plan derives for itself.
        assert plan_for(dim=12, band=3).once(derive) == ("derived", 3)
