"""Tests for multi-GPU diagonal partitioning and halo bookkeeping."""

import pytest

from repro.core.exceptions import PartitionError
from repro.core.partition import (
    count_halo_swaps,
    halo_swap_nbytes,
    partition_diagonal,
    swap_interval,
)


class TestPartitionDiagonal:
    def test_single_gpu_owns_everything(self):
        parts = partition_diagonal(17, 1, 0)
        assert len(parts) == 1
        assert parts[0].own_cells == 17
        assert parts[0].halo_lo + parts[0].halo_hi == 0

    def test_two_gpus_split_evenly(self):
        parts = partition_diagonal(10, 2, 0)
        assert [p.own_cells for p in parts] == [5, 5]
        assert parts[0].own_stop == parts[1].own_start

    def test_odd_split_gives_extra_to_first(self):
        parts = partition_diagonal(11, 2, 0)
        assert [p.own_cells for p in parts] == [6, 5]

    def test_own_regions_cover_diagonal_without_overlap(self):
        for length in (1, 2, 5, 9, 100):
            for gpus in (1, 2):
                parts = partition_diagonal(length, gpus, 3)
                covered = []
                for p in parts:
                    covered.extend(range(p.own_start, p.own_stop))
                assert covered == list(range(length))

    def test_halo_adds_redundant_cells_only_at_internal_boundaries(self):
        parts = partition_diagonal(20, 2, 3)
        assert parts[0].halo_lo == 0 and parts[0].halo_hi == 3
        assert parts[1].halo_lo == 3 and parts[1].halo_hi == 0

    def test_halo_clipped_to_diagonal(self):
        parts = partition_diagonal(4, 2, 100)
        assert parts[0].own_stop + parts[0].halo_hi <= 4
        assert parts[1].own_start - parts[1].halo_lo >= 0

    def test_invalid_arguments(self):
        with pytest.raises(PartitionError):
            partition_diagonal(0, 1, 0)
        with pytest.raises(PartitionError):
            partition_diagonal(5, 0, 0)
        with pytest.raises(PartitionError):
            partition_diagonal(5, 2, -1)


class TestHaloBookkeeping:
    def test_swap_interval_minimum_one(self):
        assert swap_interval(0) == 1
        assert swap_interval(4) == 4
        with pytest.raises(PartitionError):
            swap_interval(-1)

    def test_count_halo_swaps_every_step_for_zero_halo(self):
        assert count_halo_swaps(10, 0) == 9

    def test_count_halo_swaps_fewer_with_larger_halo(self):
        swaps = [count_halo_swaps(100, h) for h in (0, 1, 5, 10, 50)]
        assert all(a >= b for a, b in zip(swaps, swaps[1:]))
        assert count_halo_swaps(1, 0) == 0

    def test_halo_swap_nbytes(self):
        assert halo_swap_nbytes(100, 1, 5, 16) == 0
        assert halo_swap_nbytes(100, 2, 5, 16) == 2 * 6 * 16
        # Clipped by the diagonal length.
        assert halo_swap_nbytes(3, 2, 10, 8) == 2 * 3 * 8
