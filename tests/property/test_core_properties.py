"""Property-based tests (hypothesis) for the core geometric invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import diagonal as dg
from repro.core.params import InputParams, TunableParams
from repro.core.partition import count_halo_swaps, partition_diagonal, swap_interval
from repro.core.plan import ThreePhasePlan
from repro.core.tiling import TileDecomposition

dims = st.integers(min_value=2, max_value=200)
small_dims = st.integers(min_value=2, max_value=60)


class TestDiagonalProperties:
    @given(rows=st.integers(1, 100), cols=st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_diagonal_lengths_sum_to_cells(self, rows, cols):
        lengths = [dg.diagonal_length(d, rows, cols) for d in range(rows + cols - 1)]
        assert sum(lengths) == rows * cols
        assert max(lengths) == min(rows, cols)

    @given(dim=dims, d=st.integers(0, 400))
    @settings(max_examples=50, deadline=None)
    def test_cells_before_diagonal_monotone(self, dim, d):
        d = min(d, 2 * dim - 2)
        before = dg.cells_before_diagonal(d, dim)
        after = dg.cells_before_diagonal(d + 1, dim)
        assert after - before == dg.diagonal_length(d, dim, dim)

    @given(dim=dims, band=st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_band_range_symmetric_and_clipped(self, dim, band):
        lo, hi = dg.band_diagonal_range(dim, band)
        assert 0 <= lo <= dim - 1 <= hi <= 2 * dim - 2
        # The band is centred on the main diagonal (clipping preserves symmetry
        # because the grid itself is symmetric around it).
        assert (dim - 1) - lo == hi - (dim - 1)


class TestPlanProperties:
    @given(
        dim=small_dims,
        band=st.integers(-1, 300),
        cpu_tile=st.integers(1, 16),
        halo=st.integers(-1, 50),
        gpu_tile=st.sampled_from([1, 4, 8, 16]),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_plan_partitions_the_grid(self, dim, band, cpu_tile, halo, gpu_tile):
        params = InputParams(dim=dim, tsize=10, dsize=1)
        tunables = TunableParams.from_encoding(cpu_tile, band, halo if band >= 0 else -1, gpu_tile)
        plan = ThreePhasePlan(params, tunables)
        cells = plan.cells_per_phase()
        assert sum(cells.values()) == dim * dim
        spans = [s for s in plan.spans if not s.is_empty]
        covered = sorted(d for s in spans for d in range(s.lo, s.hi + 1))
        assert covered == list(range(2 * dim - 1))


class TestTilingProperties:
    @given(rows=st.integers(1, 80), cols=st.integers(1, 80), tile=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_tiles_cover_grid_once(self, rows, cols, tile):
        decomp = TileDecomposition(rows, cols, tile)
        total = sum((t.row_stop - t.row_start) * (t.col_stop - t.col_start) for t in decomp.all_tiles())
        assert total == rows * cols
        assert int(decomp.tiles_per_diagonal().sum()) == decomp.n_tiles

    @given(rows=st.integers(2, 60), tile=st.integers(1, 10), workers=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_wavefront_waves_bounds(self, rows, tile, workers):
        decomp = TileDecomposition(rows, rows, tile)
        waves = decomp.wavefront_waves(workers)
        assert decomp.n_tile_diagonals <= waves <= decomp.n_tiles


class TestPartitionProperties:
    @given(length=st.integers(1, 500), gpus=st.sampled_from([1, 2]), halo=st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_partition_owns_each_cell_exactly_once(self, length, gpus, halo):
        parts = partition_diagonal(length, gpus, halo)
        owned = [k for p in parts for k in range(p.own_start, p.own_stop)]
        assert owned == list(range(length))
        for p in parts:
            assert 0 <= p.own_start - p.halo_lo <= p.own_stop + p.halo_hi <= length

    @given(n_diags=st.integers(1, 400), halo=st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_swap_count_bounds(self, n_diags, halo):
        swaps = count_halo_swaps(n_diags, halo)
        assert 0 <= swaps <= max(0, n_diags - 1)
        assert swaps <= -(-n_diags // swap_interval(halo))


class TestTunableProperties:
    @given(
        dim=dims,
        cpu_tile=st.integers(1, 64),
        band=st.integers(-1, 10_000),
        halo=st.integers(-1, 5_000),
        gpu_tile=st.integers(1, 64),
    )
    @settings(max_examples=100, deadline=None)
    def test_clipping_is_idempotent_and_legal(self, dim, cpu_tile, band, halo, gpu_tile):
        tunables = TunableParams.from_encoding(cpu_tile, band, halo if band >= 0 else -1, gpu_tile)
        clipped = tunables.clipped(dim)
        assert clipped.clipped(dim) == clipped
        assert clipped.band <= dim - 1
        if clipped.gpu_count == 2:
            assert clipped.halo <= max(0, (dim - clipped.band) // 2)
