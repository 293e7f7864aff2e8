"""Tests for CPU tiling and the tile wavefront."""

import numpy as np
import pytest

from repro.core.exceptions import InvalidParameterError
from repro.core.tiling import TileDecomposition, triangular_tile_waves


class TestTileDecomposition:
    def test_tile_counts_exact_division(self):
        decomp = TileDecomposition(20, 20, 4)
        assert decomp.tile_rows == 5 and decomp.tile_cols == 5
        assert decomp.n_tiles == 25

    def test_tile_counts_ragged(self):
        decomp = TileDecomposition(10, 10, 3)
        assert decomp.tile_rows == 4
        last = decomp.tile_at(3, 3)
        assert last.row_stop - last.row_start == 1 and last.col_stop - last.col_start == 1

    def test_tiles_cover_grid_exactly(self):
        decomp = TileDecomposition(13, 9, 4)
        covered = np.zeros((13, 9), dtype=int)
        for tile in decomp.all_tiles():
            covered[tile.row_start:tile.row_stop, tile.col_start:tile.col_stop] += 1
        assert np.all(covered == 1)

    def test_schedule_respects_dependencies(self):
        decomp = TileDecomposition(12, 12, 4)
        seen = set()
        for wave in decomp.schedule():
            for tile in wave:
                # West / north / north-west tile neighbours must already be done.
                for dep in [(tile.tile_row - 1, tile.tile_col), (tile.tile_row, tile.tile_col - 1), (tile.tile_row - 1, tile.tile_col - 1)]:
                    if dep[0] >= 0 and dep[1] >= 0:
                        assert dep in seen
            for tile in wave:
                seen.add((tile.tile_row, tile.tile_col))
        assert len(seen) == decomp.n_tiles

    def test_tiles_per_diagonal_matches_schedule(self):
        decomp = TileDecomposition(17, 11, 3)
        counts = decomp.tiles_per_diagonal()
        schedule = decomp.schedule()
        assert len(schedule) == decomp.n_tile_diagonals
        for td, wave in enumerate(schedule):
            assert counts[td] == len(wave)

    def test_wavefront_waves_single_worker(self):
        decomp = TileDecomposition(8, 8, 4)
        # With one worker each tile is its own round.
        assert decomp.wavefront_waves(1) == decomp.n_tiles

    def test_wavefront_waves_many_workers_is_critical_path(self):
        decomp = TileDecomposition(8, 8, 4)
        # With unlimited workers the critical path is the number of tile diagonals.
        assert decomp.wavefront_waves(100) == decomp.n_tile_diagonals

    def test_parallel_efficiency_bounds(self):
        decomp = TileDecomposition(40, 40, 4)
        eff1 = decomp.parallel_efficiency(1)
        eff8 = decomp.parallel_efficiency(8)
        assert eff1 == pytest.approx(1.0)
        assert 0.0 < eff8 <= 1.0

    def test_tile_lookup_out_of_range(self):
        decomp = TileDecomposition(8, 8, 4)
        with pytest.raises(InvalidParameterError):
            decomp.tile_at(5, 0)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            TileDecomposition(0, 4, 1)
        with pytest.raises(InvalidParameterError):
            TileDecomposition(4, 4, 0)
        with pytest.raises(InvalidParameterError):
            TileDecomposition(4, 4, 2).wavefront_waves(0)


class TestTriangularTileWaves:
    def test_zero_diagonals_is_zero(self):
        assert triangular_tile_waves(100, 0, 4, 8) == 0

    def test_full_grid_matches_decomposition(self):
        dim, tile, workers = 24, 4, 3
        expected = TileDecomposition(dim, dim, tile).wavefront_waves(workers)
        assert triangular_tile_waves(dim, 2 * dim - 1, tile, workers) == expected

    def test_monotone_in_region_size(self):
        waves = [triangular_tile_waves(64, k, 4, 4) for k in (8, 16, 32, 64, 127)]
        assert all(a <= b for a, b in zip(waves, waves[1:]))

    def test_more_workers_never_slower(self):
        for workers in (1, 2, 4, 8):
            assert triangular_tile_waves(32, 20, 4, workers) >= triangular_tile_waves(
                32, 20, 4, workers + 1
            )

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            triangular_tile_waves(0, 3, 1, 1)
        with pytest.raises(InvalidParameterError):
            triangular_tile_waves(8, 3, 0, 1)
        with pytest.raises(InvalidParameterError):
            triangular_tile_waves(8, 3, 1, 0)
