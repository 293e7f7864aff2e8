"""Property-based tests of the tile-wavefront schedule.

The multicore backend's barriered dispatch walks
:meth:`~repro.core.tiling.TileDecomposition.schedule`; its correctness rests
on one invariant, checked here for arbitrary grids and tile sizes: every
tile is executed exactly once, in a wave that respects the tile wavefront
(waves are tile-diagonals in increasing order).
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.tiling import TileDecomposition

grid_sides = st.integers(min_value=1, max_value=40)
tiles = st.integers(min_value=1, max_value=12)


def _tile_key(tile):
    return (tile.tile_row, tile.tile_col)


class TestFullSchedule:
    @given(rows=grid_sides, cols=grid_sides, tile=tiles)
    @settings(max_examples=80, deadline=None)
    def test_each_tile_scheduled_exactly_once(self, rows, cols, tile):
        decomp = TileDecomposition(rows, cols, tile)
        seen = Counter(_tile_key(t) for wave in decomp.schedule() for t in wave)
        assert len(seen) == decomp.n_tiles
        assert all(count == 1 for count in seen.values())

    @given(rows=grid_sides, cols=grid_sides, tile=tiles)
    @settings(max_examples=80, deadline=None)
    def test_waves_are_tile_diagonals_in_order(self, rows, cols, tile):
        decomp = TileDecomposition(rows, cols, tile)
        for index, wave in enumerate(decomp.schedule()):
            # All tiles of one wave are mutually independent: they share one
            # tile-diagonal, and the wave index is that diagonal.
            assert {t.tile_row + t.tile_col for t in wave} == {index}
