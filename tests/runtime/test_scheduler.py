"""Tests for the barriered tile schedule (the pipelined one: test_pipelined.py)."""

from repro.core.tiling import TileDecomposition
from repro.runtime.scheduler import run_schedule


class TestRunSchedule:
    def test_every_tile_scheduled_once(self):
        decomp = TileDecomposition(12, 12, 4)
        seen = []
        executed = run_schedule(decomp.schedule(), lambda tile: (tile.tile_row, tile.tile_col), collect=seen.append)
        assert executed == len(seen) == len(set(seen)) == decomp.n_tiles

    def test_run_schedule_visits_every_tile_and_collects_results(self):
        decomp = TileDecomposition(10, 10, 5)
        collected = []
        executed = run_schedule(decomp.schedule(), lambda tile: tile.n_cells, collect=collected.append)
        assert executed == decomp.n_tiles == len(collected)
        assert sum(collected) == 100
