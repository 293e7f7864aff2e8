"""Tests for the barriered tile scheduler (the pipelined one: test_pipelined.py)."""

import pytest

from repro.core.exceptions import InvalidParameterError
from repro.core.tiling import TileDecomposition
from repro.runtime.scheduler import TileScheduler, run_schedule


class TestTileScheduler:
    def test_every_tile_scheduled_once(self):
        decomp = TileDecomposition(12, 12, 4)
        scheduler = TileScheduler(decomp, workers=3)
        scheduled = [item for wave in scheduler.waves() for item in wave]
        assert len(scheduled) == decomp.n_tiles
        assert len({(s.tile.tile_row, s.tile.tile_col) for s in scheduled}) == decomp.n_tiles

    def test_workers_assigned_round_robin(self):
        decomp = TileDecomposition(16, 16, 4)
        scheduler = TileScheduler(decomp, workers=2)
        loads = scheduler.worker_loads()
        assert sum(loads) == decomp.n_tiles
        assert max(loads) - min(loads) <= decomp.n_tile_diagonals

    def test_run_schedule_visits_every_tile_and_collects_results(self):
        decomp = TileDecomposition(10, 10, 5)
        waves = TileScheduler(decomp, workers=4).waves()
        collected = []
        executed = run_schedule(waves, lambda tile: tile.n_cells, collect=collected.append)
        assert executed == decomp.n_tiles == len(collected)
        assert sum(collected) == 100

    def test_invalid_worker_count(self):
        with pytest.raises(InvalidParameterError):
            TileScheduler(TileDecomposition(4, 4, 2), workers=0)
