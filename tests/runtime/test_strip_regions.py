"""The strip regions the tiled engines run, checked region by region.

No worker process and no clock: every region ``R`` of a
:class:`~repro.core.tiling.StripDecomposition` is swept once, in-process,
on a grid where ``R``'s transitive predecessors hold the serial values and
every other cell is NaN.  The predecessors are whatever
:class:`~repro.runtime.scheduler.DependencyGraph` makes ``R`` wait for,
found through its own ``acquire`` / ``retire`` protocol.  ``R`` must
reproduce the serial values, and no cell outside it may change.  A region
that reads only what its predecessors wrote computes the same values in
every order the graph admits, so one check per region stands for every
admissible schedule.

Both walks run over both strip geometries: a row-walk sweeper over
diagonal regions is the general case of the one region type.
"""

import numpy as np
import pytest

from repro.apps.registry import get_application
from repro.core.tiling import StripDecomposition
from repro.runtime import DependencyGraph, TileSweeper
from repro.runtime.compute import reference_grid

#: One app per walk: lcs has a row form, synthetic walks diagonals.
APPS = {"rows": "lcs", "diagonals": "synthetic"}

#: (dim, workers, tile): every tile of dims 2-12 at 2-4 workers, plus a few
#: larger grids with ragged strips and tiles.
SMALL = [(dim, w, t) for dim in range(2, 13) for w in (2, 3, 4) for t in range(1, dim + 1)]
LARGE = [(33, 2, 7), (33, 3, 1), (40, 4, 16), (64, 3, 64), (64, 2, 9), (50, 4, 50)]


def key(region):
    return region.tile_row, region.tile_col


def descendants(decomposition):
    """Region key -> the keys that cannot start until it retires.

    For each region: drain a fresh graph retiring everything but that
    region; what never became ready waits for it.
    """
    keys = {key(r) for r in decomposition.all_tiles()}
    waiting = {}
    for held in keys:
        graph = DependencyGraph(decomposition)
        started, running = set(), []
        while True:
            region = graph.acquire()
            if region is None:
                if not running:
                    break
                graph.retire(running.pop())
                continue
            started.add(key(region))
            if key(region) != held:
                running.append(region)
        waiting[held] = keys - started
    return waiting


def cells_of(region, dim):
    """Boolean mask of the region's cells, from its fields alone."""
    i, j = np.indices((dim, dim))
    mask = (
        (region.row_start <= i) & (i < region.row_stop)
        & (region.col_start <= j) & (j < region.col_stop)
    )
    if region.diag_start is not None:
        mask &= (region.diag_start <= i + j) & (i + j < region.diag_stop)
    return mask


@pytest.fixture(scope="module", params=sorted(APPS))
def walk_case(request):
    """(walk, problem of that walk, serial reference) for dims 2-64."""
    app = get_application(APPS[request.param], dim=64)
    problems = {dim: app.problem(dim) for dim in {c[0] for c in SMALL + LARGE}}
    references = {dim: reference_grid(p).values for dim, p in problems.items()}
    return request.param, problems, references


@pytest.mark.parametrize("geometry", ["rows", "diagonals"])
@pytest.mark.parametrize("dim, workers, tile", SMALL + LARGE)
def test_every_region_reads_only_its_predecessors(walk_case, geometry, dim, workers, tile):
    walk, problems, references = walk_case
    problem, reference = problems[dim], references[dim]
    decomposition = StripDecomposition(dim, tile, workers, geometry)
    regions = decomposition.all_tiles()
    masks = {key(r): cells_of(r, dim) for r in regions}

    # Partition: every cell in exactly one region, and no region empty.
    assert np.array_equal(sum(m.astype(int) for m in masks.values()), np.ones((dim, dim), int))
    assert all(m.any() for m in masks.values())
    assert decomposition.strips == min(workers, dim)

    # Poison: each region from its transitive predecessors alone.
    waiting = descendants(decomposition)
    sweeper = TileSweeper(problem)
    assert sweeper.traversal == walk
    for region in regions:
        ancestors = [k for k, after in waiting.items() if key(region) in after]
        known = np.zeros((dim, dim), bool)
        for k in ancestors:
            known |= masks[k]
        grid = np.where(known, reference, np.nan)
        expected = np.where(known | masks[key(region)], reference, np.nan)
        sweeper._rows[:] = np.nan  # nothing may survive from the last region
        cells = sweeper.sweep_tile(grid.reshape(-1), region)
        assert cells == masks[key(region)].sum()
        assert np.array_equal(grid, expected, equal_nan=True), (key(region), ancestors)


@pytest.mark.parametrize("dim, workers, tile, expected", [
    # (dim, workers, tile): regions and steps per worker (rows walk, diagonal walk).
    (1536, 2, 256, ((12, 1536), (18, 2303))),
    (1536, 2, 512, ((6, 1536), (10, 2303))),
    (10, 4, 3, ((16, 10), (19, 12))),
])
def test_a_worker_sweeps_one_strip_whatever_the_tile(dim, workers, tile, expected):
    """Regions and the busiest strip's row or diagonal steps, host-independent."""
    for walk, (n_regions, steps) in zip(("rows", "diagonals"), expected):
        decomposition = StripDecomposition(dim, tile, workers, walk)
        regions = decomposition.all_tiles()
        assert len(regions) == n_regions
        strip = (lambda r: r.tile_col) if walk == "rows" else (lambda r: r.tile_row)
        per_strip = {}
        for r in regions:
            span = r.row_stop - r.row_start if walk == "rows" else r.diag_stop - r.diag_start
            per_strip[strip(r)] = per_strip.get(strip(r), 0) + span
        assert max(per_strip.values()) == steps


def test_waves_group_regions_by_key_sum():
    decomposition = StripDecomposition(17, 4, 3, "diagonals")
    waves = decomposition.schedule()
    assert len(waves) == decomposition.n_tile_diagonals
    assert [r for wave in waves for r in wave] == sorted(
        decomposition.all_tiles(), key=lambda r: (r.tile_row + r.tile_col, r.tile_row)
    )
    assert all(len({r.tile_row + r.tile_col for r in wave}) == 1 for wave in waves)


@pytest.mark.parametrize("args", [(0, 1, 1, "rows"), (4, 0, 1, "rows"), (4, 1, 0, "rows"), (4, 1, 1, "spiral")])
def test_bad_geometry_is_rejected(args):
    from repro.core.exceptions import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        StripDecomposition(*args)
