"""Tests of the dependency-driven (barrier-free) tile dispatch.

Two layers are covered:

* :class:`~repro.runtime.scheduler.DependencyGraph` /
  :func:`~repro.runtime.scheduler.run_pipelined` — the readiness protocol
  itself: every tile retired exactly once, no successor released before its
  last predecessor retires, strict errors on protocol misuse, and no
  starvation on any decomposition;
* the executor surface — ``dispatch="pipelined"`` on the worker pool and
  :class:`~repro.runtime.mp_parallel.PipelinedMPExecutor` — whose acceptance
  property is **bit-identical grids and witnesses** to the barriered
  reference for every registered application, worker count and band shape.
"""

from collections import Counter

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import available_applications, get_application
from repro.core.exceptions import ExecutionError, InvalidParameterError
from repro.core.params import TunableParams
from repro.core.tiling import TileDecomposition
from repro.runtime import (
    DependencyGraph,
    MPParallelExecutor,
    MPWavefrontPool,
    PipelinedMPExecutor,
    SerialExecutor,
    run_pipelined,
)
from repro.runtime.compute import reference_grid
from repro.facade.policy import ExecutionPolicy
from repro.session import Session

HAS_FORK = "fork" in mp.get_all_start_methods()

grid_sides = st.integers(min_value=1, max_value=40)
tiles = st.integers(min_value=1, max_value=12)


def _key(tile):
    return (tile.tile_row, tile.tile_col)


def _witness_equal(a, b):
    """Bit-exact witness comparison (witnesses are arrays or None)."""
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


def _drain(graph):
    """Sequential drain; returns the keys in retirement order."""
    order = []
    while not graph.done:
        tile = graph.acquire()
        assert tile is not None, "graph starved with tiles outstanding"
        graph.retire(tile)
        order.append(_key(tile))
    return order


class TestDependencyGraph:
    """The readiness protocol on the tile decomposition."""

    @given(rows=grid_sides, cols=grid_sides, tile=tiles)
    @settings(max_examples=80, deadline=None)
    def test_every_tile_retired_exactly_once(self, rows, cols, tile):
        decomp = TileDecomposition(rows, cols, tile)
        graph = DependencyGraph(decomp)
        seen = Counter(_drain(graph))
        assert len(seen) == decomp.n_tiles == graph.n_tiles
        assert all(count == 1 for count in seen.values())

    @given(rows=grid_sides, cols=grid_sides, tile=tiles)
    @settings(max_examples=80, deadline=None)
    def test_no_successor_released_before_its_predecessors(self, rows, cols, tile):
        decomp = TileDecomposition(rows, cols, tile)
        graph = DependencyGraph(decomp)
        retired = set()
        while not graph.done:
            t = graph.acquire()
            assert t is not None
            key = _key(t)
            for pred in ((key[0] - 1, key[1]), (key[0], key[1] - 1),
                         (key[0] - 1, key[1] - 1)):
                if pred[0] >= 0 and pred[1] >= 0:
                    assert pred in retired, (
                        f"tile {key} acquired before predecessor {pred} retired"
                    )
            graph.retire(t)
            retired.add(key)

    def test_sequential_drain_matches_wave_order(self):
        decomp = TileDecomposition(20, 20, 5)
        order = _drain(DependencyGraph(decomp))
        waves = [k[0] + k[1] for k in order]
        assert waves == sorted(waves)

    def test_retire_without_acquire_raises(self):
        decomp = TileDecomposition(10, 10, 5)
        graph = DependencyGraph(decomp)
        tile = next(iter(decomp.all_tiles()))
        with pytest.raises(ExecutionError, match="without being acquired"):
            graph.retire(tile)

    def test_double_retire_raises(self):
        graph = DependencyGraph(TileDecomposition(10, 10, 5))
        tile = graph.acquire()
        graph.retire(tile)
        with pytest.raises(ExecutionError, match="retired twice"):
            graph.retire(tile)

    def test_release_happens_only_at_last_predecessor(self):
        # 2x2 tile grid: the corner (1,1) must be released exactly when the
        # second of its two wave-1 predecessors retires, not at the first.
        graph = DependencyGraph(TileDecomposition(10, 10, 5))
        origin = graph.acquire()
        assert _key(origin) == (0, 0)
        released = {_key(t) for t in graph.retire(origin)}
        assert released == {(0, 1), (1, 0)}
        first = graph.acquire()
        assert graph.retire(first) == []  # (1,1) still waits on the other
        second = graph.acquire()
        assert {_key(t) for t in graph.retire(second)} == {(1, 1)}


class TestRunPipelined:
    """The drain driver, sequential and pooled."""

    def test_sequential_drain_executes_every_tile(self):
        decomp = TileDecomposition(24, 24, 6)
        graph = DependencyGraph(decomp)
        seen = []
        count = run_pipelined(graph, lambda t: seen.append(_key(t)))
        assert count == decomp.n_tiles
        assert len(seen) == decomp.n_tiles
        assert graph.done

    def test_collect_receives_one_result_per_tile(self):
        decomp = TileDecomposition(15, 15, 4)
        results = []
        run_pipelined(
            DependencyGraph(decomp), lambda t: _key(t), collect=results.append
        )
        assert sorted(results) == sorted(_key(t) for t in decomp.all_tiles())


class TestPoolDispatch:
    """``dispatch="pipelined"`` on the worker pool is bit-identical."""

    def test_unknown_dispatch_rejected(self, small_synthetic):
        with MPWavefrontPool(small_synthetic, tile=4, workers=1) as pool:
            with pytest.raises(InvalidParameterError, match="dispatch"):
                pool.run(small_synthetic.make_grid(), dispatch="bogus")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pipelined_full_sweep_matches_reference(self, small_synthetic, workers):
        reference = reference_grid(small_synthetic)
        grid = small_synthetic.make_grid()
        dim = small_synthetic.dim
        with MPWavefrontPool(small_synthetic, tile=5, workers=workers) as pool:
            tiles, cells = pool.run(grid, dispatch="pipelined")
            # The in-process fallback sweeps the whole grid (0 tiles).
            expected_tiles = len(pool.decomposition.all_tiles()) if pool.is_multiprocess else 0
        assert cells == dim * dim
        assert tiles == expected_tiles
        assert np.array_equal(reference.values, grid.values)


class TestPipelinedExecutor:
    """The acceptance property: grids AND witnesses identical to serial."""

    @pytest.mark.parametrize("app_name", available_applications())
    @pytest.mark.parametrize("workers", (1, 2))
    def test_matches_serial_cell_for_cell(self, app_name, workers, i7_2600k):
        dim = 21
        problem = get_application(app_name, dim=dim).problem(dim)
        serial = SerialExecutor(i7_2600k).execute(problem)
        result = PipelinedMPExecutor(i7_2600k, workers=workers).execute(
            problem, TunableParams(cpu_tile=6)
        )
        assert np.array_equal(serial.grid.values, result.grid.values)
        assert _witness_equal(serial.witness, result.witness)
        assert result.stats["cells_computed"] == dim * dim
        assert result.stats["dispatch"] == "pipelined"

    @pytest.mark.parametrize("tile", [1, 3, 7, 64])
    def test_tile_size_does_not_change_the_grid(self, tile, small_synthetic, i7_2600k):
        serial = SerialExecutor(i7_2600k).execute(small_synthetic)
        result = PipelinedMPExecutor(i7_2600k, workers=2).execute(
            small_synthetic, TunableParams(cpu_tile=tile)
        )
        assert np.array_equal(serial.grid.values, result.grid.values)

    def test_matches_barriered_executor_exactly(self, small_synthetic, i7_2600k):
        barrier = MPParallelExecutor(i7_2600k, workers=2).execute(
            small_synthetic, TunableParams(cpu_tile=4)
        )
        pipelined = PipelinedMPExecutor(i7_2600k, workers=2).execute(
            small_synthetic, TunableParams(cpu_tile=4)
        )
        assert np.array_equal(barrier.grid.values, pipelined.grid.values)
        assert _witness_equal(barrier.witness, pipelined.witness)

    def test_expected_time_never_exceeds_barriered(self, i7_2600k):
        # The cost model's pipelined term drops the per-wave straggler wait,
        # so its estimate can only improve on the barriered one.
        rtime = {}
        with Session(system=i7_2600k) as session:
            for backend in ("mp-parallel", "pipelined"):
                policy = ExecutionPolicy(
                    backend=backend, tunables=TunableParams(cpu_tile=4), workers=4
                )
                plan = session.plan("synthetic", 32, policy=policy, tsize=100, dsize=1)
                rtime[backend] = session.run(plan, mode="simulate").rtime
        assert rtime["pipelined"] <= rtime["mp-parallel"] + 1e-12


@pytest.mark.parametrize("app_name", ("lcs", "viterbi", "edit-distance"))
@given(
    dim=st.integers(min_value=2, max_value=24),
    tile=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=12, deadline=None)
def test_schedule_equivalence_battery(app_name, dim, tile):
    """Hypothesis battery: pipelined ≡ barriered over apps and band shapes."""
    problem = get_application(app_name, dim=dim).problem(dim)
    from repro.hardware import platforms

    system = platforms.I7_2600K
    tunables = TunableParams(cpu_tile=tile)
    barrier = MPParallelExecutor(system, workers=1).execute(problem, tunables)
    pipelined = PipelinedMPExecutor(system, workers=1).execute(problem, tunables)
    assert np.array_equal(barrier.grid.values, pipelined.grid.values)
    assert _witness_equal(barrier.witness, pipelined.witness)
