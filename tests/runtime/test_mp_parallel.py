"""Tests for the shared-memory multicore backend (`mp-parallel`).

The acceptance property is cell-for-cell equality with the serial reference
for every registered application at several worker counts — including real
worker-process pools, which are exercised here even on single-core hosts by
forcing an explicit ``workers`` count.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.apps.registry import available_applications, get_application
from repro.core.exceptions import InvalidParameterError, KernelError, UnknownExecutorError
from repro.core.params import InputParams, TunableParams
from repro.core.pattern import FunctionKernel, WavefrontKernel, WavefrontProblem
from repro.facade.policy import ExecutionPolicy
from repro.core.tiling import TileDecomposition
from repro.runtime import (
    HybridExecutor,
    MPParallelExecutor,
    MPWavefrontPool,
    SerialExecutor,
    SharedGridBuffer,
    TileSweeper,
    available_executors,
    get_executor,
    resolve_worker_count,
)
from repro.runtime.compute import reference_grid
from repro.session import Session

HAS_FORK = "fork" in mp.get_all_start_methods()

#: Worker counts exercised against the serial reference.  Counts >= 2 run a
#: real process pool regardless of the host's core count.
WORKER_COUNTS = (1, 2, 3)


class TestEquivalenceWithSerial:
    """The acceptance property: identical grids to serial.py on every app."""

    @pytest.mark.parametrize("app_name", available_applications())
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_matches_serial_cell_for_cell(self, app_name, workers, i7_2600k):
        dim = 21
        problem = get_application(app_name, dim=dim).problem(dim)
        serial = SerialExecutor(i7_2600k).execute(problem)
        result = MPParallelExecutor(i7_2600k, workers=workers).execute(
            problem, TunableParams(cpu_tile=6)
        )
        assert np.array_equal(serial.grid.values, result.grid.values)
        assert result.stats["cells_computed"] == dim * dim
        assert result.stats["mode"] == ("process-pool" if workers >= 2 else "in-process")

    @pytest.mark.parametrize("tile", [1, 3, 7, 64])
    def test_tile_size_does_not_change_the_grid(self, tile, small_synthetic, i7_2600k):
        serial = SerialExecutor(i7_2600k).execute(small_synthetic)
        result = MPParallelExecutor(i7_2600k, workers=2).execute(
            small_synthetic, TunableParams(cpu_tile=tile)
        )
        assert np.array_equal(serial.grid.values, result.grid.values)

    def test_generic_kernel_without_fused_evaluator(self, i7_2600k):
        # matrix-chain at an off-natural size has no fused evaluator, so the
        # workers exercise the generic kernel.diagonal() tile path.
        app = get_application("matrix-chain", dim=32)
        problem = app.problem(20)
        serial = SerialExecutor(i7_2600k).execute(problem)
        result = MPParallelExecutor(i7_2600k, workers=2).execute(
            problem, TunableParams(cpu_tile=6)
        )
        assert np.array_equal(serial.grid.values, result.grid.values)


class TestWorkerResolution:
    def test_explicit_workers_honoured(self, i7_2600k):
        assert resolve_worker_count(3, i7_2600k) == 3
        assert resolve_worker_count(0, i7_2600k) == 1

    def test_auto_falls_back_on_single_core_hosts(self, i7_2600k, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert resolve_worker_count(None, i7_2600k) == 1

    def test_auto_respects_platform_budget(self, i7_2600k, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 128)
        assert resolve_worker_count(None, i7_2600k) == i7_2600k.cpu.workers

    def test_single_core_fallback_runs_in_process(self, small_synthetic, i7_2600k, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        result = MPParallelExecutor(i7_2600k).execute(small_synthetic, TunableParams(cpu_tile=8))
        assert result.stats["mode"] == "in-process"
        assert result.stats["workers"] == 1
        assert np.array_equal(reference_grid(small_synthetic).values, result.grid.values)


class TestMPWavefrontPool:
    def test_run_fills_the_grid_and_counts_its_tiles(self, small_synthetic):
        dim = small_synthetic.dim
        grid = small_synthetic.make_grid()
        with MPWavefrontPool(small_synthetic, tile=5, workers=2) as pool:
            assert pool.is_multiprocess
            tiles, cells = pool.run(grid)
            assert tiles == pool.decomposition.n_tiles
        assert cells == dim * dim
        assert np.array_equal(reference_grid(small_synthetic).values, grid.values)

    def test_grid_stays_in_private_memory_and_the_arena_is_given_back(self, small_synthetic):
        grid = small_synthetic.make_grid()
        original = grid.values
        with MPWavefrontPool(small_synthetic, tile=8, workers=2) as pool:
            pool.run(grid)
            assert grid.values is original
            pool.team.claim(small_synthetic.dim)  # free again after the run
            pool.team.unclaim()
        assert np.array_equal(reference_grid(small_synthetic).values, grid.values)

    @pytest.mark.parametrize("dispatch", ["barrier", "pipelined"])
    def test_a_kernel_error_copies_back_and_gives_the_arena_back(self, dispatch):
        problem = WavefrontProblem(dim=16, kernel=OneBadCellKernel(9, 6))
        grid = problem.make_grid()
        with MPWavefrontPool(problem, tile=4, workers=2) as pool:
            with pytest.raises(KernelError, match=r"diagonal 15 of tile \(2, 1\)"):
                pool.run(grid, dispatch)
            pool.team.claim(problem.dim)  # free again after the failed run
            pool.team.unclaim()
        # What the team computed before the failure came back to private memory.
        assert grid.values[0, 0] == 0.0 and grid.values[3, 3] == 6.0

    def test_a_grid_of_another_dim_is_rejected(self, small_synthetic):
        from repro.core.exceptions import ExecutionError
        from repro.core.grid import WavefrontGrid

        with MPWavefrontPool(small_synthetic, tile=4, workers=1) as pool:
            with pytest.raises(ExecutionError, match="dim"):
                pool.run(WavefrontGrid(small_synthetic.dim + 1))

    @pytest.mark.skipif(not HAS_FORK, reason="lambda kernels need fork inheritance")
    def test_worker_kernel_error_propagates(self, i7_2600k):
        kernel = FunctionKernel(
            lambda i, j, w, n, nw: np.full(i.shape, np.inf), tsize=1.0, name="bad"
        )
        problem = WavefrontProblem(dim=12, kernel=kernel)
        with pytest.raises(KernelError):
            MPParallelExecutor(i7_2600k, workers=2).execute(problem, TunableParams(cpu_tile=4))


class OneBadCellKernel(WavefrontKernel):
    """``i + j`` everywhere, NaN at one cell; no neighbour is read, so the
    NaN stays where it is put.  Module-level: a session's resident team
    receives its problems pickled."""

    name = "one-bad-cell"

    def __init__(self, row, col):
        self.row, self.col = row, col

    def diagonal(self, i, j, west, north, northwest):
        out = (i + j).astype(float)
        out[(i == self.row) & (j == self.col)] = np.nan
        return out


class TestWorkersValidateWhatTheyCompute:
    """Non-finite kernel output raises in the caller, naming tile and diagonal."""

    @pytest.mark.parametrize("backend", ["mp-parallel", "pipelined"])
    def test_nan_in_a_whole_tile_names_its_tile_and_diagonal(self, backend, i7_2600k):
        # Cell (9, 6): tile (2, 1) of a tile-4 decomposition, diagonal 15 —
        # not the first diagonal of the tile (12), so the block check has
        # to locate it.
        problem = WavefrontProblem(dim=16, kernel=OneBadCellKernel(9, 6))
        policy = ExecutionPolicy(
            backend=backend, workers=2, tunables=TunableParams(cpu_tile=4)
        )
        with Session(system=i7_2600k) as session:
            with pytest.raises(
                KernelError,
                match=r"'one-bad-cell' produced non-finite values on diagonal 15 "
                r"of tile \(2, 1\)",
            ):
                session.solve(problem, policy=policy)
            # The failure cost one request: the same team serves the next.
            good = WavefrontProblem(dim=16, kernel=OneBadCellKernel(-1, -1))
            result = session.solve(good, policy=policy)
            assert result.grid.values[9, 6] == 15.0
            assert session.cache_info()["builds"]["teams_built"] == 1


class TestWorkerTeam:
    def test_more_problems_than_sweeper_slots_stay_correct(self, i7_2600k):
        """Cycling past the per-worker LRU re-ships evicted problems: the
        parent's mirror and the workers' LRUs must agree on who holds what."""
        from repro.runtime.lifecycle import EngineHost
        from repro.runtime.mp_parallel import SWEEPER_SLOTS

        problems = [
            get_application(app, dim=dim).problem(dim)
            for app in ("lcs", "synthetic", "viterbi")
            for dim in (12, 17)
        ]
        assert len(problems) > SWEEPER_SLOTS
        references = [reference_grid(p).values for p in problems]
        with EngineHost(i7_2600k) as host:
            for _ in range(3):
                for problem, reference in zip(problems, references):
                    grid = problem.make_grid()
                    with host.pool_for(problem, tile=5, workers=2) as pool:
                        pool.run(grid, "pipelined")
                    assert np.array_equal(grid.values, reference)
            assert host.cache_info()["builds"]["teams_built"] == 1

    @pytest.mark.skipif(not HAS_FORK, reason="the private-team half needs fork inheritance")
    def test_a_problem_that_does_not_pickle_is_a_typed_error_on_a_resident_team(
        self, small_synthetic, i7_2600k
    ):
        from repro.core.exceptions import ExecutionError

        kernel = FunctionKernel(lambda i, j, w, n, nw: (i + j).astype(float), name="local")
        problem = WavefrontProblem(dim=12, kernel=kernel)
        policy = ExecutionPolicy(
            backend="mp-parallel", workers=2, tunables=TunableParams(cpu_tile=4)
        )
        with Session(system=i7_2600k) as session:
            with pytest.raises(ExecutionError, match="cannot be sent to a resident"):
                session.solve(problem, policy=policy)
            # Nothing was left half-shipped: the team serves the next request.
            result = session.solve(small_synthetic, policy=policy)
            assert np.array_equal(
                result.grid.values, reference_grid(small_synthetic).values
            )
            assert session.cache_info()["builds"]["teams_built"] == 1
        # A private team inherits the problem through the fork instead.
        result = MPParallelExecutor(i7_2600k, workers=2).execute(
            problem, TunableParams(cpu_tile=4)
        )
        assert result.grid.values[5, 6] == 11.0

    def test_the_arena_holds_one_grid_at_a_time(self, small_synthetic, i7_2600k):
        from repro.core.exceptions import ExecutionError
        from repro.runtime.lifecycle import EngineHost

        with EngineHost(i7_2600k) as host:
            pool = host.pool_for(small_synthetic, tile=8, workers=2)
            pool.team.claim(small_synthetic.dim)  # a run still in progress
            with pytest.raises(ExecutionError, match="already holds a grid"):
                pool.run(small_synthetic.make_grid())
            pool.team.unclaim()
            grid = small_synthetic.make_grid()
            pool.run(grid)
            assert np.array_equal(reference_grid(small_synthetic).values, grid.values)


class TestTileSweeper:
    def test_whole_grid_single_tile_matches_reference(self, small_synthetic):
        grid = small_synthetic.make_grid()
        decomp = TileDecomposition(small_synthetic.dim, small_synthetic.dim, small_synthetic.dim)
        cells = TileSweeper(small_synthetic).sweep_tile(
            grid.values.reshape(-1), decomp.tile_at(0, 0)
        )
        assert cells == small_synthetic.dim**2
        assert np.array_equal(reference_grid(small_synthetic).values, grid.values)

    def test_fused_evaluator_used_where_available(self, small_synthetic):
        assert TileSweeper(small_synthetic).fused is True


class TestSharedGridBuffer:
    def test_create_attach_roundtrip(self):
        with SharedGridBuffer.create(8) as owner:
            owner.values[3, 4] = 42.0
            attached = SharedGridBuffer.attach(owner.name, 8)
            assert attached.values[3, 4] == 42.0
            attached.values[0, 0] = -1.0
            assert owner.values[0, 0] == -1.0  # same memory
            attached.close()

    def test_only_owner_may_unlink(self):
        owner = SharedGridBuffer.create(4)
        attached = SharedGridBuffer.attach(owner.name, 4)
        with pytest.raises(InvalidParameterError):
            attached.unlink()
        attached.close()
        owner.close()
        owner.unlink()

    def test_closed_buffer_rejects_access(self):
        buffer = SharedGridBuffer.create(4)
        buffer.close()
        buffer.unlink()
        with pytest.raises(InvalidParameterError):
            _ = buffer.values


class TestHybridMPEngine:
    def test_hybrid_mp_engine_produces_identical_grid(self, small_synthetic, i7_2600k):
        tunables = TunableParams.from_encoding(cpu_tile=4, band=6, halo=2, gpu_tile=4)
        scalar = HybridExecutor(i7_2600k, engine="serial").execute(small_synthetic, tunables)
        pooled = HybridExecutor(i7_2600k, engine="mp-parallel", workers=2).execute(
            small_synthetic, tunables
        )
        assert np.array_equal(scalar.grid.values, pooled.grid.values)
        # The fill engine's own statistics ride along with the band's.
        assert pooled.stats["workers"] == 2
        assert pooled.stats["tiles_executed"] == (small_synthetic.dim // 4) ** 2
        assert pooled.stats["band_cells"] > 0

    @pytest.mark.parametrize("engine", ["fpga", "mp", "compiled", "hybrid"])
    def test_hybrid_rejects_unregistered_engines_and_itself(self, i7_2600k, engine):
        with pytest.raises(UnknownExecutorError, match="mp-parallel"):
            HybridExecutor(i7_2600k, engine=engine)


class TestRegistryAndCostModel:
    def test_mp_parallel_registered(self, i7_2600k):
        assert "mp-parallel" in available_executors()
        executor = get_executor("mp-parallel", i7_2600k, workers=2)
        assert isinstance(executor, MPParallelExecutor)
        assert executor.workers == 2

    def test_simulated_rtime_improves_with_workers(self, i7_2600k):
        model = MPParallelExecutor(i7_2600k).cost_model
        params = InputParams(dim=1900, tsize=750, dsize=1)
        t2 = model.mp_parallel_time(params, 64, 2)
        t8 = model.mp_parallel_time(params, 64, 8)
        assert t8 < t2

    def test_single_worker_prediction_is_the_vectorized_engine(self, i7_2600k):
        model = MPParallelExecutor(i7_2600k).cost_model
        params = InputParams(dim=512, tsize=100, dsize=1)
        assert model.mp_parallel_time(params, 8, 1) == model.vectorized_time(params)
