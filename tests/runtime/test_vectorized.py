"""Tests for the vectorized wavefront engine, its executor and the registry."""

import numpy as np
import pytest

from repro.apps.registry import available_applications, get_application
from repro.core.exceptions import KernelError, UnknownExecutorError
from repro.core.params import TunableParams
from repro.core.pattern import FunctionKernel, WavefrontProblem
from repro.facade.policy import ExecutionPolicy
from repro.runtime import (
    ENGINE_SPECS,
    EngineSpec,
    HybridExecutor,
    SerialExecutor,
    TileSweeper,
    VectorizedSerialExecutor,
    available_executors,
    available_serial_engines,
    get_executor,
    register_executor,
)


class TestEquivalenceWithSerial:
    """The acceptance property: identical grids to serial.py on every app."""

    @pytest.mark.parametrize("app_name", available_applications())
    @pytest.mark.parametrize("dim", [2, 3, 5, 17, 32])
    def test_vectorized_matches_serial_cell_for_cell(self, app_name, dim, i7_2600k):
        app = get_application(app_name, dim=dim)
        problem = app.problem(dim)
        serial = SerialExecutor(i7_2600k).execute(problem)
        vectorized = VectorizedSerialExecutor(i7_2600k).execute(problem)
        assert np.array_equal(serial.grid.values, vectorized.grid.values)

    @pytest.mark.parametrize("app_name", available_applications())
    def test_fused_evaluator_active_where_expected(self, app_name, i7_2600k):
        app = get_application(app_name, dim=24)
        problem = app.problem(24)
        result = VectorizedSerialExecutor(i7_2600k).execute(problem)
        # Every registered application ships a fused evaluator at its
        # natural problem size.
        assert result.stats["fused_kernel"] is True

    def test_generic_fallback_without_evaluator(self, i7_2600k):
        kernel = FunctionKernel(
            lambda i, j, w, n, nw: np.maximum(w, n) + 1.0, tsize=1.0, name="counting"
        )
        problem = WavefrontProblem(dim=12, kernel=kernel)
        result = VectorizedSerialExecutor(i7_2600k).execute(problem)
        assert result.stats["fused_kernel"] is False
        i, j = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
        assert np.array_equal(result.grid.values, i + j + 1.0)

    def test_matrix_chain_off_size_falls_back(self, i7_2600k):
        # A problem dim different from the chain length has modular
        # wrap-around semantics with no slice equivalent.
        app = get_application("matrix-chain", dim=32)
        problem = app.problem(20)
        serial = SerialExecutor(i7_2600k).execute(problem)
        vectorized = VectorizedSerialExecutor(i7_2600k).execute(problem)
        assert vectorized.stats["fused_kernel"] is False
        assert np.array_equal(serial.grid.values, vectorized.grid.values)


#: The walk each registered application's whole-grid sweep takes at its
#: default parameters: rows where the kernel offers a row evaluator.
WALKS = {
    "edit-distance": "rows",
    "knapsack": "rows",
    "knapsack-ev": "rows",
    "lcs": "rows",
    "sequence-comparison": "rows",
    "viterbi": "rows",
    "matrix-chain": "diagonals",
    "nash-equilibrium": "diagonals",
    "stochastic-path": "diagonals",
    "synthetic": "diagonals",
}


@pytest.fixture(scope="module")
def walk_session():
    from repro.session import Session

    with Session() as session:
        yield session


class TestEachAppsWalk:
    """Generated from the registry: a fused form per app, and the walk it takes."""

    def test_every_registered_app_has_a_pinned_walk(self):
        assert sorted(WALKS) == sorted(available_applications())

    @pytest.mark.parametrize("app_name", available_applications())
    def test_fused_walk_at_default_parameters(self, app_name, walk_session):
        result = walk_session.solve(app_name, 37, policy=ExecutionPolicy(backend="vectorized"))
        assert result.stats["fused_kernel"] is True
        assert result.stats["traversal"] == WALKS[app_name]


class TestWholeGridSweep:
    def test_whole_grid_sweep_returns_cell_count(self, small_synthetic):
        grid = small_synthetic.make_grid()
        sweeper = TileSweeper(small_synthetic)
        cells = sweeper.sweep_tile(grid.values.reshape(-1), sweeper.whole_grid)
        assert cells == small_synthetic.dim**2

    def test_non_finite_kernel_output_raises(self, i7_2600k):
        kernel = FunctionKernel(
            lambda i, j, w, n, nw: np.full(i.shape, np.inf), tsize=1.0, name="bad"
        )
        problem = WavefrontProblem(dim=8, kernel=kernel)
        with pytest.raises(KernelError):
            VectorizedSerialExecutor(i7_2600k).execute(problem)

    def test_wrong_kernel_shape_raises(self, i7_2600k):
        kernel = FunctionKernel(
            lambda i, j, w, n, nw: np.zeros(i.size + 1), tsize=1.0, name="misshapen"
        )
        problem = WavefrontProblem(dim=8, kernel=kernel)
        with pytest.raises(KernelError):
            VectorizedSerialExecutor(i7_2600k).execute(problem)


@pytest.fixture()
def built_sweepers(monkeypatch):
    """Weak references to every ``TileSweeper`` constructed in the test."""
    import weakref

    import repro.runtime.vectorized as vec

    refs = []
    original = vec.TileSweeper.__init__

    def recording_init(self, problem):
        refs.append(weakref.ref(self))
        original(self, problem)

    monkeypatch.setattr(vec.TileSweeper, "__init__", recording_init)
    return refs


class TestNothingRetained:
    """Evaluator tables live for one run, never for the life of a problem."""

    @pytest.mark.parametrize("app_name", ["stochastic-path", "edit-distance"])
    def test_session_solve_drops_the_run_sweeper(
        self, app_name, built_sweepers, quick_tuner_i3, i3
    ):
        import gc

        from repro.session import Session

        with Session(system=i3, tuner=quick_tuner_i3) as session:
            plan = session.plan(app_name, 48)
            assert plan.engine == "vectorized"
            session.solve(app_name, 48)
            gc.collect()
            assert len(built_sweepers) == 1
            assert built_sweepers[0]() is None  # dead while the problem is cached
            assert not [name for name in vars(plan.problem) if "sweeper" in name]

    def test_hybrid_builds_one_sweeper_per_run(
        self, small_synthetic, built_sweepers, i7_2600k
    ):
        import gc

        tunables = TunableParams.from_encoding(cpu_tile=4, band=6, halo=2, gpu_tile=4)
        executor = HybridExecutor(i7_2600k, engine="vectorized")
        for run in (1, 2):
            result = executor.execute(small_synthetic, tunables)
            assert result.stats["phase1_cells"] > 0
            assert result.stats["phase3_cells"] > 0
            assert len(built_sweepers) == run  # shared by all three phases
        gc.collect()
        assert all(ref() is None for ref in built_sweepers)  # nothing pinned

    def test_single_core_pool_builds_one_sweeper_per_run(
        self, small_synthetic, built_sweepers
    ):
        import gc

        from repro.runtime import MPWavefrontPool

        with MPWavefrontPool(small_synthetic, tile=4, workers=1) as pool:
            for run in (1, 2):
                pool.run(small_synthetic.make_grid())
                assert len(built_sweepers) == run
        gc.collect()
        assert all(ref() is None for ref in built_sweepers)

    def test_problem_stays_picklable_after_a_vectorized_run(
        self, small_synthetic, i7_2600k
    ):
        # The multicore backend ships problems to pool workers (pickled under
        # spawn start methods); fused evaluators are closures, so a run must
        # leave none of them on the problem.
        import pickle

        VectorizedSerialExecutor(i7_2600k).execute(small_synthetic)
        clone = pickle.loads(pickle.dumps(small_synthetic))
        assert clone.dim == small_synthetic.dim
        assert vars(clone).keys() == vars(small_synthetic).keys()

    def test_a_run_does_not_keep_problems_alive(self, i7_2600k):
        import gc
        import weakref

        from repro.apps.synthetic import SyntheticApp

        problem = SyntheticApp(dim=16).problem()
        result = VectorizedSerialExecutor(i7_2600k).execute(problem)
        ref = weakref.ref(problem)
        del problem, result
        gc.collect()
        assert ref() is None


class TestVectorizedExecutor:
    def test_tunables_normalised_to_serial_configuration(self, small_synthetic, i7_2600k):
        result = VectorizedSerialExecutor(i7_2600k).execute(
            small_synthetic, TunableParams.from_encoding(cpu_tile=8, band=4, halo=-1)
        )
        assert result.tunables == TunableParams(cpu_tile=1)

    def test_simulated_rtime_beats_serial(self, i7_2600k):
        problem = get_application("synthetic", dim=512).problem(512)
        serial = SerialExecutor(i7_2600k).execute(problem, mode="simulate")
        vectorized = VectorizedSerialExecutor(i7_2600k).execute(problem, mode="simulate")
        assert vectorized.rtime < serial.rtime

    def test_hybrid_engine_produces_identical_grid(self, small_synthetic, i7_2600k):
        tunables = TunableParams.from_encoding(cpu_tile=4, band=6, halo=2, gpu_tile=4)
        scalar = HybridExecutor(i7_2600k, engine="serial").execute(small_synthetic, tunables)
        batched = HybridExecutor(i7_2600k).execute(small_synthetic, tunables)
        assert (scalar.stats["engine"], batched.stats["engine"]) == ("serial", "vectorized")
        assert np.array_equal(scalar.grid.values, batched.grid.values)


class TestRegistry:
    def test_get_executor_constructs_by_name(self, i7_2600k):
        executor = get_executor("vectorized", i7_2600k)
        assert isinstance(executor, VectorizedSerialExecutor)

    def test_unknown_executor_rejected(self, i7_2600k):
        with pytest.raises(UnknownExecutorError):
            get_executor("quantum", i7_2600k)

    def test_preferred_serial_engine_is_vectorized(self):
        assert available_serial_engines()[0] == "vectorized"

    def test_registered_spec_constructs_by_name(self, i7_2600k):
        class ProbeExecutor(SerialExecutor):
            strategy = "probe-executor"

        register_executor(EngineSpec(name="probe-executor", factory=ProbeExecutor))
        try:
            assert isinstance(get_executor("probe-executor", i7_2600k), ProbeExecutor)
            assert "probe-executor" in available_executors()
        finally:
            del ENGINE_SPECS["probe-executor"]


@pytest.fixture(
    scope="module",
    params=[
        (system, tuner)
        for system in ("local", "i3-540")
        for tuner in ("learned", "exhaustive")
    ],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def decision_session(request, tiny_space):
    """One planning session per (system, tuner) pair on the tiny space."""
    from repro.session import Session

    system, tuner = request.param
    with Session(system=system, tuner=tuner, space=tiny_space) as session:
        yield session


class TestEngineDimension:
    def test_search_space_exposes_engines(self, tiny_space, i7_2600k):
        from repro.autotuner.search_space import SearchSpace

        space = SearchSpace(tiny_space, i7_2600k)
        assert "vectorized" in space.engines
        assert "serial" in space.engines
        assert "engines" in space.describe()

    @pytest.mark.parametrize("dim", [12, 96, 512])
    @pytest.mark.parametrize("app_name", available_applications())
    def test_default_plan_sweeps_on_the_preferred_engine(
        self, app_name, dim, decision_session
    ):
        plan = decision_session.plan(app_name, dim)
        assert plan.engine == available_serial_engines()[0] == "vectorized"

    @pytest.mark.parametrize("tuner", ["learned", "exhaustive"])
    def test_unregistered_preferred_engine_falls_back_to_serial(
        self, tuner, tiny_space, i3, monkeypatch
    ):
        from repro.runtime import registry
        from repro.session import Session

        # A copy without the preferred engine: undoing a delitem would
        # re-append it last and reorder the preferences for later tests.
        unregistered = {name: spec for name, spec in ENGINE_SPECS.items() if name != "vectorized"}
        monkeypatch.setattr(registry, "ENGINE_SPECS", unregistered)
        assert available_serial_engines() == ["serial"]
        with Session(system=i3, tuner=tuner, space=tiny_space) as session:
            plan = session.plan("lcs", 24)
            assert plan.engine == "serial"
            result = session.run(plan)
        reference = SerialExecutor(i3).execute(get_application("lcs", dim=24).problem(24))
        assert result.matches(reference)

    def test_tuner_resolves_tunables_and_engine(self, trained_tuner_i7):
        from repro.core.params import InputParams

        params = InputParams(dim=128, tsize=500, dsize=1)
        decision = trained_tuner_i7.resolve("synthetic", params)
        assert decision.engine == "vectorized"
        assert isinstance(decision.tunables, TunableParams)
