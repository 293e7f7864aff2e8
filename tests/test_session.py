"""Tests for the Session facade (plan/execute separation, batched serving).

Covers the acceptance contract of the session API:

* plan/execute round-trips are equivalent to the historical hand-wired
  ``AutoTuner`` + ``HybridExecutor`` path on every registered application;
* ``solve_many`` serves >= 10 repeated requests from one tuned-plan
  resolution and one persistent worker pool, with results identical to
  per-call solving;
* every session cache is LRU-bounded by ``cache_size``;
* plans serialise to JSON and replay in a fresh session;
* failures surface as ``repro.core.exceptions`` subclasses.
"""

import os

import numpy as np
import pytest

from repro import ExecutionPolicy, Session
from repro.apps.lcs import LCSApp
from repro.apps.registry import available_applications
from repro.autotuner.protocol import PlanDecision, Tuner
from repro.autotuner.tuner import AutoTuner
from repro.core.exceptions import (
    ArtifactError,
    InvalidParameterError,
    ReproError,
    UnknownApplicationError,
    UnknownExecutorError,
    UnknownSystemError,
    UsageError,
)
from repro.core.params import InputParams, TunableParams
from repro.facade.plan import ResolvedPlan, load_plan, save_plan
from repro.facade.tuners import make_tuner
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.serial import SerialExecutor

SMALL_DIM = 24


@pytest.fixture(scope="module")
def i3_session(quick_tuner_i3, i3):
    """A session over the shared tiny-space tuner (no retraining per test)."""
    with Session(system=i3, tuner=quick_tuner_i3) as session:
        yield session


class _CountingMPTuner(Tuner):
    """Stub strategy pinning the multicore backend; counts resolutions."""

    kind = "stub-mp"

    def __init__(self, workers: int = 2, tile: int = 8) -> None:
        self.workers = workers
        self.tile = tile
        self.calls = 0

    def resolve(self, app, params):
        """Always answer mp-parallel (forcing a real worker pool)."""
        self.calls += 1
        return PlanDecision(
            backend="mp-parallel",
            tunables=TunableParams(cpu_tile=self.tile),
            workers=self.workers,
        )


class TestPlanResolution:
    def test_plan_is_inspectable_and_cached(self, i3_session):
        plan = i3_session.plan("lcs", SMALL_DIM)
        assert plan.app == "lcs" and plan.dim == SMALL_DIM
        assert plan.system == "i3-540" and plan.tuner == "learned"
        assert plan.backend == "hybrid" and plan.expected_s > 0
        assert "lcs" in plan.describe()
        again = i3_session.plan("lcs", SMALL_DIM)
        assert again is plan  # LRU hit, not re-resolved

    def test_manual_backend_bypasses_tuner(self, i3):
        with Session(system=i3) as session:
            plan = session.plan(
                "lcs",
                SMALL_DIM,
                policy=ExecutionPolicy(backend="vectorized", tunables=TunableParams()),
            )
            assert plan.tuner == "manual"
            assert session._tuner is None  # the tuner was never built
            result = session.run(plan)
            assert result.grid is not None

    def test_an_application_instance_is_refused_with_its_spelling(self, i3_session):
        with pytest.raises(UsageError, match=r"app\.problem\(dim\)"):
            i3_session.plan(LCSApp(dim=SMALL_DIM))
        with pytest.raises(UsageError, match="'lcs'"):
            i3_session.solve(LCSApp(dim=SMALL_DIM))

    def test_plan_accepts_problem(self, i3_session, small_synthetic):
        plan = i3_session.plan(small_synthetic)
        result = i3_session.run(plan)
        reference = SerialExecutor(i3_session.system).execute(small_synthetic)
        assert result.matches(reference)

    def test_custom_problem_never_aliases_registry_cache(self, i3_session):
        """A differently-configured instance's problem must not hit (or
        poison) the cache slots of the registry default sharing its name."""
        registry_result = i3_session.solve("lcs", SMALL_DIM)
        custom_problem = LCSApp(dim=SMALL_DIM, seed=99, similarity=0.1).problem(SMALL_DIM)
        custom_result = i3_session.solve(custom_problem)
        # Different sequences -> different grids; and the custom solve must
        # match a serial run of the *custom* problem, not the registry one.
        serial = SerialExecutor(i3_session.system).execute(custom_problem)
        assert custom_result.matches(serial)
        assert not np.array_equal(
            custom_result.grid.values, registry_result.grid.values
        )
        # The registry slot is untouched: solving by name again still
        # answers for the registry default.
        again = i3_session.solve("lcs", SMALL_DIM)
        assert np.array_equal(again.grid.values, registry_result.grid.values)


class TestEquivalenceWithLegacyPath:
    @pytest.mark.parametrize("app_name", available_applications())
    def test_solve_matches_hand_wired_tuner_and_executor(
        self, app_name, i3_session, quick_tuner_i3, i3
    ):
        """The session answer == the pre-session AutoTuner + HybridExecutor wiring."""
        from repro.apps.registry import get_application

        problem = get_application(app_name, dim=SMALL_DIM).problem(SMALL_DIM)
        decision = quick_tuner_i3.resolve(app_name, problem.input_params())
        legacy = HybridExecutor(i3, engine=decision.engine).execute(problem, decision.tunables)

        result = i3_session.solve(app_name, SMALL_DIM)
        assert result.matches(legacy)
        assert result.tunables == legacy.tunables

    def test_simulate_mode_rtimes_match_legacy(self, i3_session, quick_tuner_i3, i3):
        from repro.apps.registry import get_application
        from repro.hardware.costmodel import CostModel

        params = get_application("synthetic", dim=64).input_params(64)
        decision = quick_tuner_i3.resolve("synthetic", params)
        priced = CostModel(i3).price("hybrid", params, decision.tunables)
        result = i3_session.solve("synthetic", 64, mode="simulate")
        assert result.rtime == priced.total_s


class TestSolveManyServing:
    def test_ten_requests_one_plan_one_pool_identical_results(self, i7_2600k):
        """The acceptance scenario: >= 10 repeated requests are served from
        one tuned-plan resolution and one persistent worker pool, with
        results identical to solving each request in a fresh session."""
        tuner = _CountingMPTuner(workers=2)
        requests = [("lcs", SMALL_DIM)] * 12
        with Session(system=i7_2600k, tuner=tuner) as session:
            results = session.solve_many(requests)
            info = session.cache_info()
        assert len(results) == 12
        assert tuner.calls == 1  # one tuned-plan resolution for the stream
        assert info["builds"]["teams_built"] == 1  # one worker team ...
        assert info["builds"]["pool_requests"] == 12  # ... serving every request
        assert all(r.stats["mode"] == "process-pool" for r in results)
        assert all(r.stats["workers"] == 2 for r in results)

        # Identical to per-call solving (fresh session per request).
        with Session(system=i7_2600k, tuner=_CountingMPTuner(workers=2)) as fresh:
            per_call = fresh.solve("lcs", SMALL_DIM)
        for r in results:
            assert r.matches(per_call)
            assert np.array_equal(r.grid.values, per_call.grid.values)

    def test_mixed_request_forms(self, i3_session):
        results = i3_session.solve_many(
            [
                "lcs",
                ("lcs", SMALL_DIM),
                {"app": "lcs", "dim": SMALL_DIM},
                i3_session.plan("lcs", SMALL_DIM),
            ]
        )
        assert len(results) == 4
        assert results[1].matches(results[2]) and results[1].matches(results[3])

    def test_hybrid_mp_engine_reuses_one_pool(self, i7_2600k):
        with Session(system=i7_2600k) as session:
            plan = session.plan(
                "lcs",
                SMALL_DIM,
                policy=ExecutionPolicy(
                    backend="hybrid",
                    engine="mp-parallel",
                    workers=2,
                    tunables=TunableParams(cpu_tile=8),
                ),
            )
            results = [session.run(plan) for _ in range(3)]
            builds = session.cache_info()["builds"]
        assert builds["teams_built"] == 1
        reference = SerialExecutor(i7_2600k).execute(LCSApp(dim=SMALL_DIM).problem())
        for r in results:
            assert r.matches(reference)


class TestThreadSafety:
    def test_threads_hammering_one_session_match_sequential(self, i3_session):
        """N threads sharing one session get grids bit-identical to
        sequential solving — the serving layer's core assumption about
        session thread-safety (plan lock + run lock + locked LRUs)."""
        import threading

        mix = [("lcs", SMALL_DIM), ("edit-distance", 20), ("matrix-chain", 16)]
        sequential = {key: i3_session.solve(*key) for key in mix}
        failures = []

        def hammer(thread_id):
            for i in range(5):
                app, dim = mix[(thread_id + i) % len(mix)]
                result = i3_session.solve(app, dim)
                if not np.array_equal(
                    result.grid.values, sequential[(app, dim)].grid.values
                ):
                    failures.append((app, dim))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []

    def test_lazy_tuner_is_built_once_under_contention(self, i3, tiny_space):
        """Concurrent first touches of the lazy tuner train exactly one."""
        import threading

        with Session(system=i3, tuner="learned", space=tiny_space) as session:
            barrier = threading.Barrier(4)
            tuners = []

            def touch():
                barrier.wait()
                tuners.append(session.tuner)

            threads = [threading.Thread(target=touch) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(t is tuners[0] for t in tuners)


class TestBoundedCaches:
    def test_plan_and_problem_caches_respect_cache_size(self, i3, quick_tuner_i3):
        with Session(system=i3, tuner=quick_tuner_i3, cache_size=2) as session:
            for dim in (16, 24, 32, 40):
                session.plan("lcs", dim)
            info = session.cache_info()
        assert info["plans"]["size"] <= 2
        assert info["problems"]["size"] <= 2
        assert info["plans"]["evictions"] > 0


def _shm_entries():
    return set(os.listdir("/dev/shm"))


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs a /dev/shm to audit")
class TestResidentWorkerTeam:
    """Tiled solves fork once per session, whatever they solve."""

    @staticmethod
    def _plans(session, dim=24):
        return [
            session.plan(
                app,
                dim,
                policy=ExecutionPolicy(
                    backend=backend, workers=2, tunables=TunableParams(cpu_tile=tile)
                ),
            )
            for app in ("lcs", "viterbi", "nash-equilibrium")
            for tile in (4, 8)
            for backend in ("mp-parallel", "pipelined")
        ]

    def test_one_team_one_segment_for_every_problem_tile_and_backend(self, i7_2600k):
        before = _shm_entries()
        with Session(system=i7_2600k) as session:
            plans = self._plans(session)
            passes = []
            for _ in range(2):
                results = [session.run(plan) for plan in plans]
                info = session.cache_info()
                passes.append(info["teams"]["pids"])
                assert info["builds"]["teams_built"] == 1
                assert info["teams"]["size"] == 1
                assert len(_shm_entries() - before) == 1
            assert len(passes[0]) == 2 and passes[0] == passes[1]
            assert info["builds"]["pool_requests"] == 2 * len(plans)
            assert all(r.stats["mode"] == "process-pool" for r in results)
            for plan, result in zip(plans, results):
                serial = session.run(
                    session.plan(plan.app, plan.dim, policy=ExecutionPolicy(backend="serial"))
                )
                assert result.matches(serial)
        assert _shm_entries() == before

    def test_a_released_problem_dies_though_the_team_swept_it(
        self, i7_2600k, tmp_path, monkeypatch
    ):
        import gc
        import weakref

        with Session(system=i7_2600k, cache_dir=tmp_path) as session:
            built, build = [], session._problems.get_or_create

            def recording(key, factory):
                problem = build(key, factory)
                built.append(weakref.ref(problem))
                return problem

            monkeypatch.setattr(session._problems, "get_or_create", recording)
            policy = ExecutionPolicy(
                backend="pipelined", workers=2, tunables=TunableParams(cpu_tile=8)
            )
            first = session.solve("lcs", 24, policy=policy)
            pids = session.cache_info()["teams"]["pids"]
            gc.collect()
            assert built and all(ref() is None for ref in built)
            second = session.solve("viterbi", 24, policy=policy)  # the team still serves
            assert first.stats["mode"] == second.stats["mode"] == "process-pool"
            assert session.cache_info()["teams"]["pids"] == pids

    def test_a_larger_grid_grows_the_arena_without_leaking_the_old_one(self, i7_2600k):
        before = _shm_entries()
        with Session(system=i7_2600k) as session:
            small, large = self._plans(session, dim=16)[0], self._plans(session, dim=40)[0]
            session.run(small)
            (first,) = _shm_entries() - before
            session.run(large)
            (grown,) = _shm_entries() - before  # the old segment is gone
            assert grown != first
            result = session.run(small)  # a smaller grid fits the grown arena
            assert _shm_entries() - before == {grown}
            assert session.cache_info()["builds"]["teams_built"] == 1
            serial = session.run(
                session.plan("lcs", 16, policy=ExecutionPolicy(backend="serial"))
            )
            assert result.matches(serial)
        assert _shm_entries() == before


class TestPlanSerialization:
    def test_json_round_trip_and_replay(self, i3_session, tmp_path, i3, quick_tuner_i3):
        plan = i3_session.plan("lcs", SMALL_DIM)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        restored = load_plan(path)
        assert restored == plan

        original = i3_session.run(plan)
        with Session(system=i3, tuner=quick_tuner_i3) as other:
            replayed = other.run(restored)
        assert replayed.matches(original)

    def test_stale_format_version_raises_artifact_error(self, i3_session, tmp_path):
        plan = i3_session.plan("lcs", SMALL_DIM)
        payload = plan.to_dict()
        payload["format_version"] = 999
        with pytest.raises(ArtifactError):
            ResolvedPlan.from_dict(payload)

    def test_junk_payload_raises_artifact_error(self):
        with pytest.raises(ArtifactError):
            ResolvedPlan.from_dict({"not": "a plan"})


class TestSimulateBuildsNothing:
    """A simulate run prices ``plan.params``: no problem, no executor, no grid."""

    def _replayed(self, dim=2048, backend="vectorized"):
        saved = ResolvedPlan(
            app="stochastic-path", dim=dim, params=InputParams(dim=dim, tsize=2.0, dsize=0),
            tunables=TunableParams(cpu_tile=4), backend=backend, system="i7-2600K",
        ).to_dict()
        return ResolvedPlan.from_dict(saved)

    def test_a_replayed_paper_scale_plan_is_priced_in_under_a_megabyte(self):
        import tracemalloc

        with Session(system="i7-2600K") as session:
            session.run(self._replayed(dim=64), mode="simulate")  # the cost model loads once
            tracemalloc.start()
            try:
                result = session.run(self._replayed(), mode="simulate")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            info = session.cache_info()
        assert peak < 1 << 20
        assert result.rtime > 0 and result.grid is None and result.params.dim == 2048
        assert info["problems"]["size"] == 0 and info["builds"]["executors_built"] == 0

    def test_simulate_refuses_what_a_functional_run_refuses(self):
        with Session(system="i3-540") as session:
            with pytest.raises(UnknownExecutorError):
                session.run(self._replayed(backend="fpga"), mode="simulate")
            two_gpus = ResolvedPlan.from_dict(
                {**self._replayed(dim=64).to_dict(), "backend": "hybrid",
                 "tunables": {"cpu_tile": 4, "band": 8, "gpu_count": 2, "gpu_tile": 1, "halo": 2}}
            )
            with pytest.raises(InvalidParameterError, match="needs 2 GPUs"):
                session.run(two_gpus, mode="simulate")


class TestErrorUnification:
    def test_unknown_application_is_typed(self, i3_session):
        with pytest.raises(UnknownApplicationError):
            i3_session.plan("raytracer", 32)
        # Still a KeyError (and a ReproError) for legacy callers.
        with pytest.raises(KeyError):
            i3_session.plan("raytracer", 32)
        with pytest.raises(ReproError):
            i3_session.plan("raytracer", 32)

    def test_unknown_system_is_typed(self):
        with pytest.raises(UnknownSystemError):
            Session(system="cray-1")

    def test_unknown_tuner_strategy_is_usage_error(self, i3):
        with pytest.raises(UsageError):
            make_tuner("telepathy", i3)

    def test_missing_measured_artifacts_raise_artifact_error(self, i3, tmp_path):
        session = Session(
            system=i3,
            tuner="measured",
            profile_path=tmp_path / "missing.json",
        )
        with pytest.raises(ArtifactError, match="repro profile"):
            session.plan("lcs", SMALL_DIM)

    @pytest.mark.parametrize("iterations", [2.5, 2.0, True, np.float64(3.0), "4"])
    def test_a_non_integer_inner_iteration_count_is_refused(self, iterations):
        """Never truncated into another request's grid (2.5 used to solve as 2)."""
        with Session() as session:
            with pytest.raises(InvalidParameterError, match="inner_iterations must be an integer"):
                session.solve("nash-equilibrium", 16, inner_iterations=iterations)
            exact = session.solve("nash-equilibrium", 16, inner_iterations=np.int64(2))
            assert exact.grid.values.tobytes() == session.solve(
                "nash-equilibrium", 16, inner_iterations=2
            ).grid.values.tobytes()

    def test_closed_session_refuses_work(self, i3):
        session = Session(system=i3)
        session.close()
        with pytest.raises(UsageError):
            session.plan("lcs", SMALL_DIM, policy=ExecutionPolicy(backend="serial"))


class TestTunerProtocol:
    def test_all_builtin_strategies_speak_the_protocol(self, i3, tiny_space):
        learned = make_tuner("learned", i3, space=tiny_space)
        exhaustive = make_tuner("exhaustive", i3, space=tiny_space)
        assert isinstance(learned, Tuner) and isinstance(exhaustive, Tuner)
        assert isinstance(learned, AutoTuner)
        params = LCSApp(dim=32).input_params(32)
        for strategy in (learned, exhaustive):
            decision = strategy.resolve("lcs", params)
            assert isinstance(decision, PlanDecision)
            assert decision.tunables.cpu_tile >= 1

    def test_exhaustive_strategy_serves_a_session(self, i3, tiny_space):
        with Session(system=i3, tuner="exhaustive", space=tiny_space) as session:
            result = session.solve("lcs", SMALL_DIM)
            serial = SerialExecutor(i3).execute(LCSApp(dim=SMALL_DIM).problem())
            assert result.matches(serial)
            assert session.plan("lcs", SMALL_DIM).tuner == "exhaustive"
