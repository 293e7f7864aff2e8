"""Tests of :class:`~repro.facade.policy.ExecutionPolicy`, the one spelling of an override.

Covers the policy value itself (validation, override extraction), its
acceptance by :meth:`Session.plan`/:meth:`Session.solve`, the HTTP body
decoding into the same value (and the same result-cache key), the one
engine vocabulary (registry names; anything else is a typed error at plan
time), the one tile rule for tiled engines named without a tile, and the
persisted plan format.
"""

import dataclasses

import numpy as np
import pytest

from repro import ExecutionPolicy, Session
from repro.autotuner.protocol import PlanDecision, Tuner
from repro.core.exceptions import (
    ArtifactError,
    InvalidParameterError,
    UnknownExecutorError,
    UsageError,
)
from repro.core.params import TunableParams
from repro.facade.plan import ResolvedPlan, load_plan, save_plan
from repro.runtime.mp_parallel import default_tile
from repro.server.http import policy_from_body

#: ``request_key`` digest of ``lcs`` at dim 48 pinned to the serial backend,
#: recorded at the commit before the legacy override keywords were removed:
#: persisted result caches written by either spelling must keep hitting.
LCS48_SERIAL_DIGEST = "3b77be6a956098e44198c48edc1383d5a7a5f3ff20449b4b1e5907a259199844"


@pytest.fixture(scope="module")
def i3_session(quick_tuner_i3, i3):
    """A session over the shared tiny-space tuner (no retraining per test)."""
    with Session(system=i3, tuner=quick_tuner_i3) as session:
        yield session


class TestPolicyValue:
    def test_default_policy_overrides_nothing(self):
        assert ExecutionPolicy().overrides() == {}

    def test_overrides_lists_only_set_fields(self):
        policy = ExecutionPolicy(backend="serial", workers=2)
        assert policy.overrides() == {"backend": "serial", "workers": 2}

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(InvalidParameterError, match="workers must be"):
            ExecutionPolicy(workers=workers)

    @pytest.mark.parametrize("workers", [2.5, 1.0, "2", np.float64(2.0)])
    def test_non_integer_workers_rejected(self, workers):
        with pytest.raises(InvalidParameterError, match="workers must be an integer"):
            ExecutionPolicy(workers=workers)

    def test_policies_key_the_plan_cache_by_value(self):
        with Session() as session:
            pinned = ExecutionPolicy(backend="serial", tunables=TunableParams())
            first = session.plan("lcs", 32, policy=pinned)
            again = session.plan(
                "lcs", 32, policy=ExecutionPolicy(backend="serial", tunables=TunableParams())
            )
            other = session.plan("lcs", 32, policy=ExecutionPolicy(backend="vectorized"))
            assert again is first
            assert other is not first and other.backend == "vectorized"


class TestSessionIntegerArguments:
    """``Session(cache_size=)`` refuses what it used to truncate."""

    @pytest.mark.parametrize("cache_size", [2.7, "x", 16.0])
    def test_cache_sizes_that_are_not_integers_are_refused(self, cache_size):
        with pytest.raises(InvalidParameterError, match="cache_size must be an integer"):
            Session(cache_size=cache_size)

    def test_numpy_integers_are_accepted(self):
        with Session(cache_size=np.int32(8)) as session:
            assert session.cache_size == 8 and type(session.cache_size) is int


class TestPipelinedIsABackend:
    def test_pipelined_backend_reaches_execution(self):
        with Session() as session:
            policy = ExecutionPolicy(
                backend="pipelined", tunables=TunableParams(cpu_tile=8), workers=2
            )
            result = session.solve("lcs", 32, policy=policy)
            assert result.stats["dispatch"] == "pipelined"
            reference = session.solve("lcs", 32, policy=ExecutionPolicy(backend="serial"))
            assert np.array_equal(reference.grid.values, result.grid.values)

    def test_replayed_pipelined_plan_executes(self, tmp_path):
        with Session() as session:
            plan = session.plan(
                "lcs",
                24,
                policy=ExecutionPolicy(
                    backend="pipelined", tunables=TunableParams(cpu_tile=8), workers=2
                ),
            )
            path = save_plan(plan, tmp_path / "plan.json")
        loaded = load_plan(path)
        assert loaded == dataclasses.replace(plan, problem=None)
        with Session() as fresh:
            assert fresh.run(loaded).stats["dispatch"] == "pipelined"


class TestPlanFormat:
    """A plan file is read at its own format version, every key required."""

    @staticmethod
    def payload() -> dict:
        with Session() as session:
            plan = session.plan(
                "lcs", 32, policy=ExecutionPolicy(backend="pipelined", workers=2)
            )
        return plan.to_dict()

    def test_a_format_1_plan_is_refused_naming_both_versions(self):
        # Format 1 still carried the retired ``dispatch`` field.
        old = {**self.payload(), "format_version": 1, "dispatch": "barrier"}
        with pytest.raises(ArtifactError, match=r"version 1 \(expected 2\)"):
            ResolvedPlan.from_dict(old)

    NUMBERS = ("workers", "expected_s")

    @pytest.mark.parametrize("key", ["engine", "workers", "tuner", "expected_s", "app_kwargs", "params"])
    def test_a_missing_or_mistyped_key_is_an_artifact_error_naming_it(self, key):
        missing = self.payload()
        del missing[key]
        with pytest.raises(ArtifactError, match=repr(key)):
            ResolvedPlan.from_dict(missing)
        with pytest.raises(ArtifactError, match=repr(key)):
            ResolvedPlan.from_dict({**self.payload(), key: "x" if key in self.NUMBERS else 7})


#: Every way of asking for a tiled fill, as the override keys of a body.
TILED_FILLS = [
    {"backend": "mp-parallel"},
    {"backend": "pipelined"},
    {"backend": "hybrid", "engine": "mp-parallel"},
    {"engine": "pipelined"},
]


class TestTiledBackendWithoutATile:
    """A tiled engine named without ``tunables`` must not run one-cell tiles."""

    @pytest.mark.parametrize("over_http", [False, True], ids=["in-process", "body"])
    @pytest.mark.parametrize("fill", TILED_FILLS, ids=lambda f: "+".join(f.values()))
    def test_every_spelling_of_a_tiled_fill_gets_the_same_coarse_tile(self, fill, over_http):
        if over_http:
            policy = policy_from_body({**fill, "workers": 2})
        else:
            policy = ExecutionPolicy(**fill, workers=2)
        with Session() as session:
            plan = session.plan("lcs", 256, policy=policy)
            assert plan.tunables.cpu_tile == default_tile(plan.dim) == 256
            result = session.run(plan)
            assert 1 <= result.stats["tiles_executed"] <= 64
            reference = session.solve("lcs", 256, policy=ExecutionPolicy(backend="vectorized"))
            assert np.array_equal(reference.grid.values, result.grid.values)

    @pytest.mark.parametrize(
        "dim, tile", [(2, 2), (7, 7), (8, 8), (15, 8), (16, 16), (100, 64), (255, 128), (256, 256), (5000, 256)]
    )
    def test_the_default_tile_is_the_largest_of_8_to_256_that_fits(self, dim, tile):
        assert default_tile(dim) == tile

    def test_engine_override_keeps_what_the_tuner_decided(self, i7_2600k):
        decided = PlanDecision(
            backend="hybrid",
            tunables=TunableParams.from_encoding(cpu_tile=4, band=32, halo=2, gpu_tile=1),
            engine="vectorized",
            expected_s=0.5,
        )

        class BandTuner(Tuner):
            kind = "stub-band"

            def resolve(self, app, params):
                return decided

        with Session(system=i7_2600k, tuner=BandTuner()) as session:
            assert session.plan("lcs", 256).tunables == decided.tunables
            plan = session.plan(
                "lcs", 256, policy=ExecutionPolicy(engine="pipelined", workers=2)
            )
        assert (plan.tuner, plan.backend, plan.engine) == ("stub-band", "hybrid", "pipelined")
        assert plan.expected_s == decided.expected_s
        # Band and halo kept; only the scalar phases' cache tile is replaced.
        assert plan.tunables == TunableParams.from_encoding(
            cpu_tile=256, band=32, halo=2, gpu_tile=1
        )

    @pytest.mark.parametrize("fill", TILED_FILLS, ids=lambda f: "+".join(f.values()))
    def test_explicit_tunables_are_honoured_verbatim(self, fill):
        tunables = TunableParams(cpu_tile=3)
        policy = ExecutionPolicy(**fill, workers=2, tunables=tunables)
        with Session() as session:
            assert session.plan("lcs", 96, policy=policy).tunables == tunables

    @pytest.mark.parametrize("dim", [96, 256, 1536])
    def test_plan_takes_the_coarsest_searched_tile(self, dim):
        in_process = ExecutionPolicy(backend="pipelined", workers=2)
        body = {"app": "lcs", "dim": dim, "backend": "pipelined", "workers": 2}
        app, body_dim = body.pop("app"), body.pop("dim")
        with Session() as session:
            for policy in (in_process, policy_from_body(body)):
                plan = session.plan(app, body_dim, policy=policy)
                assert plan.tuner == "manual"
                assert plan.tunables.cpu_tile >= min(64, dim)

    @pytest.mark.parametrize("backend", ["mp-parallel", "pipelined"])
    @pytest.mark.parametrize("dim", [96, 1536])
    def test_solve_executes_a_handful_of_tiles(self, backend, dim):
        with Session() as session:
            result = session.solve(
                "lcs", dim, policy=ExecutionPolicy(backend=backend, workers=2)
            )
            assert 1 <= result.stats["tiles_executed"] <= 64
            reference = session.solve("lcs", dim, policy=ExecutionPolicy(backend="vectorized"))
            assert np.array_equal(reference.grid.values, result.grid.values)

    def test_explicit_one_cell_tiles_are_still_honoured(self):
        policy = ExecutionPolicy(
            backend="pipelined", workers=2, tunables=TunableParams(cpu_tile=1)
        )
        with Session() as session:
            assert session.plan("lcs", 96, policy=policy).tunables.cpu_tile == 1

    def test_untiled_backends_keep_the_scalar_default(self):
        with Session() as session:
            plan = session.plan("lcs", 96, policy=ExecutionPolicy(backend="vectorized"))
            assert plan.tunables == TunableParams()


class TestEngineVocabulary:
    """An engine is a registry name; every other spelling is one typed error."""

    NOT_ENGINES = [
        {"engine": "fpga"},
        {"engine": "mp"},
        {"backend": "hybrid-mp"},
        {"backend": "hybrid-vectorized"},
        {"backend": "hybrid", "engine": "hybrid"},
        # The retired compiled tier, as a backend and as the hybrid's engine.
        pytest.param({"backend": "compiled"}, id="backend=compiled"),
        pytest.param({"engine": "compiled"}, id="engine=compiled"),
    ]

    @pytest.mark.parametrize("over_http", [False, True], ids=["in-process", "body"])
    @pytest.mark.parametrize("fields", NOT_ENGINES, ids=lambda f: "+".join(f.values()))
    def test_plan_time_typed_error_names_the_known_engines(self, fields, over_http, i3_session):
        policy = policy_from_body(dict(fields)) if over_http else ExecutionPolicy(**fields)
        builds = i3_session.cache_info()["builds"]
        with pytest.raises(UnknownExecutorError, match="mp-parallel, pipelined, serial"):
            i3_session.plan("lcs", 32, policy=policy)
        # Nothing was constructed on the way to the error.
        assert i3_session.cache_info()["builds"] == builds

    @pytest.mark.parametrize(
        "field,value",
        [("engine", "mp"), ("backend", "hybrid-mp"), ("engine", "compiled"), ("backend", "compiled")],
    )
    def test_saved_plan_with_a_retired_spelling_fails_run(self, field, value, i3_session):
        payload = i3_session.plan("lcs", 32).to_dict()
        payload[field] = value
        with pytest.raises(UnknownExecutorError, match="mp-parallel, pipelined, serial"):
            i3_session.run(ResolvedPlan.from_dict(payload))

    def test_any_registered_engine_fills_the_hybrid_with_no_code_of_its_own(self):
        tunables = TunableParams.from_encoding(cpu_tile=8, band=6, halo=1, gpu_tile=1)
        with Session(system="i7-2600K") as session:
            reference = session.solve("lcs", 32, policy=ExecutionPolicy(backend="serial"))
            result = session.solve(
                "lcs",
                32,
                policy=ExecutionPolicy(
                    backend="hybrid", engine="pipelined", workers=2, tunables=tunables
                ),
            )
        assert result.stats["engine"] == result.stats["dispatch"] == "pipelined"
        # lcs walks rows: two 16-column strips cut into four 8-row regions.
        assert result.stats["tiles_executed"] == 8 and result.stats["band_cells"] > 0
        assert reference.matches(result)


class TestHttpBodyDecoding:
    def test_body_keys_lift_into_one_policy(self):
        body = {
            "backend": "hybrid",
            "engine": "vectorized",
            "workers": 2,
            "tunables": {"cpu_tile": 4, "band": 8, "gpu_count": 1, "gpu_tile": 1, "halo": -1},
            "seed": 3,
        }
        policy = policy_from_body(body)
        assert policy == ExecutionPolicy(
            backend="hybrid",
            engine="vectorized",
            workers=2,
            tunables=TunableParams.from_encoding(4, 8, -1, 1),
        )
        assert body == {"seed": 3}  # constructor arguments stay behind

    def test_body_without_overrides_pins_nothing(self):
        assert policy_from_body({"seed": 3, "backend": None}) is None

    @pytest.mark.parametrize(
        "body",
        [
            {"backend": 3},
            {"engine": ["serial"]},
            {"workers": 0},
            {"workers": "2"},
            {"workers": True},
            {"tunables": [4, 8, -1, 1]},
            {"tunables": {"cpu_tile": 4}},
            {"tunables": {"cpu_tile": 0, "band": 8, "gpu_count": 1, "gpu_tile": 1, "halo": -1}},
            {"tunables": {"cpu_tile": 1.5, "band": 8, "gpu_count": 1, "gpu_tile": 1, "halo": -1}},
            {"policy": {"backend": "serial"}},
        ],
        ids=lambda body: next(iter(body)) + "=" + repr(next(iter(body.values())))[:24],
    )
    def test_malformed_values_are_usage_errors(self, body):
        with pytest.raises(UsageError):
            policy_from_body(body)

    def test_http_and_in_process_requests_share_the_persisted_cache_key(self, tmp_path):
        body = {"app": "lcs", "dim": 48, "backend": "serial"}
        app, dim = body.pop("app"), body.pop("dim")
        decoded = policy_from_body(body)
        in_process = ExecutionPolicy(backend="serial")
        with Session(cache_dir=tmp_path) as session:
            keys = [
                session._request_key_for(
                    app, session.plan(app, dim, policy=policy), None, policy
                )
                for policy in (decoded, in_process)
            ]
        assert keys[0].digest == keys[1].digest == LCS48_SERIAL_DIGEST
