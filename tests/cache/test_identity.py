"""The one request identity, and the persistent address built beside it.

``repro.cache.keys`` decides "is this the same request?" for every consumer:
the server's request labels, the session's plan and problem caches, the
``/metrics`` and adaptive labels and the result cache's SHA-256 address.
These tests pin

* the on-disk address: ``request_key`` digests recorded before the identity
  moved here, for a small table of requests, byte for byte;
* one equality everywhere: variants of one request (dict order, NumPy vs
  Python scalars, an omitted vs the explicit default mode) share one
  plan-cache entry and appear under one label, while
  ``1``, ``1.0`` and ``true`` stay different requests;
* typed refusal: a value the identity cannot canonicalise is an
  :class:`~repro.core.exceptions.InvalidParameterError`.
"""

import numpy as np
import pytest

from repro.cache import request_identity, request_key
from repro.core.exceptions import InvalidParameterError
from repro.core.params import InputParams, TunableParams
from repro.facade.plan import ResolvedPlan
from repro.facade.policy import ExecutionPolicy
from repro.server import ReproServer, ServerConfig
from repro.session import Session

SERIAL = ExecutionPolicy(backend="serial")

#: ``request_key`` digests recorded before the identity refactor; a change
#: here orphans every existing cache directory.
PINNED_KEYS = [
    (("lcs", 48), {}, "aa0bfaa75ac5cf838813f06d320a0edd8023666e1d3bb5cf15a74edd0f50b2fb"),
    (
        ("synthetic", 64),
        {"app_kwargs": {"tsize": 750}},
        "209fde106f4ffee8f71d29e24504bd8e84563b93b8fc9fc9de3b04e7bbfcac54",
    ),
    (
        ("synthetic", 64),
        {"app_kwargs": {"tsize": 750.0}},
        "34a9ac4f24622342430c97df1686e2ce2f77ca21c59d0587cae91b8b2f3b605f",
    ),
    (
        ("lcs", np.int64(48)),
        {"app_kwargs": {"seed": np.int64(7)}},
        "f1364feb30c7372afa0753c2774610c5d397524a20cd5ac198338f55c86d5c79",
    ),
    (
        ("lcs", 48),
        {"params": InputParams(dim=48, tsize=25.0, dsize=1), "app_kwargs": (("seed", 3),)},
        "7350cb82cee18c010f2fa7b0e7544c4cb5ff822719374f6854e4fb84b77621eb",
    ),
    (
        ("lcs", 48),
        {
            "overrides": {
                "backend": "hybrid",
                "workers": 2,
                "tunables": TunableParams(cpu_tile=8),
            }
        },
        "3509d9699339bc32110935ee8d4feea66a2b66a94ba5db53c2ad3413730266d1",
    ),
    (("lcs", 48), {"mode": "simulate"}, "0caa067af988b1e8702e6ab7a56905e56da864815e11043460e40016c25bcb7b"),
    (
        ("lcs", 16),
        {"app_kwargs": {"seed": [1]}},
        "7543e430ceebc8057a04af47ff5ef8a5569818d7e368c658f5afb6c25a5d3304",
    ),
]

#: Digests the session wrote for these solves (``<digest>.npz`` on disk)
#: before the identity refactor, on ``i3-540`` with the serial backend.
PINNED_SESSION_KEYS = [
    ({}, "70ebfa2030d07ece879154d109f13ed351b0e605c8c0089ebe480970c7ea1087"),
    ({"seed": 3}, "da9e91c43817a017100297cb1df7fdbe16f1334e475491389b2ab2eeb2c1a09f"),
    ({"seed": np.int64(3)}, "da9e91c43817a017100297cb1df7fdbe16f1334e475491389b2ab2eeb2c1a09f"),
    (
        {"similarity": 0.5, "seed": 2},
        "e363b43a03b63a94d94679ff7e3b57e5b11ad010a3a0fda1aab2a1fe746570b9",
    ),
]


class TestPinnedAddresses:
    @pytest.mark.parametrize("args, kwargs, digest", PINNED_KEYS)
    def test_request_key_digest_is_unchanged(self, args, kwargs, digest):
        assert request_key(*args, **kwargs).digest == digest

    def test_session_writes_entries_under_the_pinned_digests(self, tmp_path):
        with Session(system="i3-540", cache_dir=tmp_path) as session:
            for app_kwargs, _ in PINNED_SESSION_KEYS:
                session.solve("lcs", 16, policy=SERIAL, **app_kwargs)
            policy = ExecutionPolicy(backend="hybrid", tunables=TunableParams(cpu_tile=4))
            session.solve("synthetic", 24, "functional", policy=policy, tsize=750)
            session.result_cache.flush()
        written = {path.stem for path in tmp_path.glob("*.npz")}
        assert written == {digest for _, digest in PINNED_SESSION_KEYS} | {
            "fc4857260d6be0e1a37abdc0a1700e15228063028f769faf75998e8c3f150a6a"
        }


class TestOneEquality:
    def test_dict_order_and_numpy_scalars_do_not_matter(self):
        base = request_identity("lcs", 48, {"seed": 3, "similarity": 0.5})
        assert request_identity("lcs", 48, {"similarity": 0.5, "seed": 3}) == base
        assert (
            request_identity(
                "lcs", np.int64(48), {"seed": np.int64(3), "similarity": np.float64(0.5)}
            )
            == base
        )

    def test_int_float_and_bool_are_three_requests(self):
        # Exactly the result cache's equality: the digests differ, so the
        # identities differ too (one identity is one plan and one label).
        one, one_f, true = (
            request_identity("synthetic", 24, {"tsize": value}) for value in (1, 1.0, True)
        )
        assert len({one, one_f, true}) == 3

    def test_a_map_is_not_its_list_of_pairs(self):
        assert request_identity("lcs", 16, {"seed": {"a": 1}}) != request_identity(
            "lcs", 16, {"seed": [["a", 1]]}
        )

    def test_an_unset_policy_is_no_policy(self):
        assert request_identity("lcs", 16, policy=ExecutionPolicy()) == request_identity(
            "lcs", 16
        )
        assert request_identity("lcs", 16, policy=SERIAL) != request_identity("lcs", 16)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), object(), {1: "x"}]
    )
    def test_an_uncanonicalisable_value_is_a_typed_error(self, value):
        with pytest.raises(InvalidParameterError):
            request_identity("lcs", 16, {"seed": value})

    def test_nesting_deeper_than_the_interpreter_walks_is_a_typed_error(self):
        deep: list = []
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(InvalidParameterError):
            request_identity("lcs", 16, {"seed": deep})


class TestPlansCarryTheIdentity:
    def test_a_list_valued_plan_hashes_and_survives_json(self):
        with Session(system="i3-540") as session:
            plan = session.plan("lcs", 16, policy=SERIAL, seed=[1, 2])
            assert plan.app_kwargs == (("seed", (1, 2)),)
            assert hash(plan) == hash(ResolvedPlan.from_dict(plan.to_dict()))
            assert ResolvedPlan.from_dict(plan.to_dict()) == plan

    def test_a_previously_saved_plan_replays(self):
        # A plan file as written by hand (constructor overrides as a JSON
        # object, keys in any order): it loads, and replays to the same grid.
        saved = {
            "app": "lcs",
            "app_kwargs": {"seed": 5, "similarity": 0.5},
            "backend": "vectorized",
            "dim": 32,
            "engine": None,
            "expected_s": None,
            "format_version": 2,
            "params": {"dim": 32, "dsize": 0, "tsize": 0.5},
            "system": "i3-540",
            "tunables": {"band": -1, "cpu_tile": 1, "gpu_count": 0, "gpu_tile": 1, "halo": -1},
            "tuner": "manual",
            "workers": 1,
        }
        with Session(system="i3-540") as session:
            replayed = session.run(ResolvedPlan.from_dict(saved))
            fresh = session.solve(
                "lcs", 32, policy=ExecutionPolicy(backend="vectorized"), seed=5, similarity=0.5
            )
        assert replayed.grid_sha256 == fresh.grid_sha256


class TestOneRequestEverywhere:
    VARIANTS = [
        ((), {"seed": 3, "similarity": 0.5}),
        ((), {"similarity": 0.5, "seed": 3}),  # dict order
        ((), {"seed": np.int64(3), "similarity": np.float64(0.5)}),  # NumPy scalars
        (("functional",), {"seed": 3, "similarity": 0.5}),  # explicit default mode
    ]

    def test_variants_share_a_plan_and_a_label(self, quick_tuner_i3, i3):
        with Session(system=i3, tuner=quick_tuner_i3) as session:
            with ReproServer(session, ServerConfig()) as server:
                tickets = [server.submit("lcs", 24, *mode, **kw) for mode, kw in self.VARIANTS]
                results = [ticket.result() for ticket in tickets]
                metrics = server.metrics()
            assert len({ticket.signature for ticket in tickets}) == 1
            assert metrics["batches"]["count"] == 4
            assert len({result.grid_sha256 for result in results}) == 1
            label = "lcs[dim=24] mode=functional seed=3,similarity=0.5"
            assert list(metrics["signatures"]) == [label]
            assert list(metrics["adaptive"]["signatures"]) == [label]
            # One plan-cache entry answers every variant.
            assert session.cache_info()["plans"]["size"] == 1
            plans = {id(session.plan("lcs", 24, **kw)) for _, kw in self.VARIANTS}
            assert len(plans) == 1 and session.stats["plans_resolved"] == 1

    def test_a_valid_and_an_invalid_spelling_are_answered_apart(self, quick_tuner_i3, i3):
        # seed=1 and seed=1.0 would be one request under Python equality; the
        # second is refused by the RNG, and must not take the first down.
        with Session(system=i3, tuner=quick_tuner_i3) as session:
            with ReproServer(session, ServerConfig()) as server:
                assert server.solve("lcs", 16, seed=1).grid is not None
                with pytest.raises(InvalidParameterError):
                    server.solve("lcs", 16, seed=1.0)
                assert server.solve("lcs", 16, seed=1).grid is not None


#: Dims that name no grid: truncating them answered a different request.
NOT_INTEGERS = [("lcs", 12.7), ("nash-equilibrium", 9.99), ("lcs", 12.0), ("lcs", np.float64(16.5)), ("lcs", "12")]


class TestADimIsAnInteger:
    """A non-integer dim is refused in process, as it is on the wire."""

    @pytest.mark.parametrize(("app", "dim"), NOT_INTEGERS)
    def test_request_identity_refuses_it(self, app, dim):
        with pytest.raises(InvalidParameterError, match="dim must be an integer"):
            request_identity(app, dim)

    @pytest.mark.parametrize(("app", "dim"), NOT_INTEGERS)
    def test_an_application_refuses_to_build_it(self, app, dim):
        from repro.apps.registry import get_application

        with pytest.raises(InvalidParameterError, match="dim must be an integer"):
            get_application(app).problem(dim)

    @pytest.mark.parametrize(("app", "dim"), NOT_INTEGERS)
    def test_session_solve_refuses_it_and_caches_nothing(self, tmp_path, app, dim):
        with Session(system="i7-2600K", cache_dir=tmp_path) as session:
            with pytest.raises(InvalidParameterError, match="dim must be an integer"):
                session.solve(app, dim)
            assert session.cache_info()["results"]["disk"]["entries"] == 0

    @pytest.mark.parametrize(("app", "dim"), NOT_INTEGERS)
    def test_the_server_refuses_it(self, app, dim):
        with Session(system="i7-2600K") as session, ReproServer(
            session, ServerConfig(adaptive="off")
        ) as server:
            with pytest.raises(InvalidParameterError, match="dim must be an integer"):
                server.solve(app, dim)

    @pytest.mark.parametrize("dim", [np.int64(12), np.int32(12), 12])
    def test_numpy_integers_are_integers(self, dim):
        assert request_identity("lcs", dim) == request_identity("lcs", 12)
        from repro.apps.registry import get_application

        assert get_application("lcs").problem(dim).dim == 12
