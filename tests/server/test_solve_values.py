"""A hypothesis battery over the *values* of a ``POST /solve`` body.

``test_http_wire.py`` throws arbitrary bytes at the connection loop; this
module sends well-formed JSON whose values are anything JSON can spell —
nested lists and objects, ``null``, booleans, ``NaN`` and ``±Infinity``
literals, huge and negative numbers — under the constructor parameter names
of the drawn application, under unknown names, and as malformed ``mode`` /
``deadline_s`` / ``tunables``.  Whatever arrives, the answer is a success or
a typed client error, never a 500.

Size-like numbers stay small (no grid past dim 24, no more than 100 inner
iterations): bounding the work a body may ask for is a separate limit.  The
one exception is the explicit examples at each declared value bound and
just past it (``EDGES``), which must answer exactly 200 and 400.
"""

import http.client
import inspect
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.matrixchain import max_exact_dim_size
from repro.apps.registry import APPLICATIONS
from repro.apps.stochastic_path import MAX_PATH_CHARGE
from repro.core.params import TunableParams

#: Constructor parameters that scale the work of one solve.
SIZE_LIKE = ("inner_iterations", "tsize", "dsize")

numbers = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: Any JSON value, except that numbers stay within a small work budget.
bounded = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
    st.floats(allow_nan=True, allow_infinity=True).filter(lambda x: not abs(x) < 1e300),
    st.text(max_size=6),
    st.lists(st.integers(min_value=-100, max_value=100), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


#: Bodies at each declared value bound and just past it, with the status
#: each must answer: the largest finite stochastic-path scale at dim 16, the
#: largest exact matrix-chain size at dim 48, and what lies beyond them.
EDGES = [
    ({"app": "stochastic-path", "dim": 16, "cost_scale": MAX_PATH_CHARGE / 31}, 200),
    ({"app": "stochastic-path", "dim": 16, "cost_scale": MAX_PATH_CHARGE / 31 * (1 + 2**-52)}, 400),
    ({"app": "stochastic-path", "dim": 16, "cost_scale": 1e308}, 400),
    ({"app": "matrix-chain", "dim": 48, "max_dim_size": max_exact_dim_size(48)}, 200),
    ({"app": "matrix-chain", "dim": 48, "max_dim_size": max_exact_dim_size(48) + 1}, 400),
    ({"app": "matrix-chain", "dim": 48, "max_dim_size": 2**21}, 400),
    ({"app": "matrix-chain", "dim": 48, "max_dim_size": 2**40}, 400),
    ({"app": "matrix-chain", "dim": 48, "max_dim_size": 2.5}, 400),
    ({"app": "matrix-chain", "dim": 48, "max_dim_size": True}, 400),
]


def post_solve(endpoint, body):
    """``(status, payload)`` of one ``POST /solve``."""
    host, port = endpoint.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        # json.dumps spells NaN and the infinities as JSON literals.
        connection.request("POST", "/solve", body=json.dumps(body))
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@st.composite
def solve_bodies(draw):
    """One ``POST /solve`` body: a registered app, dim 2-24, hostile values."""
    app = draw(st.sampled_from(sorted(APPLICATIONS)))
    names = [
        name
        for name in inspect.signature(APPLICATIONS[app]).parameters
        if name != "dim"
    ]
    body = {"app": app, "dim": draw(st.integers(min_value=2, max_value=24))}
    for name in draw(st.lists(st.sampled_from(names + ["bogus", "x"]), max_size=3, unique=True)):
        body[name] = draw(bounded if name in SIZE_LIKE else values)
    if draw(st.booleans()):
        body["mode"] = draw(st.one_of(st.sampled_from(["functional", "simulate", "warp"]), values))
    if draw(st.booleans()):
        body["deadline_s"] = draw(values)
    if draw(st.booleans()):
        keys = sorted(TunableParams().features())
        body["tunables"] = draw(
            st.one_of(
                values,
                st.fixed_dictionaries(
                    {key: st.one_of(st.integers(min_value=-4, max_value=24), values) for key in keys}
                ),
            )
        )
    return body


class TestBodyValues:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(body=solve_bodies())
    @example(body=EDGES[0][0])
    @example(body=EDGES[1][0])
    @example(body=EDGES[2][0])
    @example(body=EDGES[3][0])
    @example(body=EDGES[4][0])
    @example(body=EDGES[5][0])
    @example(body=EDGES[6][0])
    @example(body=EDGES[7][0])
    @example(body=EDGES[8][0])
    def test_no_body_value_answers_500(self, endpoint, body):
        status, payload = post_solve(endpoint, body)
        assert status in (200, 400, 504), (status, payload, body)
        if status != 200:
            assert payload["error"]["type"], payload

    @pytest.mark.parametrize("body, expected", EDGES, ids=lambda v: str(v) if isinstance(v, int) else None)
    def test_each_value_bound_admits_its_edge_and_refuses_past_it(self, endpoint, body, expected):
        status, payload = post_solve(endpoint, body)
        assert status == expected, (status, payload, body)
        if expected == 400:
            assert payload["error"]["type"] == "InvalidParameterError", payload
            name = "cost_scale" if body["app"] == "stochastic-path" else "max_dim_size"
            assert name in payload["error"]["message"], payload
