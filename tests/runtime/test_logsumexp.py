"""Numerical-stability tests of the shared probability-semiring helpers.

The contract under test (see :mod:`repro.runtime.compute`): exact results
across the float range — logits near ``±700`` where the naive formula
overflows/underflows — mathematical limits at the infinities (all-``-inf``
columns are empty probability sums), agreement with extended-precision
oracles (``np.longdouble`` always; ``mpmath`` when the host has it), and
**no RuntimeWarning leaks** from any edge case: every test in this module
runs under warnings-as-errors.

``TestBitIdenticalToTheOracle`` pins the floating-point contract itself:
``logsumexp_pair`` returns the same bits as the spelling kept in
``tests/runtime/lse_oracle.py`` on every input, and no edge case raises a
floating-point error other than underflow.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lse_oracle import logsumexp_pair as oracle_logsumexp_pair
from repro.runtime.compute import logsumexp, logsumexp_pair, max_product_pair


@pytest.fixture(autouse=True)
def warnings_are_errors():
    """Every helper call in this module must be warning-silent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def oracle_pair(a, b):
    """Extended-precision log(exp(a) + exp(b)) via ``np.longdouble``.

    The shift-by-max form in longdouble (>= 64-bit mantissa on x86) carries
    enough headroom to serve as ground truth for double-precision inputs.
    """
    hi = np.maximum(a, b, dtype=np.longdouble)
    lo = np.minimum(a, b, dtype=np.longdouble)
    if np.isinf(hi):
        return float(hi)
    return float(hi + np.log1p(np.exp(lo - hi)))


class TestExtremes:
    @pytest.mark.parametrize(
        "a,b",
        [
            (700.0, 700.0),
            (700.0, -700.0),
            (-700.0, -700.0),
            (-745.0, -740.0),  # exp() underflows to subnormals here
            (709.7, 709.7),  # exp() overflows just above this
            (0.0, -745.0),
            (1e308, 1e308),
            (-1e308, -1e308),
        ],
    )
    def test_pair_matches_longdouble_oracle_at_the_edges(self, a, b):
        result = float(logsumexp_pair(a, b))
        expected = oracle_pair(a, b)
        assert result == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_no_overflow_for_logits_near_positive_700(self):
        values = np.array([700.0, 699.0, 698.0])
        result = float(logsumexp(values))
        shifted = 700.0 + np.log(np.sum(np.exp(values - 700.0)))
        assert result == pytest.approx(shifted, rel=1e-15)

    def test_no_underflow_collapse_for_logits_near_negative_700(self):
        values = np.array([-700.0, -701.0, -702.0])
        result = float(logsumexp(values))
        assert np.isfinite(result)
        assert result == pytest.approx(-700.0 + np.log(np.sum(np.exp(values + 700.0))), rel=1e-15)

    def test_result_at_least_the_maximum_always(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(-750, 710, size=(50, 8))
        out = logsumexp(values, axis=1)
        assert np.all(out >= np.max(values, axis=1))


class TestInfinities:
    def test_both_negative_inf_is_negative_inf(self):
        assert float(logsumexp_pair(-np.inf, -np.inf)) == -np.inf

    def test_one_negative_inf_is_identity(self):
        assert float(logsumexp_pair(-np.inf, 3.25)) == 3.25
        assert float(logsumexp_pair(3.25, -np.inf)) == 3.25

    def test_positive_inf_dominates(self):
        assert float(logsumexp_pair(np.inf, -np.inf)) == np.inf
        assert float(logsumexp_pair(np.inf, np.inf)) == np.inf
        assert float(logsumexp_pair(np.inf, 0.0)) == np.inf

    def test_all_negative_inf_column_reduces_to_negative_inf(self):
        values = np.full((4, 3), -np.inf)
        values[:, 1] = [0.0, 1.0, 2.0, 3.0]
        out = logsumexp(values, axis=0)
        assert out[0] == -np.inf and out[2] == -np.inf
        assert out[1] == pytest.approx(oracle_pair(oracle_pair(0.0, 1.0), oracle_pair(2.0, 3.0)), rel=1e-12)

    def test_whole_array_of_negative_inf(self):
        assert float(logsumexp(np.full(5, -np.inf))) == -np.inf

    def test_mixed_columns_stay_columnwise_independent(self):
        values = np.array([[-np.inf, 700.0], [-np.inf, 700.0]])
        out = logsumexp(values, axis=0)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(700.0 + np.log(2.0), rel=1e-15)


class TestOracleAgreement:
    def test_pair_agrees_with_longdouble_on_random_logits(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-720, 705, size=500)
        b = rng.uniform(-720, 705, size=500)
        got = logsumexp_pair(a, b)
        expected = np.array([oracle_pair(x, y) for x, y in zip(a, b)])
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-13)

    def test_reduction_agrees_with_longdouble_on_random_columns(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(-700, 700, size=(40, 6))
        got = logsumexp(values, axis=1)
        shifted = values.astype(np.longdouble)
        hi = np.max(shifted, axis=1, keepdims=True)
        expected = (hi[:, 0] + np.log(np.sum(np.exp(shifted - hi), axis=1))).astype(float)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-13)

    def test_pair_agrees_with_mpmath_oracle_when_available(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        cases = [(700.0, 699.5), (-745.0, -744.0), (0.0, -708.0), (123.456, -654.321)]
        for a, b in cases:
            expected = float(mpmath.log(mpmath.e**a + mpmath.e**b))
            assert float(logsumexp_pair(a, b)) == pytest.approx(expected, rel=1e-14)


class TestSemiringAlgebra:
    def test_pair_is_commutative_and_monotone(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(-50, 50, size=200)
        b = rng.uniform(-50, 50, size=200)
        assert np.array_equal(logsumexp_pair(a, b), logsumexp_pair(b, a))
        assert np.all(logsumexp_pair(a, b) >= np.maximum(a, b))

    def test_pair_matches_reduction_on_two_rows(self):
        rng = np.random.default_rng(19)
        values = rng.uniform(-700, 700, size=(2, 64))
        pairwise = logsumexp_pair(values[0], values[1])
        reduced = logsumexp(values, axis=0)
        assert np.allclose(pairwise, reduced, rtol=1e-13, atol=0)

    def test_out_parameter_writes_in_place(self):
        a = np.array([1.0, -np.inf, 700.0])
        b = np.array([2.0, -np.inf, 700.0])
        out = np.empty(3)
        returned = logsumexp_pair(a, b, out=out)
        assert returned is out
        assert np.array_equal(out, logsumexp_pair(a, b))

    def test_max_product_pair_is_exact_max(self):
        a = np.array([1.0, -np.inf, 5.0])
        b = np.array([2.0, -np.inf, 4.0])
        assert np.array_equal(max_product_pair(a, b), np.maximum(a, b))
        out = np.empty(3)
        assert max_product_pair(a, b, out=out) is out


# ----------------------------------------------------------------------
# Bit identity with the oracle spelling, and the floating-point contract
# ----------------------------------------------------------------------
def same_bits(x, y) -> bool:
    """Equal shapes and bit patterns, except that any NaN equals any NaN."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return False
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and np.array_equal(
        x[~nan].view(np.uint64), y[~nan].view(np.uint64)
    )


TINY = 5e-324  # the smallest subnormal
#: Every special class of operand pair: both / one infinite, NaN, ties,
#: signed zeros, logits near the ends of exp's range, subnormals.
EDGE_TABLE = [
    (-np.inf, -np.inf),
    (np.inf, np.inf),
    (np.inf, -np.inf),
    (-np.inf, np.inf),
    (-np.inf, 3.25),
    (3.25, -np.inf),
    (np.inf, 0.0),
    (-1e308, np.inf),
    (np.nan, 1.0),
    (1.0, np.nan),
    (np.nan, np.nan),
    (np.nan, -np.inf),
    (np.inf, np.nan),
    (2.5, 2.5),
    (0.0, -0.0),
    (-0.0, 0.0),
    (-0.0, -np.inf),
    (-700.0, -700.0),
    (-745.0, -745.0),
    (-745.0, -740.0),
    (0.0, -745.0),
    (745.0, 0.0),
    (-744.5, 0.0),
    (709.7, 709.7),
    (1e308, 1e308),
    (TINY, 0.0),
    (TINY, -TINY),
    (-TINY, -np.inf),
    (2.2250738585072014e-308 / 2, 2.2250738585072014e-308),
]
EDGE_IDS = [f"{a!r},{b!r}" for a, b in EDGE_TABLE]

any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
logits = st.floats(min_value=-800.0, max_value=800.0)


class TestBitIdenticalToTheOracle:
    @given(st.lists(st.tuples(any_float, any_float), max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_arrays_of_any_floats(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=float)
        b = np.array([p[1] for p in pairs], dtype=float)
        # Opposite-sign operands beyond ±8.9e307 overflow in the gap on both
        # sides; the bits are what is compared here, not the warnings.
        with np.errstate(all="ignore"):
            assert same_bits(logsumexp_pair(a, b), oracle_logsumexp_pair(a, b))

    @given(logits, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_scalar_near_ties(self, a, ulps):
        b = a + ulps * float(np.spacing(a))
        got = logsumexp_pair(a, b)
        assert type(got) is np.float64
        assert same_bits(got, oracle_logsumexp_pair(a, b))

    @given(st.lists(logits, min_size=1, max_size=32), logits)
    @settings(max_examples=200, deadline=None)
    def test_broadcast_and_out(self, row, scalar):
        a = np.array(row)
        out = np.empty_like(a)
        assert logsumexp_pair(a, scalar, out=out) is out
        assert same_bits(out, oracle_logsumexp_pair(a, scalar))

    @given(st.lists(st.tuples(logits, logits, st.booleans()), min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_out_aliasing_an_operand(self, rows):
        """The fused evaluator's call, ``f(out, b, out=out)``; ties included."""
        a = np.array([x for x, _, _ in rows])
        b = np.array([x if tie else y for x, y, tie in rows])
        expected = oracle_logsumexp_pair(a, b)
        for alias in ("a", "b"):
            x, y = a.copy(), b.copy()
            out = x if alias == "a" else y
            assert logsumexp_pair(x, y, out=out) is out
            assert same_bits(out, expected), alias

    @pytest.mark.parametrize("a,b", EDGE_TABLE, ids=EDGE_IDS)
    def test_edge_row_matches_the_oracle(self, a, b):
        assert same_bits(logsumexp_pair(a, b), oracle_logsumexp_pair(a, b))
        pair = np.array([a, b])
        assert same_bits(
            logsumexp_pair(pair, pair[::-1]), oracle_logsumexp_pair(pair, pair[::-1])
        )

    @pytest.mark.parametrize("a,b", EDGE_TABLE, ids=EDGE_IDS)
    def test_edge_row_raises_no_floating_point_error(self, a, b):
        """inf - inf is masked, not silenced: nothing but underflow can fire."""
        with np.errstate(all="raise", under="ignore"):
            logsumexp_pair(a, b)
            logsumexp_pair(np.array([a, b]), np.array([b, a]))

    def test_opposite_huge_operands_overflow_only_in_the_gap(self):
        # |a - b| beyond the float range is the one overflow: the gap is inf,
        # its correction 0, and the result the larger operand exactly.
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            logsumexp_pair(1e308, -1e308)
        with np.errstate(over="ignore"):
            assert logsumexp_pair(1e308, -1e308) == 1e308
