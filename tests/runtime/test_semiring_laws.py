"""Semiring laws of the probability-semiring helpers (hypothesis).

The laws an exact recurrence may rely on, stated as precisely as floating
point allows:

* ``logsumexp_pair`` — commutative bit for bit, ``-inf`` is its identity,
  ``+inf`` absorbs, ``x ⊕ x`` is ``x + log(2)`` as computed; it rounds, so
  associativity holds only within :data:`ASSOCIATIVITY_ULPS`;
* ``max_product_pair`` — commutative, associative and idempotent exactly.

NaN is outside every law (it is not an element of either semiring).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime.compute import logsumexp_pair, max_product_pair

#: Associativity bound of ``logsumexp_pair``: ``|(a ⊕ b) ⊕ c - a ⊕ (b ⊕ c)|``
#: in ulps of the largest of ``|a|, |b|, |c|`` and the result.  Measured on
#: the 2-vCPU build host (numpy 2.4): at most 2 ulps over 1.4e7 random
#: triples (uniform on ±1e-3 … ±1e5, near ties, exponential gaps, magnitudes
#: spread over 10 decades); the bound leaves a factor of two.
ASSOCIATIVITY_ULPS = 4

elements = st.floats(allow_nan=False)  # the semiring's carrier: ±inf included
finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)
logits = st.floats(min_value=-800.0, max_value=800.0)
settings_ = settings(max_examples=300, deadline=None)


def bits(x) -> int:
    return int(np.asarray(x, dtype=float).view(np.uint64))


class TestLogsumexpPairLaws:
    @given(elements, elements)
    @settings_
    def test_commutative_bit_for_bit(self, a, b):
        with np.errstate(over="ignore"):  # the gap of ±1e308 operands
            assert bits(logsumexp_pair(a, b)) == bits(logsumexp_pair(b, a))

    @given(elements)
    @settings_
    def test_negative_infinity_is_the_identity(self, a):
        # Equal as values: -0.0 comes back as +0.0 (big + 0.0).
        assert logsumexp_pair(a, -np.inf) == a
        assert logsumexp_pair(-np.inf, a) == a

    @given(elements)
    @settings_
    def test_positive_infinity_absorbs(self, a):
        assert logsumexp_pair(a, np.inf) == np.inf
        assert logsumexp_pair(np.inf, a) == np.inf

    @given(finite)
    @settings_
    def test_doubling_adds_log_two(self, x):
        assert bits(logsumexp_pair(x, x)) == bits(np.float64(x) + np.log(2.0))

    @given(logits, logits, logits)
    @settings_
    def test_associative_within_the_measured_bound(self, a, b, c):
        left = logsumexp_pair(logsumexp_pair(a, b), c)
        right = logsumexp_pair(a, logsumexp_pair(b, c))
        scale = max(abs(a), abs(b), abs(c), abs(left))
        assert abs(left - right) <= ASSOCIATIVITY_ULPS * np.spacing(scale)

    def test_associative_exactly_with_an_infinite_operand(self):
        for a, b, c in [(-np.inf, 1.5, -2.0), (1.5, -np.inf, -np.inf), (np.inf, -3.0, 7.0)]:
            left = logsumexp_pair(logsumexp_pair(a, b), c)
            assert left == logsumexp_pair(a, logsumexp_pair(b, c))


class TestMaxProductPairLaws:
    @given(elements, elements)
    @settings_
    def test_commutative(self, a, b):
        # Equal as values; on a tie of +0.0 and -0.0 np.maximum returns the
        # second operand, so only the sign of a zero can differ.
        assert max_product_pair(a, b) == max_product_pair(b, a)

    @given(elements, elements, elements)
    @settings_
    def test_associative(self, a, b, c):
        left = max_product_pair(max_product_pair(a, b), c)
        assert left == max_product_pair(a, max_product_pair(b, c))

    @given(elements)
    @settings_
    def test_idempotent_bit_for_bit(self, a):
        assert bits(max_product_pair(a, a)) == bits(a)

    @given(st.lists(elements, min_size=1, max_size=32), elements)
    @settings_
    def test_laws_hold_elementwise_on_arrays(self, row, scalar):
        a = np.array(row)
        assert np.array_equal(max_product_pair(a, scalar), max_product_pair(scalar, a))
        assert np.array_equal(max_product_pair(a, a).view(np.uint64), a.view(np.uint64))
