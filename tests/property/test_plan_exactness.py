"""What a plan owns in closed form equals the per-diagonal definitions.

Two replaced loops, two oracles:

* the band's operation counts (:func:`repro.runtime.band.band_counters` —
  one device in closed form, two devices emulated until the band is regular
  and closed from there) against the literal per-diagonal emulation kept in
  ``tests/band_oracle.py``: same counters in the same key order, and the same
  plans raising;
* the plan's geometry (band diagonal lengths, offload bytes, span cell
  counts) against one validated :func:`repro.core.diagonal.diagonal_length`
  per diagonal, for every span of every band of every ``dim <= 64``.
"""

import numpy as np
import pytest
from band_oracle import (
    reference_band_counters,
    reference_gpu_diagonal_lengths,
    reference_offload_nbytes,
)
from hypothesis import given, settings, strategies as st

from repro.core import diagonal as dg
from repro.core.exceptions import ExecutionError
from repro.core.params import InputParams, TunableParams
from repro.core.plan import ThreePhasePlan
from repro.runtime.band import band_counters


def outcome(function, *args):
    """The counters as ordered pairs, or the error a plan is refused with."""
    try:
        return list(function(*args).items())
    except ExecutionError as error:
        return str(error)


@given(
    dim=st.integers(2, 64),
    band=st.integers(-1, 63),
    # Clipping turns the huge halo into the largest the band admits, where a
    # device reaches the end of the band's first diagonals.
    halo=st.one_of(st.integers(-1, 16), st.just(10**6)),
    gpu_tile=st.sampled_from([1, 4, 8]),
    dsize=st.integers(0, 5),
)
@settings(max_examples=400, deadline=None)
def test_band_counters_equal_the_reference_emulation(dim, band, halo, gpu_tile, dsize):
    params = InputParams(dim=dim, tsize=100, dsize=dsize)
    plan = ThreePhasePlan(params, TunableParams.from_encoding(4, band, halo, gpu_tile))
    expected = outcome(reference_band_counters, plan, plan.tunables, params.element_nbytes)
    assert outcome(band_counters, plan) == expected
    assert (band < 0) == isinstance(expected, str)  # only a plan without a band is refused


def test_every_band_and_halo_of_the_small_grids_equals_the_reference():
    """Exhaustive where hypothesis samples: dims 2-24, every band, every clipped halo."""
    plans = 0
    for dim in range(2, 25):
        params = InputParams(dim=dim, tsize=100, dsize=1)
        for band in range(dim):
            for halo in range(-1, (dim - band) // 2 + 1):
                plan = ThreePhasePlan(params, TunableParams.from_encoding(4, band, halo, 1))
                assert plan.tunables.halo == halo
                expected = reference_band_counters(plan, plan.tunables, params.element_nbytes)
                assert list(band_counters(plan).items()) == list(expected.items()), (dim, band, halo)
                plans += 1
    assert plans == 1820


@pytest.mark.parametrize("dsize", [1, 4])
def test_plan_geometry_equals_the_per_diagonal_definitions(dsize):
    for dim in range(2, 65):
        params = InputParams(dim=dim, tsize=100, dsize=dsize)
        for band in range(-1, dim):
            plan = ThreePhasePlan(params, TunableParams.from_encoding(1, band, -1, 1))
            lengths = plan.gpu_diagonal_lengths()
            assert lengths.dtype == np.int64
            assert lengths.tolist() == reference_gpu_diagonal_lengths(plan), (dim, band)
            assert plan.offload_nbytes() == reference_offload_nbytes(plan), (dim, band)
            for span in plan.spans:
                cells = sum(dg.diagonal_length(d, dim, dim) for d in range(span.lo, span.hi + 1))
                assert span.cells(dim) == cells == plan.cells_per_phase()[span.phase], (dim, band)
