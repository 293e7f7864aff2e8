"""Property-based tests for executor correctness and cost-model sanity."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.synthetic import SyntheticApp
from repro.core.params import InputParams, TunableParams
from repro.hardware import platforms
from repro.hardware.costmodel import CostModel
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.compute import reference_grid
from repro.ml.dataset import Dataset
from repro.ml.tree.m5p import M5ModelTree
from repro.ml.tree.reptree import REPTree


class TestHybridFunctionalEquivalence:
    """The reproduction's central invariant, explored over random configurations."""

    @given(
        dim=st.integers(8, 28),
        band=st.integers(-1, 40),
        cpu_tile=st.integers(1, 10),
        halo=st.integers(-1, 8),
        gpu_tile=st.sampled_from([1, 4, 8]),
        dsize=st.sampled_from([0, 1, 5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_hybrid_equals_serial_for_random_configs(self, dim, band, cpu_tile, halo, gpu_tile, dsize):
        problem = SyntheticApp(dim=dim, tsize=10, dsize=dsize).problem()
        tunables = TunableParams.from_encoding(
            cpu_tile, band, halo if band >= 0 else -1, gpu_tile
        )
        system = platforms.I7_2600K
        expected = reference_grid(problem)
        result = HybridExecutor(system).execute(problem, tunables)
        assert np.array_equal(result.grid.values, expected.values)


class TestCostModelProperties:
    @given(
        dim=st.sampled_from([500, 1100, 1900]),
        tsize=st.sampled_from([10, 100, 1000, 8000]),
        dsize=st.sampled_from([1, 3, 5]),
        band=st.integers(-1, 2000),
        cpu_tile=st.sampled_from([1, 2, 4, 8, 10]),
        halo=st.integers(-1, 200),
    )
    @settings(max_examples=80, deadline=None)
    def test_predictions_positive_and_bounded_below_by_ideal(self, dim, tsize, dsize, band, cpu_tile, halo):
        params = InputParams(dim=dim, tsize=tsize, dsize=dsize)
        tunables = TunableParams.from_encoding(cpu_tile, band, halo if band >= 0 else -1, 1)
        model = CostModel(platforms.I7_2600K)
        rtime = model.predict(params, tunables)
        assert np.isfinite(rtime) and rtime > 0
        # No configuration may beat the perfectly parallel ideal by definition.
        ideal = model.serial_time(params) / (
            platforms.I7_2600K.cpu.cores + 2 * platforms.I7_2600K.gpu(0).parallel_width
        )
        assert rtime > ideal / 10

    @given(tsize=st.floats(1, 12000), dsize=st.sampled_from([1, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_serial_time_monotone_in_tsize(self, tsize, dsize):
        model = CostModel(platforms.I3_540)
        a = model.serial_time(InputParams(dim=700, tsize=tsize, dsize=dsize))
        b = model.serial_time(InputParams(dim=700, tsize=tsize + 100, dsize=dsize))
        assert b > a


class TestTreeProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_m5p_predictions_within_target_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(80, 2))
        y = np.where(X[:, 0] > 0.5, 10.0, 0.0) + X[:, 1]
        ds = Dataset(X=X, y=y, feature_names=["a", "b"])
        tree = M5ModelTree(min_leaf=4).fit(ds)
        preds = tree.predict(X)
        margin = (y.max() - y.min()) * 0.5 + 1.0
        assert preds.min() > y.min() - margin
        assert preds.max() < y.max() + margin

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_reptree_predictions_are_observed_means(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(60, 2))
        y = rng.choice([0.0, 1.0], size=60)
        tree = REPTree(min_leaf=2).fit(Dataset(X=X, y=y, feature_names=["a", "b"]))
        preds = tree.predict(X)
        assert np.all((preds >= 0.0) & (preds <= 1.0))
