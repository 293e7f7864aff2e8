"""Tests for the REP tree and the M5P model tree."""

import numpy as np
import pytest

from repro.core.exceptions import ModelNotFittedError
from repro.ml.dataset import Dataset
from repro.ml.metrics import accuracy
from repro.ml.tree.m5p import M5ModelTree
from repro.ml.tree.reptree import REPTree


def r2_score(y_true, y_pred):
    """Coefficient of determination (1.0 is a perfect fit)."""
    residual = np.sum((np.asarray(y_true) - y_pred) ** 2)
    return 1.0 - residual / np.sum((y_true - np.mean(y_true)) ** 2)


def tree_depth(node):
    """Depth of the deepest node of a serialised REP tree."""
    return max([node["depth"]] + [tree_depth(node[side]) for side in ("left", "right") if side in node])


def piecewise_dataset(n=400, seed=0):
    """Target is piecewise-linear in x0 with a threshold at 0.5 on x1."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 2))
    y = np.where(X[:, 1] <= 0.5, 2.0 * X[:, 0], 10.0 + 5.0 * X[:, 0])
    return Dataset(X=X, y=y, feature_names=["x0", "x1"], target_name="y")


def binary_dataset(n=300, seed=1):
    """Binary target: 1 when x0 is above a threshold."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1000, size=(n, 2))
    y = (X[:, 0] > 400).astype(float)
    return Dataset(X=X, y=y, feature_names=["tsize", "dim"], target_name="use_gpu")


class TestREPTree:
    def test_learns_binary_rule(self):
        ds = binary_dataset()
        tree = REPTree(min_leaf=2).fit(ds)
        preds = tree.predict_binary(ds.X)
        assert accuracy(ds.y, preds) > 0.95

    def test_depth_limit_respected(self):
        tree = REPTree(max_depth=2).fit(piecewise_dataset())
        assert tree_depth(tree.to_dict()["root"]) <= 2

    def test_regression_quality(self):
        ds = piecewise_dataset()
        tree = REPTree(min_leaf=3).fit(ds)
        assert r2_score(ds.y, tree.predict(ds.X)) > 0.8

    def test_single_row_prediction(self):
        ds = binary_dataset()
        tree = REPTree().fit(ds)
        value = tree.predict(ds.X[0])
        assert np.isscalar(value) or value.shape == ()

    def test_unfitted_rejected(self):
        with pytest.raises(ModelNotFittedError):
            REPTree().predict(np.zeros((1, 2)))

    def test_roundtrip(self):
        ds = binary_dataset()
        tree = REPTree(min_leaf=5).fit(ds)
        clone = REPTree.from_dict(tree.to_dict())
        assert np.allclose(clone.predict(ds.X), tree.predict(ds.X))


class TestM5ModelTree:
    def test_beats_single_linear_model_on_piecewise_data(self):
        ds = piecewise_dataset()
        from repro.ml.tree.linear_model import LinearModel

        lm = LinearModel().fit(ds.X, ds.y)
        tree = M5ModelTree(min_leaf=4).fit(ds)
        lm_r2 = r2_score(ds.y, lm.predict(ds.X))
        tree_r2 = r2_score(ds.y, tree.predict(ds.X))
        assert tree_r2 > lm_r2
        assert tree_r2 > 0.95

    def test_fits_pure_linear_data_with_few_leaves(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(300, 2))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 1.0
        tree = M5ModelTree().fit(Dataset(X=X, y=y, feature_names=["a", "b"]))
        # Pruning should collapse most of the tree: a single linear model is enough.
        assert tree.n_linear_models <= 3
        assert r2_score(y, tree.predict(X)) > 0.999

    def test_smoothing_changes_predictions(self):
        ds = piecewise_dataset()
        smooth = M5ModelTree(smoothing_k=15.0).fit(ds)
        raw = M5ModelTree(smoothing_k=0.0).fit(ds)
        assert not np.allclose(smooth.predict(ds.X[:20]), raw.predict(ds.X[:20]))

    def test_to_text_contains_linear_models(self):
        tree = M5ModelTree(min_leaf=4).fit(piecewise_dataset())
        text = tree.to_text()
        assert "LM1" in text
        assert "x0" in text or "x1" in text

    def test_feature_count_checked(self):
        tree = M5ModelTree().fit(piecewise_dataset())
        with pytest.raises(Exception):
            tree.predict(np.zeros((2, 5)))

    def test_serialisation_roundtrip(self):
        ds = piecewise_dataset(150)
        tree = M5ModelTree(min_leaf=4).fit(ds)
        clone = M5ModelTree.from_dict(tree.to_dict())
        assert np.allclose(clone.predict(ds.X), tree.predict(ds.X))

    def test_unfitted_rejected(self):
        with pytest.raises(ModelNotFittedError):
            M5ModelTree().predict(np.zeros((1, 2)))
