"""Tests for the linear SVM gate."""

import numpy as np
import pytest

from repro.core.exceptions import InvalidParameterError, ModelNotFittedError
from repro.ml.dataset import Dataset
from repro.ml.svm import LinearSVM
from repro.ml.metrics import accuracy


def separable_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0.2).astype(float)
    return Dataset(X=X, y=y, feature_names=["f0", "f1"], target_name="label")


class TestLinearSVM:
    def test_separable_problem_learned(self):
        ds = separable_dataset()
        svm = LinearSVM(epochs=100, seed=1).fit(ds)
        preds = svm.predict_bool(ds.X).astype(float)
        assert accuracy(ds.y, preds) > 0.95

    def test_single_class_degenerate_case(self):
        ds = Dataset(
            X=np.random.default_rng(0).normal(size=(10, 2)),
            y=np.ones(10),
            feature_names=["a", "b"],
        )
        svm = LinearSVM().fit(ds)
        assert np.all(svm.predict_bool(ds.X))

    def test_non_binary_targets_rejected(self):
        ds = Dataset(X=np.zeros((4, 1)), y=np.array([0.0, 1.0, 2.0, 3.0]), feature_names=["a"])
        with pytest.raises(InvalidParameterError):
            LinearSVM().fit(ds)

    def test_unfitted_rejected(self):
        with pytest.raises(ModelNotFittedError):
            LinearSVM().decision_function(np.zeros(2))

    def test_decision_function_single_row(self):
        ds = separable_dataset(50)
        svm = LinearSVM(epochs=50).fit(ds)
        score = svm.decision_function(ds.X[0])
        assert np.isscalar(score) or np.ndim(score) == 0

    def test_serialisation_roundtrip(self):
        ds = separable_dataset(80)
        svm = LinearSVM(epochs=50, seed=2).fit(ds)
        clone = LinearSVM.from_dict(svm.to_dict())
        assert np.array_equal(clone.predict_bool(ds.X), svm.predict_bool(ds.X))
