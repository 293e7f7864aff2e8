"""Tests for datasets and evaluation metrics."""

import numpy as np
import pytest

from repro.core.exceptions import InvalidParameterError
from repro.ml.dataset import Dataset
from repro.ml.metrics import accuracy, mae


def toy_dataset(n=20, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 3.0
    return Dataset(X=X, y=y, feature_names=["a", "b", "c"], target_name="t")


class TestDataset:
    def test_from_records(self):
        records = [{"dim": 1, "tsize": 2, "band": 3}, {"dim": 4, "tsize": 5, "band": 6}]
        ds = Dataset.from_records(records, features=["dim", "tsize"], target="band")
        assert ds.X.shape == (2, 2)
        assert np.array_equal(ds.y, [3.0, 6.0])

    def test_from_records_missing_key(self):
        with pytest.raises(InvalidParameterError):
            Dataset.from_records([{"a": 1}], features=["a"], target="missing")

    def test_subset(self):
        ds = toy_dataset()
        sub = ds.subset(np.arange(5))
        assert sub.n_samples == 5

    def test_split_fractions(self):
        ds = toy_dataset(40)
        train, test = ds.split(0.75, seed=1)
        assert train.n_samples + test.n_samples == 40
        assert abs(train.n_samples - 30) <= 1

    def test_shuffle_deterministic(self):
        ds = toy_dataset(15)
        assert np.array_equal(ds.shuffled(seed=3).y, ds.shuffled(seed=3).y)

    def test_standardisation_handles_constant_columns(self):
        X = np.ones((10, 2))
        ds = Dataset(X=X, y=np.zeros(10), feature_names=["a", "b"])
        mean, std = ds.standardisation()
        assert np.all(std == 1.0)

    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            Dataset(X=np.zeros((3, 2)), y=np.zeros(4), feature_names=["a", "b"])
        with pytest.raises(InvalidParameterError):
            Dataset(X=np.zeros((3, 2)), y=np.zeros(3), feature_names=["a"])


class TestMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mae(y, y) == 0.0
        assert accuracy(y, y) == 1.0

    def test_known_errors(self):
        y_true = np.array([0.0, 0.0, 0.0, 0.0])
        y_pred = np.array([1.0, -1.0, 1.0, -1.0])
        assert mae(y_true, y_pred) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            accuracy([], [])
