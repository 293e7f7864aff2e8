"""REP tree: a variance-reduction regression tree.

The paper uses Weka's REPTree for the binary gpu-tile decision (Section
4.1.5).  The implementation here grows a variance-reduction tree on the
whole training set; Weka's reduced-error pruning against a held-out split is
not reproduced, because the tuner's training sets are a few dozen rows and
every caller grew its trees unpruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.exceptions import InvalidParameterError, ModelNotFittedError
from repro.ml.dataset import Dataset
from repro.ml.tree.splitter import best_split


@dataclass
class _Node:
    """One node of the tree; leaves predict their mean target value."""

    prediction: float
    n_samples: int
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None or self.right is None

    def to_dict(self) -> dict:
        out = {
            "prediction": self.prediction,
            "n_samples": self.n_samples,
            "depth": self.depth,
        }
        if not self.is_leaf:
            out.update(
                feature=self.feature,
                threshold=self.threshold,
                left=self.left.to_dict(),
                right=self.right.to_dict(),
            )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "_Node":
        node = cls(
            prediction=float(data["prediction"]),
            n_samples=int(data["n_samples"]),
            depth=int(data.get("depth", 0)),
        )
        if "left" in data:
            node.feature = int(data["feature"])
            node.threshold = float(data["threshold"])
            node.left = cls.from_dict(data["left"])
            node.right = cls.from_dict(data["right"])
        return node


class REPTree:
    """Variance-reduction regression tree."""

    def __init__(self, max_depth: int = 12, min_leaf: int = 3) -> None:
        if max_depth < 1:
            raise InvalidParameterError(f"max_depth must be >= 1, got {max_depth}")
        if min_leaf < 1:
            raise InvalidParameterError(f"min_leaf must be >= 1, got {min_leaf}")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root: _Node | None = None
        self.feature_names: list[str] | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, dataset: Dataset) -> "REPTree":
        """Grow the tree on the whole dataset."""
        self.feature_names = list(dataset.feature_names)
        self.root = self._grow(dataset.X, dataset.y, depth=0)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(np.mean(y)), n_samples=y.size, depth=depth)
        if depth >= self.max_depth or y.size < 2 * self.min_leaf:
            return node
        split = best_split(X, y, min_leaf=self.min_leaf, criterion="variance")
        if split is None:
            return node
        mask = X[:, split.feature] <= split.threshold
        node.feature = split.feature
        node.threshold = split.threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.root is None:
            raise ModelNotFittedError("REPTree used before fit()")

    def _predict_one(self, x: np.ndarray) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.prediction

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for each row of ``X``."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        out = np.array([self._predict_one(row) for row in X])
        return out[0] if single else out

    def predict_binary(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary decisions for {0, 1} targets (the gpu-tile use case)."""
        return (self.predict(X) >= threshold).astype(int)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        self._check_fitted()
        return {
            "type": "reptree",
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "feature_names": self.feature_names,
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "REPTree":
        """Rebuild a tree serialised by :meth:`to_dict`."""
        tree = cls(max_depth=int(data["max_depth"]), min_leaf=int(data["min_leaf"]))
        tree.feature_names = data.get("feature_names")
        tree.root = _Node.from_dict(data["root"])
        return tree
