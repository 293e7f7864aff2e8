"""M5P model trees (Quinlan's M5 with Wang & Witten's improvements).

The M5 pruned model tree is the paper's main regression heuristic: it
predicts band, cpu-tile and halo values from the instance features and,
where it helps, from other tunable parameters (Figure 9 shows a fragment of
the halo tree for the i7-2600K).

Algorithm implemented here:

1. **Grow** a regression tree using the standard-deviation-reduction (SDR)
   splitting criterion.
2. **Fit linear models** at every node by ordinary least squares, with
   small-coefficient dropping.
3. **Prune** bottom-up: a subtree is replaced by its node's linear model
   whenever the model's (complexity-adjusted) error is no worse than the
   subtree's.
4. **Smooth** predictions on the way back up the tree,
   ``p' = (n p + k q) / (n + k)``, blending the leaf prediction ``p`` with
   the ancestor models ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import InvalidParameterError, ModelNotFittedError
from repro.ml.dataset import Dataset
from repro.ml.tree.linear_model import LinearModel
from repro.ml.tree.splitter import best_split


@dataclass
class _M5Node:
    """One node of the model tree."""

    model: LinearModel
    prediction_mean: float
    n_samples: int
    depth: int
    feature: int | None = None
    threshold: float = 0.0
    left: "_M5Node | None" = None
    right: "_M5Node | None" = None
    lm_id: int = 0  # assigned to leaves after pruning, for the text dump

    @property
    def is_leaf(self) -> bool:
        return self.left is None or self.right is None

    def to_dict(self) -> dict:
        out = {
            "model": self.model.to_dict(),
            "prediction_mean": self.prediction_mean,
            "n_samples": self.n_samples,
            "depth": self.depth,
            "lm_id": self.lm_id,
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
    def from_dict(cls, data: dict) -> "_M5Node":
        node = cls(
            model=LinearModel.from_dict(data["model"]),
            prediction_mean=float(data["prediction_mean"]),
            n_samples=int(data["n_samples"]),
            depth=int(data["depth"]),
            lm_id=int(data.get("lm_id", 0)),
        )
        if "left" in data:
            node.feature = int(data["feature"])
            node.threshold = float(data["threshold"])
            node.left = cls.from_dict(data["left"])
            node.right = cls.from_dict(data["right"])
        return node


class M5ModelTree:
    """M5 pruned model tree with optional smoothing."""

    def __init__(
        self,
        max_depth: int = 10,
        min_leaf: int = 4,
        smoothing_k: float = 15.0,
        pruning_factor: float = 1.0,
        drop_terms: bool = True,
    ) -> None:
        if max_depth < 1:
            raise InvalidParameterError(f"max_depth must be >= 1, got {max_depth}")
        if min_leaf < 2:
            raise InvalidParameterError(f"min_leaf must be >= 2, got {min_leaf}")
        if smoothing_k < 0:
            raise InvalidParameterError(f"smoothing_k must be >= 0, got {smoothing_k}")
        if pruning_factor < 0:
            raise InvalidParameterError(
                f"pruning_factor must be >= 0, got {pruning_factor}"
            )
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.smoothing_k = smoothing_k
        self.pruning_factor = pruning_factor
        self.drop_terms = drop_terms
        self.root: _M5Node | None = None
        self.feature_names: list[str] | None = None
        self.n_linear_models = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, dataset: Dataset) -> "M5ModelTree":
        """Grow, prune and label the model tree on ``dataset``."""
        self.feature_names = list(dataset.feature_names)
        self.root = self._grow(dataset.X, dataset.y, depth=0)
        self._prune(self.root, dataset.X, dataset.y)
        self.n_linear_models = self._assign_lm_ids(self.root, 1) - 1
        return self

    def _fit_node_model(self, X: np.ndarray, y: np.ndarray) -> LinearModel:
        model = LinearModel().fit(X, y, feature_names=self.feature_names)
        if self.drop_terms and X.shape[0] > X.shape[1] + 1:
            model.drop_small_terms(X, y)
        return model

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _M5Node:
        node = _M5Node(
            model=self._fit_node_model(X, y),
            prediction_mean=float(np.mean(y)),
            n_samples=y.size,
            depth=depth,
        )
        if depth >= self.max_depth or y.size < 2 * self.min_leaf:
            return node
        # M5 also stops when the node's spread is a tiny fraction of the
        # root's; the gain<=0 check in best_split covers the degenerate case.
        split = best_split(X, y, min_leaf=self.min_leaf, criterion="sdr")
        if split is None:
            return node
        mask = X[:, split.feature] <= split.threshold
        node.feature = split.feature
        node.threshold = split.threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _subtree_errors(self, node: _M5Node, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Absolute errors of the (current) subtree on (X, y), unsmoothed."""
        if node.is_leaf or X.shape[0] == 0:
            return np.abs(node.model.predict(X) - y) if X.shape[0] else np.zeros(0)
        mask = X[:, node.feature] <= node.threshold
        out = np.empty(y.shape)
        out[mask] = self._subtree_errors(node.left, X[mask], y[mask])
        out[~mask] = self._subtree_errors(node.right, X[~mask], y[~mask])
        return out

    def _prune(self, node: _M5Node, X: np.ndarray, y: np.ndarray) -> None:
        """Bottom-up pruning: keep the subtree only if it clearly beats the node model."""
        if node.is_leaf:
            return
        mask = X[:, node.feature] <= node.threshold
        self._prune(node.left, X[mask], y[mask])
        self._prune(node.right, X[~mask], y[~mask])
        n = max(1, y.size)
        params = np.count_nonzero(np.abs(node.model.coef_) > 1e-12) + 1
        # Complexity-adjusted error, in the spirit of M5's (n + v)/(n - v) factor.
        def adjusted(err: float, v: float) -> float:
            denom = max(1.0, n - self.pruning_factor * v)
            return err * (n + self.pruning_factor * v) / denom

        model_err = float(np.mean(np.abs(node.model.predict(X) - y))) if y.size else 0.0
        subtree_err = float(np.mean(self._subtree_errors(node, X, y))) if y.size else 0.0
        subtree_params = params + 2  # the split itself plus child models
        if adjusted(model_err, params) <= adjusted(subtree_err, subtree_params) + 1e-12:
            node.left = None
            node.right = None
            node.feature = None

    def _assign_lm_ids(self, node: _M5Node, next_id: int) -> int:
        if node.is_leaf:
            node.lm_id = next_id
            return next_id + 1
        next_id = self._assign_lm_ids(node.left, next_id)
        return self._assign_lm_ids(node.right, next_id)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.root is None:
            raise ModelNotFittedError("M5ModelTree used before fit()")

    def _predict_one(self, x: np.ndarray) -> float:
        # Descend to the responsible leaf, remembering the path for smoothing.
        path: list[_M5Node] = []
        node = self.root
        while not node.is_leaf:
            path.append(node)
            node = node.left if x[node.feature] <= node.threshold else node.right
        value = float(node.model.predict(x))
        if self.smoothing_k <= 0:
            return value
        n = node.n_samples
        for ancestor in reversed(path):
            value = (n * value + self.smoothing_k * float(ancestor.model.predict(x))) / (
                n + self.smoothing_k
            )
        return value

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for each row of ``X`` (smoothed)."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != len(self.feature_names or []):
            raise InvalidParameterError(
                f"expected {len(self.feature_names or [])} features, got {X.shape[1]}"
            )
        out = np.array([self._predict_one(row) for row in X])
        return out[0] if single else out

    # ------------------------------------------------------------------
    # Introspection (Figure 9)
    # ------------------------------------------------------------------
    def to_text(self, equations: bool = True) -> str:
        """Text dump in the style of Weka's M5P output (Figure 9)."""
        self._check_fitted()
        names = self.feature_names or []
        lines: list[str] = []
        leaves: list[_M5Node] = []

        def walk(node: _M5Node, indent: str) -> None:
            if node.is_leaf:
                leaves.append(node)
                lines.append(f"{indent}LM{node.lm_id} ({node.n_samples})")
                return
            name = names[node.feature] if node.feature < len(names) else f"x{node.feature}"
            lines.append(f"{indent}{name} <= {node.threshold:.4g} :")
            walk(node.left, indent + "|   ")
            lines.append(f"{indent}{name} >  {node.threshold:.4g} :")
            walk(node.right, indent + "|   ")

        walk(self.root, "")
        if equations:
            lines.append("")
            for leaf in leaves:
                lines.append(f"LM{leaf.lm_id}: {leaf.model.equation()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        self._check_fitted()
        return {
            "type": "m5p",
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "smoothing_k": self.smoothing_k,
            "pruning_factor": self.pruning_factor,
            "drop_terms": self.drop_terms,
            "feature_names": self.feature_names,
            "n_linear_models": self.n_linear_models,
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "M5ModelTree":
        """Rebuild a tree serialised by :meth:`to_dict`."""
        tree = cls(
            max_depth=int(data["max_depth"]),
            min_leaf=int(data["min_leaf"]),
            smoothing_k=float(data["smoothing_k"]),
            pruning_factor=float(data["pruning_factor"]),
            drop_terms=bool(data["drop_terms"]),
        )
        tree.feature_names = data.get("feature_names")
        tree.n_linear_models = int(data.get("n_linear_models", 0))
        tree.root = _M5Node.from_dict(data["root"])
        return tree
