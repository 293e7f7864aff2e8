"""Linear soft-margin SVM trained with the Pegasos sub-gradient method.

The paper first trains "a binary SVM based predictor to decide whether or not
to exploit parallelism" (Section 3.1.2) and only consults the regression
trees when parallelism is predicted to pay off.  A linear SVM on the three
instance features (dim, tsize, dsize) is entirely adequate for that gate;
Pegasos (Shalev-Shwartz et al.) converges quickly and needs nothing beyond
NumPy.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import InvalidParameterError, ModelNotFittedError
from repro.ml.dataset import Dataset
from repro.utils.rng import make_rng


class LinearSVM:
    """Binary linear SVM; labels are {0, 1} on input and output."""

    def __init__(
        self,
        regularisation: float = 1e-3,
        epochs: int = 200,
        seed: int | None = None,
    ) -> None:
        if regularisation <= 0:
            raise InvalidParameterError(
                f"regularisation must be positive, got {regularisation}"
            )
        if epochs < 1:
            raise InvalidParameterError(f"epochs must be >= 1, got {epochs}")
        self.regularisation = float(regularisation)
        self.epochs = int(epochs)
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self.feature_names: list[str] | None = None

    # ------------------------------------------------------------------
    def fit(self, dataset: Dataset) -> "LinearSVM":
        """Train on a dataset whose targets are in {0, 1}."""
        y01 = np.round(dataset.y)
        if not np.all(np.isin(y01, (0.0, 1.0))):
            raise InvalidParameterError("LinearSVM targets must be binary (0/1)")
        self.feature_names = list(dataset.feature_names)
        self._mean, self._std = dataset.standardisation()
        X = (dataset.X - self._mean) / self._std
        y = np.where(y01 > 0.5, 1.0, -1.0)
        n, m = X.shape

        # Degenerate single-class training sets: predict the constant class.
        if np.all(y > 0) or np.all(y < 0):
            self.weights_ = np.zeros(m)
            self.bias_ = 1.0 if y[0] > 0 else -1.0
            return self

        rng = make_rng(self.seed)
        w = np.zeros(m)
        b = 0.0
        lam = self.regularisation
        t = 0
        for _ in range(self.epochs):
            for idx in rng.permutation(n):
                t += 1
                eta = 1.0 / (lam * t)
                margin = y[idx] * (X[idx] @ w + b)
                if margin < 1.0:
                    w = (1.0 - eta * lam) * w + eta * y[idx] * X[idx]
                    b = b + eta * y[idx]
                else:
                    w = (1.0 - eta * lam) * w
        self.weights_ = w
        self.bias_ = float(b)
        return self

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        """True once the separating hyperplane has been fitted."""
        return self.weights_ is not None

    def _check_fitted(self) -> None:
        if not self.fitted:
            raise ModelNotFittedError("LinearSVM used before fit()")

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distance to the separating hyperplane."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        Xs = (X - self._mean) / self._std
        out = Xs @ self.weights_ + self.bias_
        return out[0] if single else out

    def predict_bool(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels as booleans."""
        return np.atleast_1d(self.decision_function(X)) >= 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        self._check_fitted()
        return {
            "type": "linear_svm",
            "regularisation": self.regularisation,
            "epochs": self.epochs,
            "weights": self.weights_.tolist(),
            "bias": self.bias_,
            "mean": self._mean.tolist(),
            "std": self._std.tolist(),
            "feature_names": self.feature_names,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinearSVM":
        """Rebuild a model serialised by :meth:`to_dict`."""
        model = cls(
            regularisation=float(data["regularisation"]), epochs=int(data["epochs"])
        )
        model.weights_ = np.asarray(data["weights"], dtype=float)
        model.bias_ = float(data["bias"])
        model._mean = np.asarray(data["mean"], dtype=float)
        model._std = np.asarray(data["std"], dtype=float)
        model.feature_names = data.get("feature_names")
        return model
