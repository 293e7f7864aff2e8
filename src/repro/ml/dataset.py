"""Feature/target datasets used to train the autotuner's models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.exceptions import InvalidParameterError
from repro.utils.rng import make_rng


@dataclass
class Dataset:
    """A plain (X, y) dataset with named feature columns.

    ``X`` has shape ``(n_samples, n_features)``; ``y`` has shape
    ``(n_samples,)``.  Targets may be real-valued (regression trees) or
    binary in {0, 1} / {-1, +1} (SVM gate, REP-tree decisions).
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    target_name: str = "target"

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise InvalidParameterError(f"X must be 2-D, got shape {self.X.shape}")
        if self.y.ndim != 1:
            raise InvalidParameterError(f"y must be 1-D, got shape {self.y.shape}")
        if self.X.shape[0] != self.y.shape[0]:
            raise InvalidParameterError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.X.shape[1] != len(self.feature_names):
            raise InvalidParameterError(
                f"X has {self.X.shape[1]} columns but "
                f"{len(self.feature_names)} feature names were given"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, float]],
        features: Sequence[str],
        target: str,
    ) -> "Dataset":
        """Build a dataset from dictionaries (e.g. search-result summaries)."""
        if not records:
            raise InvalidParameterError("cannot build a dataset from zero records")
        missing = [f for f in list(features) + [target] if f not in records[0]]
        if missing:
            raise InvalidParameterError(f"records lack required keys: {missing}")
        X = np.array([[float(r[f]) for f in features] for r in records])
        y = np.array([float(r[target]) for r in records])
        return cls(X=X, y=y, feature_names=list(features), target_name=target)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of rows (samples) in the dataset."""
        return self.X.shape[0]

    # ------------------------------------------------------------------
    # Subsetting
    # ------------------------------------------------------------------
    def subset(self, indices: np.ndarray) -> "Dataset":
        """Row subset by integer or boolean index array."""
        indices = np.asarray(indices)
        return Dataset(
            X=self.X[indices],
            y=self.y[indices],
            feature_names=list(self.feature_names),
            target_name=self.target_name,
        )

    def shuffled(self, seed: int | np.random.Generator | None = None) -> "Dataset":
        """Row-shuffled copy (deterministic for a given seed)."""
        rng = make_rng(seed)
        order = rng.permutation(self.n_samples)
        return self.subset(order)

    def split(
        self, fraction: float, seed: int | np.random.Generator | None = None
    ) -> tuple["Dataset", "Dataset"]:
        """Random split into (first, second) with ``fraction`` of rows in the first."""
        if not 0.0 < fraction < 1.0:
            raise InvalidParameterError(f"fraction must be in (0, 1), got {fraction}")
        shuffled = self.shuffled(seed)
        cut = max(1, min(self.n_samples - 1, int(round(fraction * self.n_samples))))
        return shuffled.subset(np.arange(cut)), shuffled.subset(np.arange(cut, self.n_samples))

    # ------------------------------------------------------------------
    # Standardisation (used by the SVM)
    # ------------------------------------------------------------------
    def standardisation(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-feature (mean, std) with zero stds replaced by one."""
        mean = self.X.mean(axis=0)
        std = self.X.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return mean, std
