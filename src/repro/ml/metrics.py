"""Evaluation metrics for the learned models."""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import InvalidParameterError


def _check(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise InvalidParameterError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    if y_true.size == 0:
        raise InvalidParameterError("metrics need at least one sample")
    return y_true, y_pred


def mae(y_true, y_pred) -> float:
    """Mean absolute error."""
    y_true, y_pred = _check(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))


def accuracy(y_true, y_pred) -> float:
    """Fraction of exactly matching (integer / boolean) predictions."""
    y_true, y_pred = _check(y_true, y_pred)
    return float(np.mean(np.round(y_true) == np.round(y_pred)))
