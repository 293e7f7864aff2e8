"""Machine-learning substrate.

The paper trains its autotuner with Weka's M5P model trees, REP trees and an
SVM gate (Section 3.1.2).  Neither Weka nor scikit-learn is available in this
offline reproduction, so the algorithms are implemented here from scratch on
NumPy:

* :class:`repro.ml.tree.m5p.M5ModelTree` — regression tree grown with the
  standard-deviation-reduction criterion, linear models at the leaves,
  bottom-up pruning and smoothing (Quinlan's M5, Wang & Witten's M5');
* :class:`repro.ml.tree.reptree.REPTree` — variance-reduction tree;
* :class:`repro.ml.tree.linear_model.LinearModel` — ordinary least squares
  with optional attribute dropping (the baseline prior work found lacking);
* :class:`repro.ml.svm.LinearSVM` — linear soft-margin SVM trained with the
  Pegasos sub-gradient method (the "exploit parallelism?" gate).
"""

from repro.ml.dataset import Dataset
from repro.ml.metrics import accuracy, mae
from repro.ml.svm import LinearSVM
from repro.ml.tree.linear_model import LinearModel
from repro.ml.tree.reptree import REPTree
from repro.ml.tree.m5p import M5ModelTree

__all__ = [
    "Dataset",
    "accuracy",
    "mae",
    "LinearSVM",
    "LinearModel",
    "REPTree",
    "M5ModelTree",
]
