"""Training-set generation from exhaustive-search results (Section 3.1.2).

"Training sets are created by subsetting the exhaustive search data as
follows: firstly a subset of the problem instances (i.e., by dim, tsize and
dsize) are selected by regular sampling; then the best five performance
points for these instances (by tunable parameter values) are added to the
training set."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import SearchError
from repro.core.params import InputParams
from repro.autotuner.exhaustive import SearchResults
from repro.ml.dataset import Dataset

#: Features the learned models receive (the instance characteristics).
INPUT_FEATURES = ("dim", "tsize", "dsize")
#: Tunable parameters the learned models predict.
TARGET_PARAMETERS = ("cpu_tile", "band", "gpu_count", "gpu_tile", "halo")
#: Every INSTANCE_STRIDE-th (shuffled) instance trains; the rest are held out.
INSTANCE_STRIDE = 2


@dataclass
class TrainingSet:
    """Flat training records plus the instance split used to build them."""

    records: list[dict[str, float]] = field(default_factory=list)
    train_instances: list[InputParams] = field(default_factory=list)
    holdout_instances: list[InputParams] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    def dataset(self, target: str, features: tuple[str, ...] = INPUT_FEATURES) -> Dataset:
        """Dataset with the given feature columns and target column."""
        if not self.records:
            raise SearchError("training set is empty")
        return Dataset.from_records(self.records, features=list(features), target=target)

    def gate_dataset(self, features: tuple[str, ...] = INPUT_FEATURES) -> Dataset:
        """Dataset for the SVM gate: target 1 when parallelism pays off."""
        return self.dataset("use_parallel", features)

    def gpu_dataset(self, target: str, features: tuple[str, ...]) -> Dataset:
        """Dataset restricted to GPU-using records of GPU-favouring instances.

        Instances whose *best* configuration is CPU-only still contribute a
        couple of GPU configurations to the best-five list (the least bad
        ones); their band/halo values are noise for the regression models and
        are filtered out here.
        """
        gpu_records = [
            r
            for r in self.records
            if r["band"] >= 0 and r.get("best_uses_gpu", 1.0) > 0.5
        ]
        if not gpu_records:
            raise SearchError("no GPU-using records in the training set")
        return Dataset.from_records(gpu_records, features=list(features), target=target)

    def has_gpu_records(self) -> bool:
        """True when at least one GPU-favouring training record exists."""
        return any(
            r["band"] >= 0 and r.get("best_uses_gpu", 1.0) > 0.5 for r in self.records
        )


class TrainingSetBuilder:
    """Builds a :class:`TrainingSet` out of :class:`SearchResults`."""

    def __init__(
        self,
        best_per_instance: int = 5,
        parallel_margin: float = 0.95,
        seed: int | None = 13,
    ) -> None:
        if best_per_instance < 1:
            raise SearchError(
                f"best_per_instance must be >= 1, got {best_per_instance}"
            )
        if not 0.0 < parallel_margin <= 1.0:
            raise SearchError(
                f"parallel_margin must be in (0, 1], got {parallel_margin}"
            )
        self.best_per_instance = best_per_instance
        self.parallel_margin = parallel_margin
        self.seed = seed

    # ------------------------------------------------------------------
    def split_instances(
        self, results: SearchResults
    ) -> tuple[list[InputParams], list[InputParams]]:
        """Sample instances for training; the rest become hold-outs.

        The sweep enumerates instances in a regular (dim, tsize, dsize) order,
        so a naive "every k-th instance" stride would alias with the innermost
        dimension (e.g. pick only dsize=1 instances and hold out every
        dsize=5 one).  The paper avoids such cyclic patterns by irregular
        spacing; here the instances are deterministically shuffled before the
        stride is applied, which achieves the same stratification.
        """
        instances = results.instances()
        if not instances:
            raise SearchError("search results contain no instances")
        from repro.utils.rng import make_rng

        shuffled = list(instances)
        make_rng(self.seed).shuffle(shuffled)
        train = shuffled[::INSTANCE_STRIDE]
        train_set = set(train)
        # Preserve sweep order in the reported lists for readability.
        train = [p for p in instances if p in train_set]
        holdout = [p for p in instances if p not in train_set]
        if not holdout:
            # Keep at least one instance aside for cross-validation whenever
            # there is more than one instance at all.
            if len(train) > 1:
                holdout = [train.pop()]
        return train, holdout

    def build(self, results: SearchResults) -> TrainingSet:
        """Assemble the training set from the best points of the sampled instances."""
        train_instances, holdout_instances = self.split_instances(results)
        records: list[dict[str, float]] = []
        for params in train_instances:
            serial = results.serial_time(params)
            best_points = results.best_n(params, self.best_per_instance)
            if not best_points:
                continue
            # Instance-level decisions are taken from the single best point:
            # they answer "what should be done for THIS instance", which is
            # what the gate / GPU-use classifiers must learn.  The regression
            # targets keep all five points, as in the paper.
            instance_best = best_points[0]
            best_uses_gpu = float(instance_best.tunables.band >= 0)
            use_parallel = float(instance_best.rtime < serial * self.parallel_margin)
            for record in best_points:
                flat = record.summary()
                flat["serial_rtime"] = serial
                flat["speedup"] = serial / record.rtime if record.rtime > 0 else 0.0
                flat["use_parallel"] = use_parallel
                flat["best_uses_gpu"] = best_uses_gpu
                records.append(flat)
        if not records:
            raise SearchError("no training records could be built from the results")
        return TrainingSet(
            records=records,
            train_instances=train_instances,
            holdout_instances=holdout_instances,
        )
