"""The learned per-parameter models bundled into one tuner (Section 4.1.5).

The paper's model structure, reproduced here:

* a binary **SVM gate** decides whether to exploit parallelism at all;
* **cpu-tile** is predicted by an M5P model tree from the input parameters
  only (dropping the other tunables increased accuracy);
* whether a **GPU is employed** is a binary decision predicted by a REP tree
  (the paper folds this into the gpu-tile value being 0 or 1);
* **band** is predicted by an M5P tree from the input parameters plus the
  gpu-tile decision;
* **halo** is predicted by an M5P tree from the input parameters plus band
  and cpu-tile (Figure 9 shows exactly those dependencies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.exceptions import ModelNotFittedError, SearchError
from repro.core.parameter_space import PAPER_CPU_TILES
from repro.core.params import TunableParams
from repro.autotuner.training import TrainingSet, INPUT_FEATURES
from repro.ml.svm import LinearSVM
from repro.ml.tree.m5p import M5ModelTree
from repro.ml.tree.reptree import REPTree

#: Feature columns of the band model (inputs + the GPU-use decision).
BAND_FEATURES = ("dim", "tsize", "dsize", "gpu_tile")
#: Feature columns of the halo model (inputs + band + cpu-tile, as in Figure 9).
HALO_FEATURES = ("dim", "tsize", "dsize", "cpu_tile", "band")


def _snap(value: float, allowed: tuple[int, ...]) -> int:
    """Round a real-valued prediction to the nearest allowed discrete value."""
    arr = np.asarray(allowed, dtype=float)
    return int(arr[np.argmin(np.abs(arr - value))])


@dataclass
class LearnedTuner:
    """The fitted gate + per-parameter models for one system.

    Not a :class:`~repro.autotuner.protocol.Tuner` itself: the deployable
    strategies (:class:`~repro.autotuner.tuner.AutoTuner`,
    :class:`~repro.autotuner.measured.MeasuredTuner`) call :meth:`predict`
    and price the answer with their own clock.
    """

    system_name: str
    supports_gpu: bool = True
    supports_dual_gpu: bool = True
    #: Discrete cpu-tile values predictions snap to.  The paper's Table 3
    #: grid by default; the measured pipeline passes the tile grid it swept.
    cpu_tile_choices: tuple[int, ...] = PAPER_CPU_TILES
    gate: LinearSVM = field(default_factory=LinearSVM)
    cpu_tile_model: M5ModelTree = field(
        default_factory=lambda: M5ModelTree(min_leaf=3, smoothing_k=5.0)
    )
    gpu_use_model: REPTree = field(
        default_factory=lambda: REPTree(min_leaf=2)
    )
    band_model: M5ModelTree = field(
        default_factory=lambda: M5ModelTree(min_leaf=3, smoothing_k=5.0)
    )
    halo_model: M5ModelTree | None = None
    fitted: bool = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, training: TrainingSet) -> "LearnedTuner":
        """Fit every component model from one training set."""
        if len(training) == 0:
            raise SearchError("cannot fit a tuner on an empty training set")

        self.gate.fit(training.gate_dataset())
        self.cpu_tile_model.fit(training.dataset("cpu_tile", INPUT_FEATURES))

        # GPU-use decision: the paper encodes "no GPU" as gpu-tile = 0.  The
        # label is the instance-level decision (does the best configuration
        # of this instance offload to the GPU?).
        gpu_use_records = [
            dict(r, gpu_use=float(r.get("best_uses_gpu", float(r["band"] >= 0))))
            for r in training.records
        ]
        from repro.ml.dataset import Dataset  # local import to avoid cycles

        self.gpu_use_model.fit(
            Dataset.from_records(gpu_use_records, features=list(INPUT_FEATURES), target="gpu_use")
        )

        if training.has_gpu_records():
            self.band_model.fit(training.gpu_dataset("band", BAND_FEATURES))
            if self.supports_dual_gpu:
                self.halo_model = M5ModelTree(min_leaf=3, smoothing_k=5.0)
                self.halo_model.fit(training.gpu_dataset("halo", HALO_FEATURES))
            else:
                self.halo_model = None
            self.supports_gpu = True
        else:
            self.supports_gpu = False
            self.halo_model = None
        self.fitted = True
        return self

    def _check_fitted(self) -> None:
        if not self.fitted:
            raise ModelNotFittedError("LearnedTuner used before fit()")

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, features: Mapping[str, float]) -> TunableParams:
        """Tuned parameter settings for one previously unseen instance."""
        self._check_fitted()
        dim = int(features["dim"])
        x_input = np.array([float(features[f]) for f in INPUT_FEATURES])

        # CPU tile size from the input parameters only (always needed: even a
        # "no parallelism worth it" verdict still runs the tiled CPU code path,
        # so a sensible tile size is part of the answer).
        cpu_tile = _snap(float(self.cpu_tile_model.predict(x_input)), self.cpu_tile_choices)

        # Step 1: is parallelism (in particular GPU offload) worth it at all?
        if not bool(self.gate.predict_bool(x_input)[0]):
            return TunableParams(cpu_tile=cpu_tile)

        # Step 3: binary GPU-use decision (the gpu-tile 0/1 encoding).
        use_gpu = (
            bool(np.atleast_1d(self.gpu_use_model.predict_binary(x_input))[0])
            and self.supports_gpu
        )
        if not use_gpu:
            return TunableParams(cpu_tile=cpu_tile)

        # Step 4: band from inputs + the gpu-tile decision (1 = untiled GPU).
        gpu_tile = 1
        x_band = np.array([*x_input, float(gpu_tile)])
        band = int(round(float(self.band_model.predict(x_band))))
        if band < 0:
            return TunableParams(cpu_tile=cpu_tile)
        band = min(band, dim - 1)

        # Step 5: halo from inputs + cpu-tile + band (dual-GPU systems only).
        halo = -1
        if self.supports_dual_gpu and self.halo_model is not None:
            x_halo = np.array([*x_input, float(cpu_tile), float(band)])
            halo = int(round(float(self.halo_model.predict(x_halo))))
            halo = max(-1, halo)

        return TunableParams.from_encoding(
            cpu_tile=cpu_tile, band=band, halo=halo, gpu_tile=gpu_tile
        ).clipped(dim)

    # ------------------------------------------------------------------
    # Persistence / reporting
    # ------------------------------------------------------------------
    def model_tree_text(self, parameter: str = "halo") -> str:
        """Text dump of one learned model tree (the Figure 9 artefact)."""
        self._check_fitted()
        trees = {
            "halo": self.halo_model,
            "band": self.band_model,
            "cpu_tile": self.cpu_tile_model,
        }
        tree = trees.get(parameter)
        if tree is None:
            raise SearchError(f"no model tree available for parameter {parameter!r}")
        return tree.to_text()

    def to_dict(self) -> dict:
        """JSON-serialisable representation of every fitted model."""
        self._check_fitted()
        return {
            "system_name": self.system_name,
            "supports_gpu": self.supports_gpu,
            "supports_dual_gpu": self.supports_dual_gpu,
            "cpu_tile_choices": list(self.cpu_tile_choices),
            "gate": self.gate.to_dict(),
            "cpu_tile_model": self.cpu_tile_model.to_dict(),
            "gpu_use_model": self.gpu_use_model.to_dict(),
            "band_model": self.band_model.to_dict() if self.supports_gpu else None,
            "halo_model": self.halo_model.to_dict() if self.halo_model is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LearnedTuner":
        """Rebuild a tuner serialised by :meth:`to_dict`."""
        tuner = cls(
            system_name=data["system_name"],
            supports_gpu=bool(data["supports_gpu"]),
            supports_dual_gpu=bool(data["supports_dual_gpu"]),
            cpu_tile_choices=tuple(
                int(t) for t in data.get("cpu_tile_choices", PAPER_CPU_TILES)
            ),
        )
        tuner.gate = LinearSVM.from_dict(data["gate"])
        tuner.cpu_tile_model = M5ModelTree.from_dict(data["cpu_tile_model"])
        tuner.gpu_use_model = REPTree.from_dict(data["gpu_use_model"])
        if data.get("band_model"):
            tuner.band_model = M5ModelTree.from_dict(data["band_model"])
        if data.get("halo_model"):
            tuner.halo_model = M5ModelTree.from_dict(data["halo_model"])
        tuner.fitted = True
        return tuner
