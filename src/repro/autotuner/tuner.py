"""The autotuner facade: train once per system, deploy on unseen applications.

This module ties the whole Figure 4 workflow together:

* :meth:`AutoTuner.train` runs the exhaustive sweep of the synthetic
  application (simulate mode), builds the training set and fits the
  :class:`repro.autotuner.models.LearnedTuner`;
* :meth:`AutoTuner.tune` maps a previously unseen problem's (dim, tsize,
  dsize) features to tuned parameter settings;
* :meth:`AutoTuner.efficiency` measures the fraction of the exhaustive-search
  optimum the tuned configuration achieves (the paper reports 98% on
  average, Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.exceptions import ModelNotFittedError, SearchError
from repro.core.parameter_space import ParameterSpace
from repro.core.params import InputParams, TunableParams
from repro.core.pattern import WavefrontProblem
from repro.autotuner.exhaustive import ExhaustiveSearch, SearchResults
from repro.autotuner.models import LearnedTuner
from repro.autotuner.protocol import PlanDecision, Tuner
from repro.autotuner.training import TrainingSetBuilder, TrainingSet
from repro.hardware.costmodel import CostModel
from repro.hardware.system import SystemSpec


@dataclass
class ValidationSummary:
    """Cross-validation of the tuner on held-out synthetic instances."""

    instances: int = 0
    mean_efficiency: float = 0.0
    min_efficiency: float = 0.0
    per_instance: dict[InputParams, float] = field(default_factory=dict)


class AutoTuner(Tuner):
    """Machine-learning autotuner for one target system."""

    kind = "learned"

    def __init__(self, system: SystemSpec, space: ParameterSpace | None = None) -> None:
        self.system = system
        self.space = space if space is not None else ParameterSpace.reduced()
        self.cost_model = CostModel(system)
        self.search = ExhaustiveSearch(system, self.space)
        self.results: SearchResults | None = None
        self.training: TrainingSet | None = None
        self.model: LearnedTuner | None = None
        self.validation: ValidationSummary | None = None

    # ------------------------------------------------------------------
    # Training ("in the factory")
    # ------------------------------------------------------------------
    def train(self) -> "AutoTuner":
        """Sweep the synthetic application, build the training set, fit models."""
        self.results = self.search.sweep()
        self.training = TrainingSetBuilder().build(self.results)
        self.model = LearnedTuner(
            system_name=self.system.name,
            supports_gpu=self.system.has_gpu,
            supports_dual_gpu=self.system.max_usable_gpus >= 2,
        ).fit(self.training)
        self.validation = self._cross_validate()
        return self

    def _cross_validate(self) -> ValidationSummary:
        """Tuned-vs-optimal efficiency on the held-out synthetic instances."""
        assert self.results is not None and self.training is not None and self.model is not None
        holdout = self.training.holdout_instances or self.training.train_instances
        per_instance: dict[InputParams, float] = {}
        for params in holdout:
            per_instance[params] = self.efficiency(params)
        values = np.array(list(per_instance.values())) if per_instance else np.array([0.0])
        return ValidationSummary(
            instances=len(per_instance),
            mean_efficiency=float(values.mean()),
            min_efficiency=float(values.min()),
            per_instance=per_instance,
        )

    @property
    def trained(self) -> bool:
        """True once the learned models have been fitted."""
        return self.model is not None and self.model.fitted

    def _check_trained(self) -> None:
        if not self.trained:
            raise ModelNotFittedError("AutoTuner.tune() called before train()")

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def tune(self, target: WavefrontProblem | InputParams) -> TunableParams:
        """Predict tuned parameter settings for an unseen problem."""
        self._check_trained()
        params = self._as_input_params(target)
        return self.model.predict(params.features())

    def resolve(self, app: str, params: InputParams) -> PlanDecision:
        """The :class:`~repro.autotuner.protocol.Tuner` protocol entry point.

        Answers with the hybrid three-phase executor under the learned
        tunables, its CPU phases on the host's preferred serial engine (the
        registry's preference order — the engine is not learned and not
        priced by the cost model, whose clock is the simulated testbed's).
        ``app`` is accepted for protocol compatibility; the cost-model tuner
        is application-blind by design (an instance *is* its (dim, tsize,
        dsize) signature).
        """
        tunables = self.tune(params)
        return PlanDecision(
            backend="hybrid",
            tunables=tunables.clipped(params.dim),
            workers=1,
            engine=self.search.search_space.engines[0],
            expected_s=self.predicted_rtime(params, tunables),
        )

    def predicted_rtime(self, target, tunables: TunableParams | None = None) -> float:
        """Cost-model runtime of the tuned (or given) configuration."""
        params = self._as_input_params(target)
        tunables = tunables if tunables is not None else self.tune(params)
        return self.cost_model.predict(params, tunables)

    def efficiency(self, target) -> float:
        """Fraction of the exhaustive-search optimum achieved by the tuner.

        Values slightly above 1.0 are possible (and observed in the paper for
        the i3-540): the regression models may pick parameter values between
        the grid points the finite search explored.
        """
        self._check_trained()
        params = self._as_input_params(target)
        tuned_rtime = self.predicted_rtime(params)
        if self.results is not None and params in set(self.results.instances()):
            best_rtime = self.results.best(params).rtime
        else:
            best_rtime = min(
                (r.rtime for r in self.search.sweep_instance(params) if not r.exceeded_threshold),
                default=tuned_rtime,
            )
        if tuned_rtime <= 0:
            raise SearchError("tuned configuration has non-positive runtime")
        return best_rtime / tuned_rtime

    # ------------------------------------------------------------------
    @staticmethod
    def _as_input_params(target) -> InputParams:
        if isinstance(target, InputParams):
            return target
        if isinstance(target, WavefrontProblem):
            return target.input_params()
        raise SearchError(
            f"cannot derive input parameters from object of type {type(target).__name__}"
        )

    # ------------------------------------------------------------------
    @classmethod
    def quick(cls, system: SystemSpec) -> "AutoTuner":
        """A small, fast tuner (reduced space) — used by examples and tests."""
        return cls(system, space=ParameterSpace.reduced()).train()
