"""The common tuner protocol every tuning strategy speaks.

Before this module existed the package shipped three tuner classes with
three different deployment interfaces — :class:`repro.autotuner.tuner.AutoTuner`
(``tune()`` returning :class:`~repro.core.params.TunableParams` plus separate
engine/backend selectors), :class:`repro.autotuner.models.LearnedTuner`
(``predict()`` on raw feature dictionaries) and
:class:`repro.autotuner.measured.MeasuredTuner` (``tune()`` returning its own
``TunedPlan``) — and every caller had to know which one it was holding.

The protocol collapses the three into one question and one answer:

* :meth:`Tuner.resolve` takes an application name plus the instance's
  :class:`~repro.core.params.InputParams` and returns a
  :class:`PlanDecision` — backend, worker count, tunables and (when the
  strategy can estimate it) the expected runtime;
* :attr:`Tuner.kind` names the strategy for reports and serialized plans.

:class:`repro.session.Session` is the main consumer: it accepts any
``Tuner`` and never looks past this interface.  :class:`ExhaustiveTuner`
rounds out the built-in strategies with a per-instance exhaustive sweep
(slow, optimal under the cost model) so ``tuner="exhaustive"`` needs no
training step.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.exceptions import SearchError
from repro.core.params import InputParams, TunableParams


@dataclass(frozen=True)
class PlanDecision:
    """A tuning strategy's answer for one application instance.

    The decision is executor-ready but application-agnostic: the session
    combines it with the app/dim it asked about to form a full
    :class:`repro.facade.plan.ResolvedPlan`.  ``backend`` and ``engine``
    are names of :mod:`repro.runtime.registry` (``"hybrid"``,
    ``"mp-parallel"``, ...): the backend executes the plan, and ``engine``
    — when set — is the engine the hybrid executor fills its grid through;
    ``expected_s`` is the strategy's runtime estimate (cost-model or
    measured), ``None`` when the strategy cannot estimate.
    """

    backend: str
    tunables: TunableParams
    workers: int = 1
    engine: str | None = None
    expected_s: float | None = None


class Tuner(abc.ABC):
    """Abstract base of every tuning strategy the session can deploy.

    Implementations: :class:`repro.autotuner.tuner.AutoTuner` (cost-model
    trained), :class:`repro.autotuner.models.LearnedTuner` (bare fitted
    models), :class:`repro.autotuner.measured.MeasuredTuner` (measured
    wall-clocks) and :class:`ExhaustiveTuner` (per-instance sweep).
    """

    #: Strategy name recorded in resolved plans ("learned", "measured", ...).
    kind: str = "tuner"

    @abc.abstractmethod
    def resolve(self, app: str, params: InputParams) -> PlanDecision:
        """Resolve tuned execution parameters for one application instance.

        ``app`` is the application name (used by strategies whose answers are
        application-aware, e.g. the measured tuner anchoring to its own
        measurements); ``params`` carries the (dim, tsize, dsize) features
        every strategy consumes.
        """

    def describe(self) -> str:
        """One-line human-readable identification of the strategy."""
        return f"{self.kind} tuner"


class ExhaustiveTuner(Tuner):
    """Per-instance exhaustive search presented through the tuner protocol.

    No training: every :meth:`resolve` call sweeps the full configuration
    space of that one instance under the cost model and returns the best
    point — the upper bound the learned tuners are measured against
    (the paper's "ber").  Slow per query, so the session's plan cache is
    what makes it usable for serving.
    """

    kind = "exhaustive"

    def __init__(self, system, space=None, constants=None) -> None:
        from repro.autotuner.exhaustive import ExhaustiveSearch

        self.system = system
        self.search = ExhaustiveSearch(system, space, constants)

    def resolve(self, app: str, params: InputParams) -> PlanDecision:
        """Sweep the instance's configurations and return the best point."""
        records = [
            r for r in self.search.sweep_instance(params) if not r.exceeded_threshold
        ]
        if not records:
            raise SearchError(
                f"every configuration of instance {params} exceeded the "
                f"{self.search.threshold_s:g}s threshold"
            )
        best = min(records, key=lambda r: r.rtime)
        return PlanDecision(
            backend="hybrid",
            tunables=best.tunables,
            workers=1,
            engine=self.search.search_space.engines[0],
            expected_s=best.rtime,
        )

    def describe(self) -> str:
        """One-line description including the target system."""
        return f"exhaustive search on {self.system.name}"
