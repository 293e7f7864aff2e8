"""The common tuner protocol every tuning strategy speaks.

Every tuning strategy answers one question with one answer, so no caller
needs to know which strategy it is holding:

* :meth:`Tuner.resolve` takes an application name plus the instance's
  :class:`~repro.core.params.InputParams` and returns a
  :class:`PlanDecision` — backend, worker count, tunables and (when the
  strategy can estimate it) the expected runtime;
* :attr:`Tuner.kind` names the strategy for reports and serialized plans.

:class:`repro.session.Session` is the main consumer: it accepts any
``Tuner`` and never looks past this interface.  Two strategies live here
because neither trains: :class:`LocalRuleTuner`, the introspected host's
plan by rule (no simulated device changes what runs there), and
:class:`ExhaustiveTuner`, a per-instance sweep (slow, optimal under the
cost model).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.exceptions import SearchError
from repro.core.params import InputParams, TunableParams
from repro.runtime.registry import engines_with


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
    trained), :class:`repro.autotuner.measured.MeasuredTuner` (measured
    wall-clocks), :class:`LocalRuleTuner` (a rule) and
    :class:`ExhaustiveTuner` (per-instance sweep).
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


class LocalRuleTuner(Tuner):
    """The introspected host's plan, by rule: no training, no prediction.

    The paper's tunables pick CPU tile, GPU band, halo and GPU tile for a
    CPU + multi-GPU platform.  On the GPU-less ``local`` host none of them
    changes the program that runs, so every instance gets the same plan:
    the preferred whole-grid engine (``engines_with("serial")[0]``), which
    ignores the tile, on one worker.  ``expected_s`` stays ``None``: the
    only price this host has is a measured one (``tuner="measured"``).
    """

    kind = "rule"

    def resolve(self, app: str, params: InputParams) -> PlanDecision:
        """The preferred whole-grid engine, ``cpu_tile=1``, one worker."""
        return PlanDecision(backend=engines_with("serial")[0], tunables=TunableParams())


class ExhaustiveTuner(Tuner):
    """Per-instance exhaustive search presented through the tuner protocol.

    No training: every :meth:`resolve` call sweeps the full configuration
    space of that one instance under the cost model and returns the best
    point — the upper bound the learned tuners are measured against
    (the paper's "ber").  Slow per query, so the session's plan cache is
    what makes it usable for serving.
    """

    kind = "exhaustive"

    def __init__(self, system, space=None) -> None:
        from repro.autotuner.exhaustive import ExhaustiveSearch

        self.system = system
        self.search = ExhaustiveSearch(system, space)

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
