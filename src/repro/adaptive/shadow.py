"""Shadow re-tuning: what would the tuner pick, given live evidence?

When drift latches on a signature, the safest first move is to *ask*, not
act: re-run the tuner's resolution with its profile corrected by what the
server actually observed, and log the would-be decision next to the
active plan.  That is the paper's factory-measured decisions re-ranked
by production telemetry — with production held harmless.

For a :class:`~repro.autotuner.measured.MeasuredTuner` session the shadow
pass re-ranks the profile: the live observation is synthesized into a
:class:`~repro.autotuner.measured.MeasuredRecord` anchored at the nearest
*profiled* instance, the stale records of the active backend at that
anchor are superseded, and a fresh :class:`MeasuredTuner` answers from
the corrected profile.  For other tuners (cost-model, learned,
exhaustive) no profile exists to correct; the shadow pass degrades to a
*recalibration*: keep the plan, adopt the observed mean as its
expectation.

Nothing in this module mutates the live session: a decision is logged by
the controller (:mod:`repro.adaptive.controller`) and never installed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotuner.measured import (
    MeasuredProfile,
    MeasuredRecord,
    MeasuredTuner,
)
from repro.autotuner.protocol import PlanDecision
from repro.cache.keys import RequestIdentity
from repro.core.exceptions import ReproError
from repro.facade.plan import ResolvedPlan

from repro.adaptive.observations import SignatureStats


@dataclass(frozen=True)
class ShadowDecision:
    """One shadow resolution: active plan vs what live evidence suggests.

    ``reason`` records how the proposal was produced: ``"retrained"``
    (the measured tuner re-ranked on the observation-corrected profile) or
    ``"recalibrated"`` (no re-rankable profile — expectation updated to
    the observed mean, plan unchanged).  ``would_swap`` is True when the
    proposal differs from the active plan in backend, engine, workers or
    tunables; it is a logged verdict, and the active plan stays.
    """

    signature: RequestIdentity
    plan: ResolvedPlan
    decision: PlanDecision
    observed_s: float
    samples: int
    reason: str

    @property
    def would_swap(self) -> bool:
        """True when the shadow choice differs from the active plan."""
        return (
            self.decision.backend != self.plan.backend
            or self.decision.engine != self.plan.engine
            or self.decision.workers != self.plan.workers
            or self.decision.tunables != self.plan.tunables
        )

    def to_dict(self) -> dict:
        """JSON-safe rendering for ``/metrics`` and reports."""
        return {
            "signature": self.signature.label,
            "active": {
                "backend": self.plan.backend,
                "engine": self.plan.engine,
                "workers": self.plan.workers,
                "cpu_tile": self.plan.tunables.cpu_tile,
                "expected_ms": (
                    self.plan.expected_s * 1e3
                    if self.plan.expected_s is not None
                    else None
                ),
            },
            "proposed": {
                "backend": self.decision.backend,
                "engine": self.decision.engine,
                "workers": self.decision.workers,
                "cpu_tile": self.decision.tunables.cpu_tile,
                "expected_ms": (
                    self.decision.expected_s * 1e3
                    if self.decision.expected_s is not None
                    else None
                ),
            },
            "observed_ms": self.observed_s * 1e3,
            "samples": self.samples,
            "reason": self.reason,
            "would_swap": self.would_swap,
        }


class ShadowTuner:
    """Re-resolves drifted plans against live observations, read-only.

    Holds the live session only to reach its active tuner; it never
    installs anything.  Each :meth:`resolve` call is self-contained and
    deterministic given the plan and the observed statistics.
    """

    def __init__(self, session) -> None:
        self.session = session

    def resolve(
        self, plan: ResolvedPlan, stats: SignatureStats, signature: RequestIdentity
    ) -> ShadowDecision:
        """Shadow-resolve one drifted signature's plan.

        Returns the :class:`ShadowDecision` comparing the active plan to
        what the tuner picks once the live evidence is folded in.
        """
        observed_s = stats.mean
        samples = stats.count
        tuner = self.session.tuner
        decision: PlanDecision | None = None
        reason = "recalibrated"
        if isinstance(tuner, MeasuredTuner):
            try:
                retrained = self._retrain(tuner, plan, observed_s, samples)
                decision = retrained.resolve(plan.app, plan.params)
                reason = "retrained"
            except ReproError:
                decision = None
        if decision is None:
            decision = PlanDecision(
                backend=plan.backend,
                tunables=plan.tunables,
                workers=plan.workers,
                engine=plan.engine,
                expected_s=observed_s,
            )
        return ShadowDecision(
            signature=signature,
            plan=plan,
            decision=decision,
            observed_s=observed_s,
            samples=samples,
            reason=reason,
        )

    def _retrain(
        self,
        tuner: MeasuredTuner,
        plan: ResolvedPlan,
        observed_s: float,
        samples: int,
    ) -> MeasuredTuner:
        """A measured tuner over the observation-corrected profile.

        The live observation supersedes the factory measurements of the
        *active backend at the anchor instance* — under drift the whole
        stale timing of that backend is suspect, and leaving any of it in
        place would let a min() over records keep picking the stale
        number.  Records of other backends (and other instances) stay:
        they are the alternatives the re-ranked tuner chooses between.  An
        observed pinned plan whose backend is not a whole-grid engine makes
        the corrected profile unplannable (``SearchError``): no tiled or
        hybrid executor is ever proposed.
        """
        profile = tuner.profile
        anchor = tuner.nearest_instance(plan.params, plan.app)
        synthesized = MeasuredRecord(
            app=plan.app,
            backend=plan.backend,
            params=anchor,
            wall_s=observed_s,
            repeats=samples,
        )
        records = [
            record
            for record in profile.records
            if not (record.backend == plan.backend and record.params == anchor)
        ]
        records.append(synthesized)
        corrected = MeasuredProfile(
            system=profile.system, host=dict(profile.host), records=records
        )
        return MeasuredTuner(corrected)
