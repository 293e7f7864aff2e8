"""The adaptive control loop: observe → detect drift → shadow → log.

:class:`AdaptiveController` is the one stateful object tying the layer
together.  The serving path feeds it one service-time observation per
executed batch (:meth:`AdaptiveController.observe`), keyed by the
signature the request was admitted under, and everything downstream is
derived:

* every observation updates the per-signature streaming statistics
  (:mod:`repro.adaptive.observations`);
* functional-mode executions of tuner-predicted plans are assessed by the
  calibrated :class:`~repro.adaptive.drift.DriftDetector`;
* a latched drift event triggers one shadow resolution
  (:mod:`repro.adaptive.shadow`), logged in a bounded decision history.

The loop proposes and never acts: no decision reaches the session's plan
cache.  ``shadow`` mode (the default) runs it; ``off`` builds no
controller at all.  Internal failures never reach the serving path:
:meth:`observe` traps them into an ``errors`` counter that CI gates at
zero.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Mapping

from repro.adaptive.drift import DriftConfig, DriftDetector
from repro.adaptive.observations import ObservationLog
from repro.adaptive.shadow import ShadowDecision, ShadowTuner
from repro.cache.keys import RequestIdentity
from repro.core.exceptions import ReproError
from repro.facade.plan import ResolvedPlan

#: The ``--adaptive`` settings the serving layer understands.
ADAPTIVE_MODES = ("off", "shadow")
#: Bound on remembered shadow decisions (oldest dropped first).
DECISION_HISTORY = 32


class AdaptiveController:
    """Owner of the whole online-tuning loop for one serving stack.

    ``session`` is the server's session: active plans are looked up there
    and the shadow tuner reaches its tuner through it.  ``drift``
    parameterises the detector (defaults: :class:`DriftConfig`).  All
    decision state is guarded by one lock.
    """

    def __init__(self, session, drift: DriftConfig | None = None) -> None:
        self.session = session
        self.serve_log = ObservationLog()
        self.detector = DriftDetector(drift)
        self.shadow = ShadowTuner(session)
        self._lock = threading.Lock()
        self._decisions: deque[ShadowDecision] = deque(maxlen=DECISION_HISTORY)
        self.shadow_evaluations = 0
        self.would_swap = 0
        self.unpredicted = 0
        self.errors = 0
        self.last_error: str | None = None

    # ------------------------------------------------------------------
    # Observation entry point
    # ------------------------------------------------------------------
    def observe(
        self,
        signature: RequestIdentity,
        plan_kwargs: Mapping[str, Any] | None,
        service_s: float,
        count: int = 1,
    ) -> None:
        """Fold one executed batch's service time into the loop.

        Called by the server once per coalesced batch execution with the
        batch head's admitted signature (mode filled in), its
        :meth:`Session.plan` keywords and the wall time spent executing
        (queue wait excluded, so bursty arrivals cannot fake a drift).
        Never raises: internal failures land in the ``errors`` counter.
        """
        stats = self.serve_log.record(signature, service_s, count)
        if signature.mode != "functional":
            return
        try:
            with self._lock:
                self._assess(signature, dict(plan_kwargs or {}), service_s, stats)
        except Exception as error:  # noqa: BLE001 - must never break serving
            self.errors += 1
            self.last_error = f"{type(error).__name__}: {error}"

    # ------------------------------------------------------------------
    # The loop body (under the controller lock)
    # ------------------------------------------------------------------
    def _assess(
        self,
        signature: RequestIdentity,
        plan_kwargs: dict,
        service_s: float,
        stats,
    ) -> None:
        """Drift-assess one execution; shadow-resolve and log on an event."""
        plan = self._plan_for(signature, plan_kwargs)
        if plan is None or plan.expected_s is None:
            self.unpredicted += 1
            return
        stats.expected_s = plan.expected_s
        event = self.detector.assess(signature, service_s, plan.expected_s)
        if event is None:
            return
        decision = self.shadow.resolve(plan, stats, signature)
        self.shadow_evaluations += 1
        self._decisions.append(decision)
        if decision.would_swap:
            self.would_swap += 1

    def _plan_for(
        self, signature: RequestIdentity, plan_kwargs: dict
    ) -> ResolvedPlan | None:
        """The active plan of one signature, or ``None`` when unresolvable.

        ``plan_kwargs`` are the request's :meth:`Session.plan` keywords as
        the server admitted them: ``policy=`` plus constructor overrides.
        """
        try:
            return self.session.plan(signature.app, signature.dim, **plan_kwargs)
        except ReproError:
            return None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe state of the whole loop for ``/metrics`` and reports."""
        observations = self.serve_log.snapshot()
        with self._lock:
            decisions = [decision.to_dict() for decision in self._decisions]
            counters = {
                "evaluations": self.shadow_evaluations,
                "would_swap": self.would_swap,
            }
            errors = self.errors
            last_error = self.last_error
            unpredicted = self.unpredicted
        return {
            "mode": "shadow",
            "observations": observations["observations"],
            "tracked_signatures": observations["tracked_signatures"],
            "signatures": observations["signatures"],
            "drift": self.detector.snapshot(),
            "shadow": {**counters, "decisions": decisions},
            "unpredicted": unpredicted,
            "errors": errors,
            "last_error": last_error,
        }
