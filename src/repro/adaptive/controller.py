"""The adaptive control loop: observe → detect drift → shadow → swap.

:class:`AdaptiveController` is the one stateful object tying the layer
together.  The serving path feeds it a service-time observation per
executed batch (:meth:`AdaptiveController.observe`), sessions feed it
pure solve walls through their observer hook
(:meth:`AdaptiveController.record_run`), and everything downstream is
derived:

* every observation updates the per-signature streaming statistics
  (:mod:`repro.adaptive.observations`);
* functional-mode executions of tuner-predicted plans are assessed by the
  calibrated :class:`~repro.adaptive.drift.DriftDetector`;
* a latched drift event triggers one shadow resolution
  (:mod:`repro.adaptive.shadow`), always logged;
* in ``live`` mode a differing shadow decision is **promoted**: the plan
  is swapped atomically through the session's tuned-plan LRU
  (:meth:`repro.session.Session.adopt_plan`), bounded by ``swap_budget``;
  the signature's statistics and drift state restart, and after
  ``min_samples`` fresh observations the swap is either confirmed or —
  when the new plan's mean exceeds the pre-swap mean by more than
  ``rollback_ratio`` — rolled back and the signature pinned against
  further swapping.

``shadow`` mode (the default) runs everything except promotion; ``off``
builds no controller at all.  Internal failures never reach the serving
path: :meth:`observe` traps them into an ``errors`` counter that CI gates
at zero.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.exceptions import ReproError, UsageError
from repro.facade.plan import ResolvedPlan

from repro.adaptive.drift import DriftConfig, DriftDetector
from repro.adaptive.observations import (
    DEFAULT_RESERVOIR,
    DEFAULT_SIGNATURES,
    ObservationLog,
    observation_signature,
    signature_label,
)
from repro.adaptive.shadow import ShadowDecision, ShadowTuner

#: The ``--adaptive`` settings the serving layer understands.
ADAPTIVE_MODES = ("off", "shadow", "live")
#: Bound on remembered shadow decisions (oldest dropped first).
DECISION_HISTORY = 32


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of one :class:`AdaptiveController` (validated at construction).

    ``mode`` selects how far the loop goes (``off``/``shadow``/``live``);
    ``drift`` parameterises the detector; ``signatures``/``reservoir``
    bound the observation store; ``swap_budget`` caps live promotions per
    server lifetime and ``rollback_ratio`` is the post/pre mean ratio
    above which a promoted plan is rolled back.
    """

    mode: str = "shadow"
    drift: DriftConfig = field(default_factory=DriftConfig)
    signatures: int = DEFAULT_SIGNATURES
    reservoir: int = DEFAULT_RESERVOIR
    swap_budget: int = 4
    rollback_ratio: float = 1.0

    def __post_init__(self) -> None:
        """Reject impossible knobs early, with a typed error."""
        if self.mode not in ADAPTIVE_MODES:
            raise UsageError(
                f"adaptive mode must be one of {ADAPTIVE_MODES}, got {self.mode!r}"
            )
        if self.signatures < 1:
            raise UsageError(f"signatures must be >= 1, got {self.signatures}")
        if self.reservoir < 1:
            raise UsageError(f"reservoir must be >= 1, got {self.reservoir}")
        if self.swap_budget < 0:
            raise UsageError(f"swap_budget must be >= 0, got {self.swap_budget}")
        if self.rollback_ratio <= 0:
            raise UsageError(
                f"rollback_ratio must be > 0, got {self.rollback_ratio}"
            )


class _ActiveSwap:
    """Bookkeeping of one promoted plan awaiting confirmation."""

    __slots__ = ("old_plan", "new_plan", "pre_mean_s")

    def __init__(
        self, old_plan: ResolvedPlan, new_plan: ResolvedPlan, pre_mean_s: float
    ) -> None:
        self.old_plan = old_plan
        self.new_plan = new_plan
        self.pre_mean_s = pre_mean_s


class AdaptiveController:
    """Owner of the whole online-tuning loop for one serving stack.

    ``session`` is the server's session: plans are looked up there, live
    swaps are installed there, and its observer hook feeds
    :meth:`record_run`.  All decision state is guarded by one lock;
    :meth:`record_run` deliberately bypasses it (it only touches the run
    log's own locks) so a session observer can never deadlock against a
    swap in progress.
    """

    def __init__(self, session, config: AdaptiveConfig | None = None) -> None:
        self.session = session
        self.config = config if config is not None else AdaptiveConfig()
        self.serve_log = ObservationLog(
            maxsize=self.config.signatures, reservoir_size=self.config.reservoir
        )
        self.run_log = ObservationLog(
            maxsize=self.config.signatures, reservoir_size=self.config.reservoir
        )
        self.detector = DriftDetector(self.config.drift)
        self.shadow = ShadowTuner(session)
        self._lock = threading.Lock()
        self._decisions: deque[ShadowDecision] = deque(maxlen=DECISION_HISTORY)
        self._watch: dict[tuple, _ActiveSwap] = {}
        self._swapped: dict[tuple, _ActiveSwap] = {}
        self._pinned: set[tuple] = set()
        self._default_mode = session.mode.value
        self.shadow_evaluations = 0
        self.would_swap = 0
        self.swaps_applied = 0
        self.swaps_rolled_back = 0
        self.swaps_confirmed = 0
        self.budget_denied = 0
        self.unpredicted = 0
        self.errors = 0
        self.last_error: str | None = None

    # ------------------------------------------------------------------
    # Observation entry points
    # ------------------------------------------------------------------
    def observe(
        self,
        app: Any,
        dim: int | None,
        mode: str | None,
        plan_kwargs: Mapping[str, Any] | None,
        service_s: float,
        count: int = 1,
    ) -> None:
        """Fold one executed batch's service time into the loop.

        Called by the server once per coalesced batch execution with the
        batch head's identity and the wall time spent executing (queue
        wait excluded, so bursty arrivals cannot fake a drift).  Never
        raises: internal failures land in the ``errors`` counter.
        """
        norm_mode = mode if mode is not None else self._default_mode
        signature = observation_signature(app, dim, norm_mode, plan_kwargs)
        stats = self.serve_log.record(signature, service_s, count)
        if norm_mode != "functional":
            return
        try:
            with self._lock:
                self._assess(
                    signature, app, dim, dict(plan_kwargs or {}), service_s, stats
                )
        except Exception as error:  # noqa: BLE001 - must never break serving
            self.errors += 1
            self.last_error = f"{type(error).__name__}: {error}"

    def record_run(self, plan: ResolvedPlan, mode, wall_s: float) -> None:
        """Session observer hook: one pure solve wall, no serving overhead.

        These walls are what shadow retraining treats as measured
        evidence — they time exactly what a profile sweep would time.
        """
        mode_name = getattr(mode, "value", mode)
        signature = observation_signature(
            plan.app, plan.dim, mode_name, dict(plan.app_kwargs)
        )
        self.run_log.record(signature, wall_s)

    # ------------------------------------------------------------------
    # The loop body (under the controller lock)
    # ------------------------------------------------------------------
    def _assess(
        self,
        signature: tuple,
        app: Any,
        dim: int | None,
        plan_kwargs: dict,
        service_s: float,
        stats,
    ) -> None:
        """Drift-assess one execution; promote/rollback as configured."""
        watched = self._watch.get(signature)
        if watched is not None:
            self._judge_swap(signature, watched, stats)
            return
        plan = self._plan_for(app, dim, plan_kwargs)
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
        if (
            self.config.mode != "live"
            or not decision.would_swap
            or signature in self._pinned
        ):
            return
        if self.swaps_applied >= self.config.swap_budget:
            self.budget_denied += 1
            return
        self._promote(signature, plan, decision, stats)

    def _plan_for(
        self, app: Any, dim: int | None, plan_kwargs: dict
    ) -> ResolvedPlan | None:
        """The active plan of one signature, or ``None`` when unresolvable.

        ``plan_kwargs`` are the request's :meth:`Session.plan` keywords as
        the server admitted them: ``policy=`` plus constructor overrides.
        """
        try:
            return self.session.plan(app, dim, **plan_kwargs)
        except ReproError:
            return None

    def _promote(
        self,
        signature: tuple,
        plan: ResolvedPlan,
        decision: ShadowDecision,
        stats,
    ) -> None:
        """Install the shadow decision as the live plan for this signature."""
        proposed = decision.decision
        new_plan = plan.with_(
            backend=proposed.backend,
            engine=proposed.engine,
            workers=proposed.workers,
            tunables=proposed.tunables.clipped(plan.dim),
            expected_s=proposed.expected_s,
            tuner="adaptive",
        )
        self.session.adopt_plan(new_plan)
        self.swaps_applied += 1
        self._watch[signature] = _ActiveSwap(plan, new_plan, stats.mean)
        # Fresh statistics + drift calibration for the new plan: the old
        # stream described a plan that is no longer serving.
        self.serve_log.reset(signature)
        self.detector.reset(signature)

    def _judge_swap(self, signature: tuple, swap: _ActiveSwap, stats) -> None:
        """Confirm or roll back a promoted plan once evidence suffices."""
        stats.expected_s = swap.new_plan.expected_s
        if stats.count < self.config.drift.min_samples:
            return
        del self._watch[signature]
        if stats.mean > swap.pre_mean_s * self.config.rollback_ratio:
            self.session.adopt_plan(swap.old_plan)
            self.swaps_rolled_back += 1
            self._pinned.add(signature)
            self.serve_log.reset(signature)
            self.detector.reset(signature)
            return
        self.swaps_confirmed += 1
        self._swapped[signature] = swap

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe state of the whole loop for ``/metrics`` and reports."""
        observations = self.serve_log.snapshot()
        with self._lock:
            swapped_labels = {
                signature_label(sig): {
                    "from_backend": swap.old_plan.backend,
                    "to_backend": swap.new_plan.backend,
                    "to_workers": swap.new_plan.workers,
                    "pre_mean_ms": swap.pre_mean_s * 1e3,
                }
                for sig, swap in self._swapped.items()
            }
            watching = [signature_label(sig) for sig in self._watch]
            pinned = [signature_label(sig) for sig in self._pinned]
            decisions = [decision.to_dict() for decision in self._decisions]
            counters = {
                "evaluations": self.shadow_evaluations,
                "would_swap": self.would_swap,
            }
            swaps = {
                "budget": self.config.swap_budget,
                "applied": self.swaps_applied,
                "confirmed": self.swaps_confirmed,
                "rolled_back": self.swaps_rolled_back,
                "budget_denied": self.budget_denied,
                "watching": watching,
                "pinned": pinned,
                "installed": swapped_labels,
            }
            errors = self.errors
            last_error = self.last_error
            unpredicted = self.unpredicted
        return {
            "mode": self.config.mode,
            "observations": observations["observations"],
            "run_observations": self.run_log.observations,
            "tracked_signatures": observations["tracked_signatures"],
            "signatures": observations["signatures"],
            "drift": self.detector.snapshot(),
            "shadow": {**counters, "decisions": decisions},
            "swaps": swaps,
            "unpredicted": unpredicted,
            "errors": errors,
            "last_error": last_error,
        }
