"""Facade helpers behind :class:`repro.session.Session`.

The session module holds the user-facing object; the pieces it composes
live here so they can be reused (and tested) independently:

* :mod:`repro.facade.plan` — :class:`~repro.facade.plan.ResolvedPlan`, the
  inspectable, JSON-serialisable, replayable unit the session's
  plan/execute separation exchanges;
* :mod:`repro.facade.policy` — :class:`~repro.facade.policy.ExecutionPolicy`,
  the typed bundle of plan overrides (backend / engine / workers /
  tunables), the one spelling of an override;
* :mod:`repro.facade.tuners` — :func:`~repro.facade.tuners.make_tuner`,
  the one place tuner strategy names (``"learned"``, ``"measured"``,
  ``"exhaustive"``) are resolved into
  :class:`repro.autotuner.protocol.Tuner` instances.
"""

from repro.facade.plan import PLAN_FORMAT_VERSION, ResolvedPlan, load_plan, save_plan
from repro.facade.policy import ExecutionPolicy
from repro.facade.tuners import make_tuner

__all__ = [
    "ResolvedPlan",
    "PLAN_FORMAT_VERSION",
    "ExecutionPolicy",
    "save_plan",
    "load_plan",
    "make_tuner",
]
