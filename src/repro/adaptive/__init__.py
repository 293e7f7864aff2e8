"""Online adaptive tuning: close the loop from live traffic to plans.

The offline story (profile → train → tune) assumes the host at serving
time behaves like the host at profiling time.  This package drops that
assumption: served requests become streaming observations
(:mod:`~repro.adaptive.observations`), a calibrated detector decides
when a plan's prediction no longer matches reality
(:mod:`~repro.adaptive.drift`), a shadow tuner re-resolves against the
corrected evidence without touching traffic
(:mod:`~repro.adaptive.shadow`), and a controller optionally promotes
the shadow's choice to a live, rollback-guarded plan swap
(:mod:`~repro.adaptive.controller`).  ``repro serve --adaptive
{off,shadow,live}`` selects how far the loop runs; ``repro report
--kind adaptive`` renders it (:mod:`~repro.adaptive.report`).

Import direction: the serving layer imports this package; nothing here
imports ``repro.server``.
"""

from repro.adaptive.controller import (
    ADAPTIVE_MODES,
    AdaptiveConfig,
    AdaptiveController,
)
from repro.adaptive.drift import DriftConfig, DriftDetector, DriftEvent
from repro.adaptive.observations import ObservationLog, SignatureStats
from repro.adaptive.report import render_adaptive_report
from repro.adaptive.shadow import ShadowDecision, ShadowTuner

__all__ = [
    "ADAPTIVE_MODES",
    "AdaptiveConfig",
    "AdaptiveController",
    "DriftConfig",
    "DriftDetector",
    "DriftEvent",
    "ObservationLog",
    "ShadowDecision",
    "ShadowTuner",
    "SignatureStats",
    "render_adaptive_report",
]
