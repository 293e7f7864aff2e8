"""Online adaptive tuning: compare live traffic with the plans' predictions.

The offline story (profile → train → tune) assumes the host at serving
time behaves like the host at profiling time.  This package drops that
assumption: served requests become streaming observations
(:mod:`~repro.adaptive.observations`), a calibrated detector decides
when a plan's prediction no longer matches reality
(:mod:`~repro.adaptive.drift`), a shadow tuner re-resolves against the
corrected evidence without touching traffic
(:mod:`~repro.adaptive.shadow`), and a controller ties the steps
together and logs every proposal (:mod:`~repro.adaptive.controller`).
The loop observes and proposes; it never changes the plan traffic runs.
``repro serve --adaptive {off,shadow}`` turns it off or on; ``repro
report --kind adaptive`` renders it (:mod:`~repro.adaptive.report`).

Import direction: the serving layer imports this package; nothing here
imports ``repro.server``.
"""

from repro.adaptive.controller import ADAPTIVE_MODES, AdaptiveController
from repro.adaptive.drift import DriftConfig, DriftDetector, DriftEvent
from repro.adaptive.observations import ObservationLog, SignatureStats
from repro.adaptive.report import render_adaptive_report
from repro.adaptive.shadow import ShadowDecision, ShadowTuner

__all__ = [
    "ADAPTIVE_MODES",
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
