"""Online observation of served traffic: is each plan still telling the truth?

The offline story (profile → train → tune) assumes the host at serving
time behaves like the host at profiling time.  This package drops that
assumption: served requests become streaming observations in the
server's one per-signature table, the one ``/metrics`` renders
(:mod:`~repro.adaptive.observations`); a calibrated detector decides when
a signature's latency no longer matches its own baseline
(:mod:`~repro.adaptive.drift`, thresholds as module constants); a
controller ties the steps together (:mod:`~repro.adaptive.controller`).
The loop observes and reports; it never changes the plan traffic runs.
``repro serve --adaptive {off,on}`` turns it off or on; ``repro report
--kind adaptive`` renders it (:mod:`~repro.adaptive.report`).

Import direction: the serving layer imports this package; nothing here
imports ``repro.server`` or the tuners.
"""

from repro.adaptive.controller import ADAPTIVE_MODES, AdaptiveController
from repro.adaptive.drift import DriftDetector, DriftEvent
from repro.adaptive.observations import ObservationLog, SignatureStats
from repro.adaptive.report import render_adaptive_report

__all__ = [
    "ADAPTIVE_MODES",
    "AdaptiveController",
    "DriftDetector",
    "DriftEvent",
    "ObservationLog",
    "SignatureStats",
    "render_adaptive_report",
]
