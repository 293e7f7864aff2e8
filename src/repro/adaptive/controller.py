"""The adaptive control loop: observe → detect drift → report.

:class:`AdaptiveController` is the one stateful object tying the layer
together.  The serving path feeds it one service-time observation per
answered solve (:meth:`AdaptiveController.observe`), keyed by the
signature the request was admitted under, and everything downstream is
derived:

* every observation updates the per-signature streaming statistics
  (:mod:`repro.adaptive.observations`), with the executed plan's
  ``expected_s`` written beside them when the plan has one;
* every functional-mode execution is assessed by the calibrated
  :class:`~repro.adaptive.drift.DriftDetector`, which judges against its
  own observed baseline, so a plan without a prediction (the ``local``
  rule's) is watched like any other.

The loop observes and reports; it never changes the plan traffic runs.
``on`` mode (the default) runs it; ``off`` builds no controller at all.
Internal failures never reach the serving path: :meth:`observe` traps them
into an ``errors`` counter that CI gates at zero.
"""

from __future__ import annotations

import threading

from repro.adaptive.drift import DriftConfig, DriftDetector
from repro.adaptive.observations import ObservationLog
from repro.cache.keys import RequestIdentity

#: The ``--adaptive`` settings the serving layer understands.
ADAPTIVE_MODES = ("off", "on")


class AdaptiveController:
    """Owner of the whole online observation loop for one serving stack.

    ``drift`` parameterises the detector (defaults: :class:`DriftConfig`).
    The error counters are guarded by one lock.  The controller plans
    nothing: the caller hands it the prediction of the plan that ran.
    """

    def __init__(self, drift: DriftConfig | None = None) -> None:
        self.serve_log = ObservationLog()
        self.detector = DriftDetector(drift)
        self._lock = threading.Lock()
        self.errors = 0
        self.last_error: str | None = None

    def observe(
        self,
        signature: RequestIdentity,
        expected_s: float | None,
        service_s: float,
    ) -> None:
        """Fold one answered request's service time into the loop.

        Called by the server once per answered solve with the request's
        admitted signature (mode filled in), the ``expected_s`` of the plan
        the session ran for it (``None`` when that plan predicts nothing)
        and the wall time spent executing (the wait for the run lock
        excluded, so bursty arrivals cannot fake a drift).  Never raises:
        internal failures land in the ``errors`` counter.
        """
        stats = self.serve_log.record(signature, service_s)
        if signature.mode != "functional":
            return
        try:
            if expected_s is not None:
                stats.expected_s = expected_s
            self.detector.assess(signature, service_s, expected_s)
        except Exception as error:  # noqa: BLE001 - must never break serving
            with self._lock:
                self.errors += 1
                self.last_error = f"{type(error).__name__}: {error}"

    def snapshot(self) -> dict:
        """JSON-safe state of the whole loop for ``/metrics`` and reports."""
        observations = self.serve_log.snapshot()
        with self._lock:
            errors = self.errors
            last_error = self.last_error
        return {
            "mode": "on",
            "observations": observations["observations"],
            "tracked_signatures": observations["tracked_signatures"],
            "signatures": observations["signatures"],
            "drift": self.detector.snapshot(),
            "errors": errors,
            "last_error": last_error,
        }
