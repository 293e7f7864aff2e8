"""The adaptive control loop over a server's signature table.

:class:`AdaptiveController` works on the table ``/metrics`` renders
(:class:`~repro.adaptive.observations.ObservationLog`): the server hands
it the entry each answered solve's completion returned, with the solve's
service time.  Every observation updates the entry's service-time stream,
with the executed plan's ``expected_s`` beside it when the plan has one;
every functional-mode execution is assessed by the calibrated
:class:`~repro.adaptive.drift.DriftDetector` against the entry's own
baseline, so a plan without a prediction (the ``local`` rule's) is
watched like any other.  Internal failures never reach the serving path:
they land in an ``errors`` counter that CI gates at zero.
"""

from __future__ import annotations

import threading

from repro.adaptive.drift import DriftDetector
from repro.adaptive.observations import ObservationLog, SignatureEntry, SignatureStats

#: The ``--adaptive`` settings the serving layer understands.
ADAPTIVE_MODES = ("off", "on")


class AdaptiveController:
    """Owner of the online observation loop over one signature table.

    One lock guards everything the loop writes: its counters, each
    entry's service stream and drift state, and the detector.
    """

    def __init__(self, table: ObservationLog) -> None:
        self.table = table
        self.detector = DriftDetector()
        self._lock = threading.Lock()
        self.observations = 0
        self.errors = 0
        self.last_error: str | None = None

    def observe(
        self, entry: SignatureEntry, expected_s: float | None, service_s: float
    ) -> None:
        """Fold one answered request's service time into the loop.

        ``entry`` is the request's table entry, ``expected_s`` the
        prediction of the plan the session ran (``None`` when it has none)
        and ``service_s`` the wall time spent executing (the wait for the
        run lock excluded, so bursty arrivals cannot fake a drift).  Never
        raises: internal failures land in the ``errors`` counter.
        """
        try:
            with self._lock:
                self.observations += 1
                if entry.service is None:
                    entry.service = SignatureStats()
                entry.service.record(service_s)
                if entry.signature.mode != "functional":
                    return
                if expected_s is not None:
                    entry.service.expected_s = expected_s
                self.detector.assess(entry, service_s, expected_s)
        except Exception as error:  # noqa: BLE001 - must never break serving
            with self._lock:
                self.errors += 1
                self.last_error = f"{type(error).__name__}: {error}"

    def snapshot(self) -> dict:
        """JSON-safe state of the loop for ``/metrics`` and reports.

        ``signatures`` covers every entry with a service observation, most
        recently updated first.
        """
        observed = [entry for entry in self.table.entries() if entry.service is not None]
        signatures = {entry.signature.label: entry.service.snapshot() for entry in observed}
        with self._lock:
            return {
                "mode": "on",
                "observations": self.observations,
                "tracked_signatures": len(observed),
                "signatures": signatures,
                "drift": self.detector.snapshot(observed),
                "errors": self.errors,
                "last_error": self.last_error,
            }
