"""Text report of the adaptive loop: predicted vs observed, and drift.

Renders the ``"adaptive"`` section of a ``/metrics`` snapshot (or of a
``scripts/loadgen.py`` artifact's final server metrics) as the fig9-style
table ``repro report --kind adaptive`` prints: one row per observed
signature with the plan's predicted latency (a dash when the plan has
none, as the ``local`` rule's does), the observed mean/p95, and the drift
detector's counters below.
"""

from __future__ import annotations


def _ms(value: float | None) -> str:
    """Milliseconds with two decimals, or a dash for unknowns."""
    return f"{value:.2f}" if value is not None else "-"


def render_adaptive_report(adaptive: dict | None, delta: dict | None = None) -> str:
    """The full ``repro report --kind adaptive`` text for one snapshot.

    ``adaptive`` is the server's ``/metrics`` ``"adaptive"`` section
    (``None`` when the server ran with ``--adaptive off``); ``delta`` —
    when given — is a ``scripts/loadgen.py`` artifact's per-run adaptive
    counter delta, appended as a summary line.
    """
    if not isinstance(adaptive, dict):
        return "adaptive tuning: off (no adaptive section in the metrics)"
    lines: list[str] = []
    lines.append(
        f"adaptive tuning [{adaptive.get('mode', '?')}]: "
        f"{adaptive.get('observations', 0)} served observations over "
        f"{adaptive.get('tracked_signatures', 0)} signatures"
    )
    signatures = adaptive.get("signatures") or {}
    if signatures:
        width = max(len("signature"), max(len(label) for label in signatures))
        header = (
            f"{'signature':<{width}} {'predicted':>10} {'observed':>10} "
            f"{'p95':>10} {'n':>5}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for label, stats in signatures.items():
            lines.append(
                f"{label:<{width}} {_ms(stats.get('expected_ms')):>10} "
                f"{_ms(stats.get('mean_ms')):>10} {_ms(stats.get('p95_ms')):>10} "
                f"{stats.get('count', 0):>5}"
            )
    drift = adaptive.get("drift") or {}
    lines.append(
        f"drift: {drift.get('events', 0)} events "
        f"({drift.get('active', 0)} active, "
        f"{drift.get('recoveries', 0)} recoveries) over "
        f"{drift.get('assessments', 0)} assessments"
    )
    if adaptive.get("errors"):
        lines.append(
            f"ERRORS: {adaptive['errors']} internal failures "
            f"(last: {adaptive.get('last_error')})"
        )
    if isinstance(delta, dict):
        lines.append(
            "this run: "
            f"+{delta.get('observations', 0)} observations, "
            f"+{delta.get('drift_events', 0)} drift events"
        )
    return "\n".join(lines)
