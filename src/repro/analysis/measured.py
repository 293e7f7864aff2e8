"""Predicted-vs-measured report for the local-host profile (Figure 7 style).

Figure 7 of the paper contrasts the *best* exhaustively-searched runtime of
each instance with the *average* across the configuration space — the gap
that makes tuning worthwhile.  This module renders the same story for a
measured local-host profile (:mod:`repro.autotuner.measured`): per profiled
instance, the measured best engine (which is what the measured tuner plans
there), the measured average case, and the cost model's prediction for the
best engine, so the "analytic model vs. this machine" gap is visible in one
table.

Written to ``benchmarks/results/local_profile_report.txt`` by the CLI's
``repro profile`` verb.
"""

from __future__ import annotations

import numpy as np

from repro.autotuner.measured import MeasuredProfile
from repro.core.params import TunableParams
from repro.hardware.costmodel import CostModel
from repro.hardware.system import SystemSpec
from repro.utils.tables import format_table

#: Column headers of the per-instance report rows.
MEASURED_REPORT_HEADERS = (
    "app",
    "dim",
    "tsize",
    "dsize",
    "configs",
    "best backend",
    "best [ms]",
    "avg [ms]",
    "model [ms]",
)


def measured_report_rows(
    profile: MeasuredProfile, system: SystemSpec | None = None
) -> list[list[object]]:
    """One row per profiled instance (see :data:`MEASURED_REPORT_HEADERS`).

    ``model [ms]`` is the profile-calibrated cost model's prediction for the
    best backend, so the ``best [ms]`` / ``model [ms]`` pair is the
    predicted-vs-measured gap.
    """
    model = None
    if system is not None:
        model = CostModel(system, profile.calibrated_constants(system))
    rows: list[list[object]] = []
    seen: set[tuple[str, object]] = set()
    for record in profile.records:
        app, params = record.app, record.params
        if (app, params) in seen:
            continue
        seen.add((app, params))
        records = profile.records_for(params, app=app)
        best = profile.best(params, app=app)
        walls = np.array([r.wall_s for r in records])
        predicted_ms = ""
        if model is not None:
            predicted_ms = model.price(best.backend, params, TunableParams()).total_s * 1e3
        rows.append(
            [
                app,
                params.dim,
                params.tsize,
                params.dsize,
                len(records),
                best.backend,
                best.wall_s * 1e3,
                float(walls.mean()) * 1e3,
                predicted_ms,
            ]
        )
    return rows


def render_measured_report(
    profile: MeasuredProfile, system: SystemSpec | None = None
) -> str:
    """The full Figure 7-style text report for one measured profile."""
    rows = measured_report_rows(profile, system)
    avg_over_best = np.array([float(r[7]) / float(r[6]) for r in rows])
    host = profile.host
    title = (
        f"Measured profile — system {profile.system} "
        f"({host.get('cpu', '?')}, {host.get('cores', '?')} cores), "
        f"{len(profile)} records over {len(rows)} instances"
    )
    table = format_table(MEASURED_REPORT_HEADERS, rows, float_fmt=".3f", title=title)
    summary = [
        "",
        f"average-case gap (avg/best): {avg_over_best.mean():.2f}x "
        f"(max {avg_over_best.max():.2f}x) — what tuning is worth on this host",
        "",
        "model [ms] is the profile-calibrated analytic cost model on the paper's",
        "synthetic tsize scale; the functional kernels emulate tsize only",
        "approximately, so large gaps in that column for coarse-tsize apps are the",
        "factory-model-vs-field gap the measured pipeline exists to close.",
    ]
    if host.get("truncated"):
        summary.append(
            "NOTE: the profiling sweep hit its time budget and was truncated."
        )
    return table + "\n" + "\n".join(summary) + "\n"
