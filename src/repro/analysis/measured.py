"""Predicted-vs-measured report for the local-host profile (Figure 7 style).

Figure 7 of the paper contrasts the *best* exhaustively-searched runtime of
each instance with the *average* across the configuration space — the gap
that makes tuning worthwhile — and the tuned configuration's position inside
it.  This module renders the same story for a measured local-host profile
(:mod:`repro.autotuner.measured`): per profiled instance, the measured best,
the measured average case, the runtime of the plan the measured tuner
selects, and the cost model's prediction for the same instance, so the
"analytic model vs. this machine" gap is visible in one table.

Written to ``benchmarks/results/local_profile_report.txt`` by the CLI's
``repro profile`` verb.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.analysis.report import render_table
from repro.autotuner.measured import MeasuredProfile, MeasuredTuner
from repro.hardware.costmodel import CostModel
from repro.hardware.system import SystemSpec

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
    "tuned backend",
    "tuned [ms]",
    "tuned/best",
    "model [ms]",
)


def measured_report_rows(
    profile: MeasuredProfile,
    tuner: MeasuredTuner,
    system: SystemSpec | None = None,
) -> list[list[object]]:
    """One row per profiled instance (see :data:`MEASURED_REPORT_HEADERS`).

    ``tuned [ms]`` is the *measured* wall of the configuration the tuner
    selects for the instance; ``model [ms]`` is the profile-calibrated cost
    model's prediction for the tuned backend, so the last two columns are
    the predicted-vs-measured gap.
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
        plan = tuner.tune(app, params.dim)
        predicted_ms = ""
        if model is not None:
            predicted_ms = (
                model.cpu_backend_time(
                    plan.backend,
                    params,
                    cpu_tile=plan.tunables.cpu_tile,
                    workers=plan.workers,
                )
                * 1e3
            )
        rows.append(
            [
                app,
                params.dim,
                params.tsize,
                params.dsize,
                len(records),
                f"{best.backend}/t{best.tunables.cpu_tile}",
                best.wall_s * 1e3,
                float(walls.mean()) * 1e3,
                f"{plan.backend}/t{plan.tunables.cpu_tile}",
                plan.expected_s * 1e3,
                plan.expected_s / best.wall_s if best.wall_s > 0 else float("inf"),
                predicted_ms,
            ]
        )
    return rows


def render_measured_report(
    profile: MeasuredProfile,
    tuner: MeasuredTuner,
    system: SystemSpec | None = None,
) -> str:
    """The full Figure 7-style text report for one measured profile."""
    rows = measured_report_rows(profile, tuner, system)
    tuned_over_best = np.array([float(r[10]) for r in rows])
    avg_over_best = np.array([float(r[7]) / float(r[6]) for r in rows])
    host = profile.host
    title = (
        f"Measured profile — system {profile.system} "
        f"({host.get('cpu', '?')}, {host.get('cores', '?')} cores), "
        f"{len(profile)} records over {len(rows)} instances"
    )
    table = render_table(MEASURED_REPORT_HEADERS, rows, title=title, float_fmt=".3f")
    summary = [
        "",
        f"average-case gap (avg/best): {avg_over_best.mean():.2f}x "
        f"(max {avg_over_best.max():.2f}x) — what tuning is worth on this host",
        f"tuned-plan efficiency (tuned/best): mean {tuned_over_best.mean():.3f}, "
        f"worst {tuned_over_best.max():.3f} (1.0 = measured optimum)",
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


def write_measured_report(
    path: str | Path,
    profile: MeasuredProfile,
    tuner: MeasuredTuner,
    system: SystemSpec | None = None,
) -> Path:
    """Render and write the report; parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_measured_report(profile, tuner, system), encoding="utf-8")
    return path
