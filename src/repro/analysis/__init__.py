"""Analysis helpers that regenerate the paper's figures as data/tables.

* :mod:`repro.analysis.heatmap`    — Figure 5 (best band / halo heatmaps);
* :mod:`repro.analysis.speedup`    — Figures 6 and 10 (speedups over the
  simple schemes and of the autotuner vs the exhaustive optimum);
* :mod:`repro.analysis.aggregate`  — Figure 7 (best vs average runtime with
  standard deviations, grouped by dim-tsize);
* :mod:`repro.analysis.dispersion` — Figure 8 (violin-style dispersion of the
  configuration space);
* :mod:`repro.analysis.report`     — plain-text rendering of all of the
  above (this reproduction runs headless, so figures become tables);
* :mod:`repro.analysis.measured`   — the Figure 7-style predicted-vs-measured
  report for local-host profiles (``repro profile``).
"""

from repro.analysis.heatmap import HeatmapData, build_heatmap
from repro.analysis.speedup import (
    SchemeSpeedups,
    scheme_speedup_summary,
    autotune_speedup_summary,
)
from repro.analysis.aggregate import GroupStats, average_case_table
from repro.analysis.dispersion import ViolinStats, dispersion_stats
from repro.analysis.report import render_heatmap
from repro.analysis.measured import measured_report_rows, render_measured_report

__all__ = [
    "HeatmapData",
    "build_heatmap",
    "SchemeSpeedups",
    "scheme_speedup_summary",
    "autotune_speedup_summary",
    "GroupStats",
    "average_case_table",
    "ViolinStats",
    "dispersion_stats",
    "render_heatmap",
    "measured_report_rows",
    "render_measured_report",
]
