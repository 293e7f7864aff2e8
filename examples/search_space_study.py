#!/usr/bin/env python
"""Explore the tuning search space of one platform (paper Figures 5-8).

Runs the exhaustive sweep of the synthetic application on a chosen system,
then prints the band heatmap (when does GPU offload pay off?), the
best-vs-average runtime table and the dispersion statistics of two contrasting
instances — the data behind Figures 5, 7 and 8 of the paper.

Run:  python examples/search_space_study.py [system-name]
      (system-name is one of: i3-540, i7-2600K, i7-3820; default i7-2600K)
"""

from __future__ import annotations

import sys

from repro.analysis.aggregate import average_case_table
from repro.analysis.dispersion import dispersion_stats
from repro.analysis.heatmap import build_heatmap
from repro.analysis.report import render_heatmap
from repro.autotuner.exhaustive import ExhaustiveSearch
from repro.core.parameter_space import ParameterSpace
from repro.hardware import platforms
from repro.utils.tables import format_table


def main() -> None:
    system_name = sys.argv[1] if len(sys.argv) > 1 else "i7-2600K"
    system = platforms.get_system(system_name)
    space = ParameterSpace.reduced()

    print(f"Sweeping the synthetic application on {system.name} ...")
    results = ExhaustiveSearch(system, space).sweep()
    print(f"  {len(results)} configuration points, {len(results.instances())} instances\n")

    # Figure 5: when does the GPU pay off?
    for dsize in (1, 5):
        print(render_heatmap(build_heatmap(results, dsize=dsize, quantity="band")))
        print()
    if system.max_usable_gpus >= 2:
        print(render_heatmap(build_heatmap(results, dsize=1, quantity="halo")))
        print()

    # Figure 7: best exhaustive runtime vs the average configuration.
    rows = average_case_table(results, dsize=1)
    print(
        format_table(
            ["dim", "tsize", "dsize", "best", "avg", "sd", "avg/best", "configs", "excluded"],
            [r.as_row() for r in rows],
            title=f"Figure 7 — best vs average runtime on {system.name} (dsize=1, seconds)",
        )
    )
    print()

    # Figure 8: dispersion of two contrasting instances.
    instances = results.instances()
    fine = min(instances, key=lambda p: (p.tsize, p.dim))
    coarse = max(instances, key=lambda p: (p.tsize, p.dim))
    print("Figure 8 — dispersion of the configuration space (seconds):")
    for params in (fine, coarse):
        stats = dispersion_stats(results, params)
        print(
            f"  dim={stats.dim} tsize={stats.tsize} dsize={stats.dsize}: "
            f"min {stats.minimum:.3f}, median {stats.median:.3f}, max {stats.maximum:.3f}, "
            f"best-to-median gap {stats.best_to_median_gap:.1%}, flat base: {stats.flat_base}"
        )


if __name__ == "__main__":
    main()
