"""Figure 6 — speedup of the best exhaustive points over the simple schemes.

For each system the bench reports the average speedup of the heatmap (best)
points over (a) serial, (b) all-core CPU parallel and (c) GPU-only execution,
and checks the paper's observations: the tuned points beat every simple
scheme on average, and on the fast-CPU i7 systems the GPU-only scheme is on
average worse than the CPU-only scheme.
"""

from repro.analysis.speedup import scheme_speedup_summary
from repro.autotuner.baselines import simple_scheme_times
from repro.hardware import platforms
from repro.utils.tables import format_table

from benchmarks._common import write_result


def test_fig6_speedup_over_simple_schemes(sweeps, systems):
    def build():
        return {s.name: scheme_speedup_summary(s, sweeps[s.name]) for s in systems}

    summaries = build()

    rows = [s.as_row() for s in summaries.values()]
    text = format_table(
        ["system", "instances", "vs serial", "vs CPU-parallel", "vs GPU-only", "max vs serial"],
        rows,
        title="Figure 6 — average speedup of best exhaustive points over simple schemes",
        float_fmt=".2f",
    )
    write_result("fig6_baseline_speedup.txt", text)

    for summary in summaries.values():
        assert summary.vs_serial > 1.0
        assert summary.vs_cpu_parallel >= 1.0
        assert summary.vs_gpu_only >= 1.0
    # Headline claim neighbourhood: max speedup of order 10-25x over serial.
    assert max(s.max_vs_serial for s in summaries.values()) > 8.0


def test_fig6_gpu_only_loses_to_cpu_only_on_i7_average(sweeps):
    """Paper: "in case of the i7 systems, on average, doing everything on the
    GPU is worse than doing everything on the CPU"."""

    def average_ratio(system):
        results = sweeps[system.name]
        ratios = []
        for params in results.instances():
            schemes = simple_scheme_times(system, params)
            ratios.append(schemes.gpu_only / schemes.cpu_parallel)
        return sum(ratios) / len(ratios)

    ratio_i7 = average_ratio(platforms.I7_3820)
    write_result(
        "fig6_gpu_only_vs_cpu_only.txt",
        f"i7-3820 mean (GPU-only rtime) / (CPU-parallel rtime) = {ratio_i7:.2f}\n"
        "values > 1 mean GPU-only is worse on average, as in the paper",
    )
    assert ratio_i7 > 1.0
