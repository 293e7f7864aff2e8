"""Figure 5 — heatmaps of the best band and halo values.

For each system and each dsize slice (16-byte and 48-byte elements) the bench
regenerates the (dim x tsize) grid of the band / halo value at the best
exhaustive-search point, writes it to ``benchmarks/results/`` and checks the
paper's qualitative observations:

* the GPU becomes favourable (band > 0) only above a task-granularity
  threshold,
* that threshold is lower on the slow-CPU i3-540 than on the i7 systems,
* halo values shrink as task granularity grows (multi-GPU systems).
"""

import numpy as np
import pytest

from repro.analysis.heatmap import build_heatmap
from repro.analysis.report import render_heatmap

from benchmarks._common import write_result


@pytest.mark.parametrize("system_name", ["i3-540", "i7-2600K", "i7-3820"])
@pytest.mark.parametrize("dsize", [1, 5])
def test_fig5_band_heatmap(sweeps, system_name, dsize):
    results = sweeps[system_name]
    heatmap = build_heatmap(results, dsize, "band")
    write_result(f"fig5_band_{system_name}_dsize{dsize}.txt", render_heatmap(heatmap))

    # GPU offload must appear somewhere, and never for the finest granularity.
    assert np.any(heatmap.values > 0)
    finest_col = heatmap.values[:, 0]
    assert np.all(finest_col <= 0)
    # For the largest problem size, band should be monotone-ish: once the GPU
    # is used at some tsize, it stays used for larger tsize.
    row = heatmap.values[-1, :]
    used = row > 0
    if used.any():
        first = int(np.argmax(used))
        assert used[first:].all()


@pytest.mark.parametrize("system_name", ["i7-2600K", "i7-3820"])
@pytest.mark.parametrize("dsize", [1, 5])
def test_fig5_halo_heatmap(sweeps, system_name, dsize):
    results = sweeps[system_name]
    heatmap = build_heatmap(results, dsize, "halo")
    write_result(f"fig5_halo_{system_name}_dsize{dsize}.txt", render_heatmap(heatmap))
    assert np.any(heatmap.values >= 0)  # dual-GPU configurations do win somewhere


def test_fig5_i3_threshold_lower_than_i7(sweeps):
    """Paper: GPU use becomes feasible at lower tsize on the i3 than on the i7s."""

    def thresholds():
        out = {}
        for name in ("i3-540", "i7-2600K", "i7-3820"):
            hm = build_heatmap(sweeps[name], dsize=1, quantity="band")
            dim = hm.dims[-2] if len(hm.dims) > 1 else hm.dims[-1]
            out[name] = hm.gpu_threshold_tsize(dim) or float("inf")
        return out

    ts = thresholds()
    write_result(
        "fig5_gpu_thresholds.txt",
        "GPU-offload tsize thresholds (dsize=1, second-largest dim)\n"
        + "\n".join(f"{k}: {v}" for k, v in ts.items()),
    )
    assert ts["i3-540"] <= ts["i7-2600K"]
    assert ts["i3-540"] <= ts["i7-3820"]


def test_fig5_halo_shrinks_with_granularity(sweeps):
    """Paper: halo sizes are higher when tsize values are lower."""

    def halo_by_tsize():
        hm = build_heatmap(sweeps["i7-3820"], dsize=1, quantity="halo")
        row = hm.values[-1, :]
        used = row >= 0
        return row, used

    row, used = halo_by_tsize()
    if used.sum() >= 2:
        first_used = int(np.argmax(used))
        last_used = len(row) - 1 - int(np.argmax(used[::-1]))
        assert row[first_used] >= row[last_used]
