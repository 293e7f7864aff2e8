"""Ablation — GPU tiling (Section 4.1.1).

The paper concludes that GPU tiling (gpu-tile > 1) "was not beneficial in our
search space": it only beat the untiled GPU when communication dominated
(tsize < 50), but in exactly those cases the CPU-only implementation
dominated anyway.  This bench reproduces both halves of that argument.
"""

import numpy as np
import pytest

from repro.core.params import InputParams, TunableParams
from repro.hardware.costmodel import CostModel
from repro.utils.tables import format_table

from benchmarks._common import write_result


@pytest.mark.parametrize("system_name", ["i3-540", "i7-2600K", "i7-3820"])
def test_gpu_tiling_never_wins_overall(sweeps, system_name):
    results = sweeps[system_name]

    def best_tiles():
        return [results.best(p).tunables.gpu_tile for p in results.instances()]

    tiles = best_tiles()
    fraction_tiled = float(np.mean([t > 1 for t in tiles]))
    write_result(
        f"ablation_gpu_tiling_{system_name}.txt",
        f"fraction of instances whose best configuration uses gpu-tile > 1: {fraction_tiled:.3f}",
    )
    # GPU tiling (almost) never appears at the optimum, as in the paper.
    assert fraction_tiled <= 0.1


def test_gpu_tiling_only_helps_when_cpu_wins_anyway(systems):
    """Where tiling beats untiled GPU (tiny tsize), the CPU beats both."""
    system = systems[1]
    model = CostModel(system)

    def analyse():
        rows = []
        for tsize in (10, 30, 100, 1000, 8000):
            params = InputParams(dim=1900, tsize=tsize, dsize=1)
            untiled = model.predict(params, TunableParams.from_encoding(8, 1899, -1, 1))
            tiled = model.predict(params, TunableParams.from_encoding(8, 1899, -1, 8))
            cpu = model.baseline_cpu_parallel(params)
            rows.append([tsize, untiled, tiled, cpu, tiled < untiled, cpu < min(tiled, untiled)])
        return rows

    rows = analyse()
    write_result(
        "ablation_gpu_tiling_tradeoff.txt",
        format_table(
            ["tsize", "GPU untiled (s)", "GPU tiled (s)", "CPU parallel (s)", "tiled wins", "CPU wins"],
            rows,
            title="GPU tiling trade-off, i7-2600K, dim=1900, dsize=1",
            float_fmt=".3f",
        ),
    )
    for tsize, untiled, tiled, cpu, tiled_wins, cpu_wins in rows:
        if tiled_wins:
            # Tiling only wins where the CPU-only scheme is the true optimum.
            assert cpu_wins
        if tsize >= 1000:
            # Once computation dominates, tiling is counter-productive.
            assert not tiled_wins
