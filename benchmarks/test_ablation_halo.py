"""Ablation — halo size vs swap count (Section 2.1).

Reproduces the dual-GPU halo trade-off directly from the cost model and from
the emulated band's operation counts: a larger halo reduces the
number of halo swaps (less communication) at the price of redundant
computation, so the optimal halo shrinks as task granularity grows.
"""

import pytest

from repro.core.params import InputParams, TunableParams
from repro.core.plan import ThreePhasePlan
from repro.hardware.costmodel import CostModel
from repro.runtime.band import band_counters
from repro.utils.tables import format_table

from benchmarks._common import write_result

HALOS = (0, 2, 8, 30, 120)


def test_optimal_halo_shrinks_with_granularity(benchmark, systems):
    system = systems[2]  # i7-3820, dual Tesla
    model = CostModel(system)

    def best_halo_by_tsize():
        out = []
        for tsize in (50, 500, 4000, 12000):
            params = InputParams(dim=1900, tsize=tsize, dsize=1)
            rtimes = {
                halo: model.predict(params, TunableParams.from_encoding(8, 1200, halo, 1))
                for halo in HALOS
            }
            best = min(rtimes, key=rtimes.get)
            out.append([tsize, best] + [rtimes[h] for h in HALOS])
        return out

    rows = benchmark(best_halo_by_tsize)
    write_result(
        "ablation_halo_tradeoff.txt",
        format_table(
            ["tsize", "best halo"] + [f"rtime halo={h}" for h in HALOS],
            rows,
            title="Halo ablation — i7-3820, dim=1900, band=1200, dual GPU",
            float_fmt=".3f",
        ),
    )
    best_halos = [r[1] for r in rows]
    # The optimal halo is (weakly) non-increasing as granularity grows.
    assert all(a >= b for a, b in zip(best_halos, best_halos[1:]))
    assert best_halos[0] > best_halos[-1] or best_halos[0] > 0


def test_functional_swap_counts_match_halo(benchmark):
    """The emulated band's swap counts fall as the halo grows."""
    params = InputParams(dim=40, tsize=50, dsize=1)

    def run_with_halo(halo: int) -> int:
        tunables = TunableParams.from_encoding(4, 12, halo, 1).clipped(params.dim)
        return band_counters(ThreePhasePlan(params, tunables))["halo_swaps"]

    def sweep():
        return {halo: run_with_halo(halo) for halo in (0, 1, 3, 6)}

    swaps = benchmark(sweep)
    write_result(
        "ablation_halo_swap_counts.txt",
        "\n".join(f"halo={h}: swaps={s}" for h, s in swaps.items()),
    )
    values = list(swaps.values())
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert swaps[0] > swaps[6]
