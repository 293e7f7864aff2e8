"""Figure 8 — dispersion (violin statistics) of the configuration space.

The paper shows violins for dim=700 and dim=2700 on the i7-2600K; the reduced
bench space uses its nearest sampled problem sizes.  Checks the two
observations: small/fine instances cluster around the median with the best
point far below it, while large/coarse instances have a "flat base" (many
configurations near the optimum) — and picking the worst configuration is
costly in every case.
"""

import numpy as np
import pytest

from repro.analysis.dispersion import dispersion_stats
from repro.utils.tables import format_table

from benchmarks._common import write_result


def _nearest(values, target):
    values = sorted(set(values))
    return min(values, key=lambda v: abs(v - target))


@pytest.mark.parametrize("dsize", [1, 5])
def test_fig8_violin_statistics(sweeps, space, dsize):
    results = sweeps["i7-2600K"]
    small_dim = _nearest(space.dims, 700)
    large_dim = _nearest(space.dims, 2700)
    instances = [
        p
        for p in results.instances()
        if p.dsize == dsize and p.dim in (small_dim, large_dim)
    ]

    def build():
        return [dispersion_stats(results, p) for p in instances]

    stats = build()
    table = format_table(
        ["dim", "tsize", "dsize", "configs", "min", "q1", "median", "q3", "max"],
        [s.as_row() for s in stats],
        title=f"Figure 8 — i7-2600K configuration dispersion, dsize={dsize} (seconds)",
        float_fmt=".3f",
    )
    write_result(f"fig8_dispersion_dsize{dsize}.txt", table)

    assert stats
    for s in stats:
        assert s.minimum <= s.median <= s.maximum
    # Picking badly is costly: the worst configuration of the coarse-grained
    # large instances is several times slower than the best one.
    coarse = [s for s in stats if s.dim == large_dim and s.tsize >= 2000]
    assert any(s.maximum > 2.0 * s.minimum for s in coarse)


def test_fig8_relative_spread_shrinks_for_large_coarse_instances(sweeps, space):
    """Figure 7/8: the ber-to-average gap narrows for the big dsize=5 groups."""
    results = sweeps["i7-2600K"]
    small_dim = _nearest(space.dims, 700)
    large_dim = _nearest(space.dims, 2700)
    coarse_tsize = max(space.tsizes)

    def gaps():
        out = {}
        for dim in (small_dim, large_dim):
            candidates = [
                p for p in results.instances() if p.dim == dim and p.dsize == 5 and p.tsize == coarse_tsize
            ]
            stats = dispersion_stats(results, candidates[0])
            out[dim] = stats.best_to_median_gap
        return out

    gap = gaps()
    write_result(
        "fig8_best_to_median_gap.txt",
        "\n".join(f"dim={k}: best-to-median gap = {v:.3f}" for k, v in gap.items()),
    )
    assert gap[large_dim] <= gap[small_dim] + 0.35
