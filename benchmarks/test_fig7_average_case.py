"""Figure 7 — best exhaustive runtime vs average-case behaviour.

Regenerates, for every dim-tsize group and both element sizes, the best
exhaustive runtime (ber), the average runtime over all below-threshold
configurations and its standard deviation, per system.
"""

import math

import pytest

from repro.analysis.aggregate import average_case_table
from repro.utils.tables import format_table

from benchmarks._common import write_result


@pytest.mark.parametrize("system_name", ["i3-540", "i7-2600K", "i7-3820"])
@pytest.mark.parametrize("dsize", [1, 5])
def test_fig7_best_vs_average(sweeps, system_name, dsize):
    results = sweeps[system_name]
    rows = average_case_table(results, dsize)

    table = format_table(
        ["dim", "tsize", "dsize", "Best (ber)", "AVG", "S.D.", "AVG/Best", "configs", "excluded"],
        [r.as_row() for r in rows],
        title=f"Figure 7 — {system_name}, dsize={dsize} (seconds)",
        float_fmt=".3f",
    )
    write_result(f"fig7_average_case_{system_name}_dsize{dsize}.txt", table)

    # The paper's qualitative statements:
    # (1) the best point is meaningfully faster than the average configuration
    #     (roughly 1.5-2x for 16-byte elements on mid-size problems);
    finite = [r for r in rows if not math.isnan(r.avg_rtime)]
    assert finite
    mean_gap = sum(r.avg_over_best for r in finite) / len(finite)
    assert mean_gap > 1.2
    # (2) some of the largest/coarsest configurations exceed the 90 s
    #     threshold and are excluded from the averages.
    if dsize == 5 and system_name == "i3-540":
        assert any(r.n_excluded > 0 for r in rows)


def test_fig7_runtime_scale_matches_paper_order(sweeps):
    """The y-axis range of Figure 7 is tens of seconds for the largest groups."""

    def largest_group_best():
        results = sweeps["i3-540"]
        rows = average_case_table(results, dsize=1)
        biggest = max(rows, key=lambda r: (r.dim, r.tsize))
        return biggest.best_rtime

    ber = largest_group_best()
    write_result(
        "fig7_scale_check.txt",
        f"i3-540, largest dim/tsize group, best exhaustive runtime = {ber:.1f} s\n"
        "paper's Figure 7 shows tens of seconds for the same corner",
    )
    assert 5.0 < ber < 90.0
