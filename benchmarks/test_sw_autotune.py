"""Section 4.2 — Smith-Waterman (biological sequence comparison) autotuning.

The paper: "For the fine grained Smith-Waterman string compare application
autotuning was trivial as the band prediction were 100% accurate, i.e. do
everything on the CPU.  Our learning model had predicted band=-1 for all
tsize<100, across our search space of dim<=3100."
"""

import pytest

from repro.apps.sequence import SW_TSIZE
from repro.core.params import InputParams
from repro.utils.tables import format_table

from benchmarks._common import write_result


@pytest.mark.parametrize("system_name", ["i3-540", "i7-2600K", "i7-3820"])
def test_sw_band_prediction_is_cpu_only(tuners, space, system_name):
    tuner = tuners[system_name]
    dims = list(space.dims)

    def predictions():
        out = []
        for dim in dims:
            params = InputParams(dim=dim, tsize=SW_TSIZE, dsize=1)
            config = tuner.tune(params)
            out.append([dim, config.band, config.gpu_count, config.cpu_tile])
        return out

    rows = predictions()
    write_result(
        f"sw_autotune_{system_name}.txt",
        format_table(
            ["dim", "predicted band", "gpu_count", "cpu_tile"],
            rows,
            title=f"Smith-Waterman predictions, {system_name} (tsize={SW_TSIZE})",
        ),
    )
    # band = -1 (no GPU) for every problem size, as in the paper.
    assert all(row[1] == -1 and row[2] == 0 for row in rows)


def test_sw_fine_grain_threshold(tuners):
    """band=-1 should hold for every tsize below 100 (the paper's statement)."""
    tuner = tuners["i7-2600K"]

    def all_cpu_below_100():
        for tsize in (0.5, 1, 5, 10, 50, 99):
            for dim in (500, 1100, 1900, 2700, 3100):
                config = tuner.tune(InputParams(dim=dim, tsize=tsize, dsize=1))
                if config.uses_gpu:
                    return False, tsize, dim
        return True, None, None

    ok, tsize, dim = all_cpu_below_100()
    write_result(
        "sw_fine_grain_threshold.txt",
        "band=-1 for all tsize<100, dim<=3100: " + ("confirmed" if ok else f"violated at tsize={tsize}, dim={dim}"),
    )
    assert ok
