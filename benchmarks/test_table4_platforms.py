"""Table 4 — the experimental systems.

Regenerates the platform table and measures the cost-model evaluation rate on
each platform (predictions per second is what makes exhaustive search and
training tractable).
"""

import pytest

from repro.core.params import InputParams, TunableParams
from repro.hardware.costmodel import CostModel
from repro.utils.tables import format_table

from benchmarks._common import write_result


def test_table4_system_inventory(systems):
    def build_rows():
        rows = []
        for s in systems:
            gpu_names = ", ".join(sorted({g.name for g in s.gpus}))
            rows.append(
                [
                    s.name,
                    f"{s.cpu.freq_mhz:.0f}",
                    s.cpu.cores,
                    f"{s.cpu.mem_gb:g}",
                    f"{len(s.gpus)}x {gpu_names}",
                    f"{s.gpu(0).freq_mhz:.0f}",
                    s.gpu(0).compute_units,
                    f"{s.gpu(0).mem_gb:g}",
                ]
            )
        return rows

    rows = build_rows()
    text = format_table(
        ["system", "CPU MHz", "cores(HT)", "mem GB", "GPUs", "GPU MHz", "CU", "GPU GB"],
        rows,
        title="Table 4 — experimental systems",
    )
    write_result("table4_platforms.txt", text)
    assert len(rows) == 3


@pytest.mark.parametrize("system_index", [0, 1, 2], ids=["i3-540", "i7-2600K", "i7-3820"])
def test_table4_costmodel_throughput(systems, system_index):
    """Predictions/second of the analytic model on each platform description."""
    system = systems[system_index]
    model = CostModel(system)
    params = InputParams(dim=1900, tsize=750, dsize=1)
    halo = 0 if system.max_usable_gpus >= 2 else -1
    config = TunableParams.from_encoding(8, 900, halo, 1)

    rtime = model.predict(params, config)
    assert rtime > 0
