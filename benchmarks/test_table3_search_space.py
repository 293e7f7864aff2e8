"""Table 3 — the tuning parameter space.

Regenerates the parameter ranges and measures how quickly the configuration
generator enumerates one instance's search space (the quantity that bounds
the exhaustive-search cost).
"""

from repro.autotuner.search_space import SearchSpace
from repro.core.params import InputParams
from repro.utils.tables import format_table

from benchmarks._common import write_result


def test_table3_parameter_ranges(space, systems):
    system = systems[1]  # i7-2600K, the richest system (dual GPU usable)
    search = SearchSpace(space, system)
    instance = InputParams(dim=space.dims[-1], tsize=space.tsizes[-1], dsize=space.dsizes[-1])

    configs = search.configurations(instance)

    info = search.describe()
    rows = [[k, str(v)] for k, v in sorted(info.items())]
    rows.append(["configurations for largest instance", str(len(configs))])
    text = format_table(["parameter", "range / value"], rows, title="Table 3 — parameter space")
    write_result("table3_search_space.txt", text)
    assert len(configs) > 10


def test_table3_per_system_space_size(space, systems):
    def sizes():
        return {s.name: SearchSpace(space, s).size_estimate() for s in systems}

    estimate = sizes()
    rows = [[name, value] for name, value in estimate.items()]
    write_result(
        "table3_space_sizes.txt",
        format_table(["system", "points in sweep"], rows, title="Sweep sizes per system"),
    )
    # The single-GPU i3 explores a smaller space than the dual-GPU systems.
    assert estimate["i3-540"] < estimate["i7-2600K"]
