"""The simulated platform is a set of counters: pin them and check their sums.

``band_counters`` counts the operations a real harness would enqueue for the
GPU band, from the plan alone (the per-diagonal device emulation it closes
is ``tests/band_oracle.py``; ``tests/property/test_plan_exactness.py`` holds
the two equal); the cost model charges time for exactly those counts.  Three
layers of pinning:

* ``test_paper_hybrid_stats_are_pinned`` holds every counter of the
  benchmark's ``paper-hybrid`` plans to the values recorded before the
  device-object harness was replaced by integers;
* ``data/band_counters_golden.json`` holds the counters of 768 plans x 2
  element sizes as the value-carrying emulation (``BandRunner``, deleted by
  the same change that added the fixture) reported them.  It was generated
  at that change's parent commit with::

      COLUMNS = ["kernel_launches", "halo_swaps", "band_diagonals", "band_cells",
                 "redundant_cells", "bytes_h2d", "bytes_d2h", "devices_initialised", "events"]
      entries = {}
      for app in ("synthetic", "nash-equilibrium"):
          for dim in (5, 8, 17, 32, 48, 96):
              problem = get_application(app, dim=dim).problem(dim)
              serial = reference_grid(problem)
              bands = (0, 1, 2, 3, dim // 4, dim // 2, dim - 8, dim - 2, dim - 1)
              for band in sorted({b for b in bands if b >= 0}):
                  for halo in (-1, 0, 1, 2, 3, 4, 8, 16):
                      for cpu_tile in (1, 4):
                          tunables = TunableParams.from_encoding(cpu_tile, band, halo, 1).clipped(dim)
                          plan = ThreePhasePlan(problem.input_params(), tunables)
                          grid = problem.make_grid()
                          for d in range(plan.gpu.lo):
                              grid.set_diagonal(d, serial.get_diagonal(d))
                          stats = BandRunner(problem, grid, plan, tunables).run()
                          assert list(stats) == COLUMNS
                          entries[f"{app}/{dim}/{band}/{halo}/{cpu_tile}"] = list(stats.values())

  and written as ``{"columns": COLUMNS, "entries": entries}``;
* the accounting tests check that the counters add up to what the plan says
  must move, and the audit tests that the cost model's closed-form swap and
  redundancy counts never fall below the emulation's.

The band's *values* are the hybrid executor's business: filled through
every available engine of the registry it must reproduce the serial grid
and witness on the ``paper-hybrid`` plans.
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro import ExecutionPolicy, Session
from repro.apps.registry import get_application
from repro.core.params import InputParams, TunableParams
from repro.core.partition import count_halo_swaps, redundant_cells_for_band
from repro.core.plan import ThreePhasePlan
from repro.hardware.platforms import get_system
from repro.runtime.band import band_counters
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.registry import available_executors, engines_with
from repro.runtime.serial import SerialExecutor

DIM = 96

#: (cpu_tile, band, halo, gpu_tile) encodings of the ``paper-hybrid``
#: benchmark workload at ``DIM``.
SINGLE_GPU = (4, DIM - 64, -1, 1)
DUAL_GPU_HALO = (4, DIM - 64, 2, 1)
DUAL_GPU_TILED = (8, DIM // 2, 4, 4)

#: Phase and operation counts shared by both applications (they depend on
#: the plan's geometry only) ...
GEOMETRY = {
    SINGLE_GPU: dict(
        kernel_launches=65, halo_swaps=0, band_diagonals=65, band_cells=5184,
        redundant_cells=0, devices_initialised=1, events=69,
        phase1_cells=2016, phase3_cells=2016,
    ),
    DUAL_GPU_HALO: dict(
        kernel_launches=130, halo_swaps=12, band_diagonals=65, band_cells=5184,
        redundant_cells=130, devices_initialised=2, events=246,
        phase1_cells=2016, phase3_cells=2016,
    ),
    DUAL_GPU_TILED: dict(
        kernel_launches=194, halo_swaps=10, band_diagonals=97, band_cells=6960,
        redundant_cells=395, devices_initialised=2, events=292,
        phase1_cells=1128, phase3_cells=1128,
    ),
}
#: ... and the transfer volumes, which scale with the element size.
BYTES = {
    ("synthetic", SINGLE_GPU): dict(bytes_h2d=86480, bytes_d2h=82944),
    ("synthetic", DUAL_GPU_HALO): dict(bytes_h2d=119120, bytes_d2h=114048),
    ("synthetic", DUAL_GPU_TILED): dict(bytes_h2d=139440, bytes_d2h=134880),
    ("nash-equilibrium", SINGLE_GPU): dict(bytes_h2d=213896, bytes_d2h=207360),
    ("nash-equilibrium", DUAL_GPU_HALO): dict(bytes_h2d=293192, bytes_d2h=285120),
    ("nash-equilibrium", DUAL_GPU_TILED): dict(bytes_h2d=343992, bytes_d2h=337200),
}


@pytest.fixture(scope="module")
def session():
    with Session(system="i7-2600K") as session:
        yield session


@pytest.mark.parametrize("app,encoding", sorted(BYTES), ids=lambda v: str(v))
def test_paper_hybrid_stats_are_pinned(session, app, encoding):
    policy = ExecutionPolicy(tunables=TunableParams.from_encoding(*encoding))
    result = session.solve(app, DIM, policy=policy)
    stats = dict(result.stats)
    del stats["plan"]  # the human-readable description
    del stats["fused_kernel"], stats["traversal"]  # the fill engine's own business
    assert stats == {
        "strategy": "hybrid", "engine": "vectorized", "cells_computed": DIM * DIM,
        **GEOMETRY[encoding], **BYTES[app, encoding],
    }
    serial = session.solve(app, DIM, policy=ExecutionPolicy(backend="serial"))
    assert np.array_equal(serial.grid.values, result.grid.values)
    assert serial.matches(result)


@functools.lru_cache(maxsize=None)
def input_params(app: str, dim: int) -> InputParams:
    return get_application(app, dim=dim).problem(dim).input_params()


def counters(app: str, dim: int, encoding) -> tuple[ThreePhasePlan, dict]:
    """The band counters of one plan, as the hybrid executor derives them."""
    params = input_params(app, dim)
    tunables = TunableParams.from_encoding(*encoding).clipped(dim)
    plan = ThreePhasePlan(params, tunables)
    return plan, band_counters(plan)


# Generated from the registry: a new engine cannot forget to fill the band.
@pytest.mark.parametrize("engine", sorted(set(available_executors()) - {"hybrid"}))
@pytest.mark.parametrize("app,encoding", sorted(BYTES), ids=lambda v: str(v))
def test_every_engine_computes_the_band_like_serial(app, encoding, engine):
    system = get_system("i7-2600K")
    problem = get_application(app, dim=DIM).problem(DIM)
    serial = SerialExecutor(system).execute(problem)
    engine_kwargs = {"workers": 2} if engine in engines_with("multicore") else {}
    hybrid = HybridExecutor(system, engine=engine, **engine_kwargs).execute(
        problem, TunableParams.from_encoding(*encoding)
    )
    assert hybrid.stats["engine"] == engine
    assert hybrid.stats["band_cells"] == GEOMETRY[encoding]["band_cells"]
    assert np.array_equal(serial.grid.values, hybrid.grid.values)
    assert serial.witness == hybrid.witness
    assert serial.matches(hybrid)


# ----------------------------------------------------------------------
# The parent-generated fixture
# ----------------------------------------------------------------------
GOLDEN = json.loads((Path(__file__).parent / "data" / "band_counters_golden.json").read_text())


def golden_plans(app: str, dim: int) -> list[tuple[tuple, dict]]:
    """``(encoding, expected stats)`` of the fixture's entries for one app and dim."""
    plans = []
    for key, row in GOLDEN["entries"].items():
        name, *numbers = key.split("/")
        entry_dim, band, halo, cpu_tile = map(int, numbers)
        if (name, entry_dim) == (app, dim):
            plans.append(((cpu_tile, band, halo, 1), dict(zip(GOLDEN["columns"], row))))
    assert plans
    return plans


@pytest.mark.parametrize("dim", [5, 8, 17, 32, 48, 96])
@pytest.mark.parametrize("app", ["synthetic", "nash-equilibrium"])
def test_band_counters_equal_the_value_carrying_emulation(app, dim):
    for encoding, expected in golden_plans(app, dim):
        _, stats = counters(app, dim, encoding)
        assert stats == expected, (app, dim, encoding)
        assert list(stats) == GOLDEN["columns"]


@pytest.mark.parametrize("dim", [5, 8, 17, 32, 48, 96])
def test_cost_model_never_undercounts_swaps_or_redundancy(dim):
    """The closed forms the model charges are upper bounds of the emulation.

    They assume a swap every ``halo`` diagonals and a full halo on every
    diagonal; the emulation swaps only when an owned cell would go stale,
    and a device's valid interval shrinks between swaps.  docs/tuning.md
    records the size of the gap.
    """
    audited = 0
    for encoding, _ in golden_plans("synthetic", dim):
        plan, stats = counters("synthetic", dim, encoding)
        if stats["devices_initialised"] != 2:
            continue
        lengths, halo = plan.gpu_diagonal_lengths(), plan.tunables.halo
        assert stats["halo_swaps"] <= count_halo_swaps(len(lengths), halo), encoding
        assert stats["redundant_cells"] <= redundant_cells_for_band(lengths, 2, halo), encoding
        audited += 1
    assert audited > 0


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def fixed_h2d_nbytes(plan: ThreePhasePlan, gpu_count: int) -> int:
    """Offload share plus the (2, longest band diagonal) float64 boundary, per device."""
    boundary = 2 * max(plan.gpu_diagonal_lengths()) * 8
    return gpu_count * (plan.offload_nbytes() // gpu_count + boundary)


@pytest.mark.parametrize("app", ["synthetic", "nash-equilibrium"])
class TestCounterAccounting:
    def test_single_gpu_moves_the_band_once_and_never_swaps(self, app):
        plan, stats = counters(app, DIM, SINGLE_GPU)
        elem = input_params(app, DIM).element_nbytes
        assert stats["halo_swaps"] == 0 and stats["redundant_cells"] == 0
        assert stats["kernel_launches"] == stats["band_diagonals"]
        assert stats["bytes_d2h"] == stats["band_cells"] * elem
        assert stats["bytes_h2d"] == fixed_h2d_nbytes(plan, 1)
        # start-up, boundary + offload in, one launch per diagonal, results out
        assert stats["events"] == 1 + 2 + stats["kernel_launches"] + 1

    def test_dual_gpu_halo_traffic_is_all_that_exceeds_the_plan(self, app):
        plan, stats = counters(app, DIM, DUAL_GPU_HALO)
        elem = input_params(app, DIM).element_nbytes
        assert stats["kernel_launches"] == stats["band_diagonals"] * 2
        halo_out = stats["bytes_d2h"] - stats["band_cells"] * elem
        halo_in = stats["bytes_h2d"] - fixed_h2d_nbytes(plan, 2)
        # Every owned segment a device sends out is forwarded to the other one.
        assert halo_out == halo_in > 0
        # A swap exchanges the previous two diagonals, each at most once.
        longest = max(plan.gpu_diagonal_lengths())
        assert elem <= halo_out <= stats["halo_swaps"] * 2 * longest * elem

    def test_wider_halo_trades_swaps_for_redundant_cells(self, app):
        _, narrow = counters(app, DIM, DUAL_GPU_HALO)
        _, wide = counters(app, DIM, (4, DIM - 64, 8, 1))
        assert wide["halo_swaps"] < narrow["halo_swaps"]
        assert wide["redundant_cells"] > narrow["redundant_cells"]
        assert wide["bytes_d2h"] < narrow["bytes_d2h"]
