"""The simulated platform is a set of counters: pin them and check their sums.

``BandRunner`` emulates the GPU band functionally and counts the operations
a real harness would enqueue; the cost model charges time for exactly those
counts.  The golden test pins every counter of the benchmark's
``paper-hybrid`` plans to the values recorded before the device-object
harness was replaced by integers; the accounting tests check that the
counters add up to what the plan says must move.
"""

import functools

import numpy as np
import pytest

from repro import ExecutionPolicy, Session
from repro.apps.registry import get_application
from repro.core.params import TunableParams
from repro.core.plan import ThreePhasePlan
from repro.runtime.band import BandRunner
from repro.runtime.compute import reference_grid

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
    assert stats == {"strategy": "hybrid", **GEOMETRY[encoding], **BYTES[app, encoding]}
    serial = session.solve(app, DIM, policy=ExecutionPolicy(backend="serial"))
    assert np.array_equal(serial.grid.values, result.grid.values)
    assert serial.matches(result)


@functools.lru_cache(maxsize=None)
def serial_grid(app: str):
    return reference_grid(get_application(app, dim=DIM).problem(DIM))


def run_band(app: str, encoding) -> tuple[ThreePhasePlan, dict, int]:
    """Run only the band of one plan, on a grid holding just the CPU prefix."""
    problem = get_application(app, dim=DIM).problem(DIM)
    tunables = TunableParams.from_encoding(*encoding).clipped(DIM)
    plan = ThreePhasePlan(problem.input_params(), tunables)
    grid = problem.make_grid()
    for d in range(plan.gpu.lo):
        grid.set_diagonal(d, serial_grid(app).get_diagonal(d))
    stats = BandRunner(problem, grid, plan, tunables).run()
    for d in range(plan.gpu.lo, plan.gpu.hi + 1):
        assert np.array_equal(grid.get_diagonal(d), serial_grid(app).get_diagonal(d))
    return plan, stats, problem.input_params().element_nbytes


def fixed_h2d_nbytes(plan: ThreePhasePlan, gpu_count: int) -> int:
    """Offload share plus the (2, longest band diagonal) float64 boundary, per device."""
    boundary = 2 * max(plan.gpu_diagonal_lengths()) * 8
    return gpu_count * (plan.offload_nbytes() // gpu_count + boundary)


@pytest.mark.parametrize("app", ["synthetic", "nash-equilibrium"])
class TestCounterAccounting:
    def test_single_gpu_moves_the_band_once_and_never_swaps(self, app):
        plan, stats, elem = run_band(app, SINGLE_GPU)
        assert stats["halo_swaps"] == 0 and stats["redundant_cells"] == 0
        assert stats["kernel_launches"] == stats["band_diagonals"]
        assert stats["bytes_d2h"] == stats["band_cells"] * elem
        assert stats["bytes_h2d"] == fixed_h2d_nbytes(plan, 1)
        # start-up, boundary + offload in, one launch per diagonal, results out
        assert stats["events"] == 1 + 2 + stats["kernel_launches"] + 1

    def test_dual_gpu_halo_traffic_is_all_that_exceeds_the_plan(self, app):
        plan, stats, elem = run_band(app, DUAL_GPU_HALO)
        assert stats["kernel_launches"] == stats["band_diagonals"] * 2
        halo_out = stats["bytes_d2h"] - stats["band_cells"] * elem
        halo_in = stats["bytes_h2d"] - fixed_h2d_nbytes(plan, 2)
        # Every owned segment a device sends out is forwarded to the other one.
        assert halo_out == halo_in > 0
        # A swap exchanges the previous two diagonals, each at most once.
        longest = max(plan.gpu_diagonal_lengths())
        assert elem <= halo_out <= stats["halo_swaps"] * 2 * longest * elem

    def test_wider_halo_trades_swaps_for_redundant_cells(self, app):
        _, narrow, _ = run_band(app, DUAL_GPU_HALO)
        _, wide, _ = run_band(app, (4, DIM - 64, 8, 1))
        assert wide["halo_swaps"] < narrow["halo_swaps"]
        assert wide["redundant_cells"] > narrow["redundant_cells"]
        assert wide["bytes_d2h"] < narrow["bytes_d2h"]
