"""Calibration of the cost-model constants.

Two jobs live here:

1. :func:`constants_for_system` — per-platform adjustments of
   :class:`repro.hardware.costmodel.CostConstants`.  The paper's three
   systems differ not only in the raw numbers of Table 4 but in generation
   (the Teslas sustain wavefront kernels a little better than the consumer
   GTX boards; the i3's front-side bus is slower), and these adjustments are
   what make the qualitative thresholds land where Section 4.1.1 describes
   them.

2. :func:`constants_from_measurements` — the measured-profile path
   (:mod:`repro.autotuner.measured`): invert the cost model's serial and
   vectorized time formulas against *measured* wall-clocks of the functional
   executors, so that the model's predictions for the local host line up
   with reality instead of with the simulated 2014 testbed.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.params import InputParams
from repro.hardware.costmodel import CostConstants
from repro.hardware.system import SystemSpec

#: Baseline constants shared by every platform before adjustment.
BASE_CONSTANTS = CostConstants()

#: Per-system overrides, keyed by the Table 4 system name.
_SYSTEM_OVERRIDES: dict[str, dict[str, float]] = {
    # Single consumer GPU on a slow dual-core+HT host: GPU relatively strong,
    # PCIe a little slower, GPU start-up slightly cheaper (lighter driver).
    "i3-540": {
        "gpu_iter_penalty": 9.0,
        "gpu_startup_s": 0.20,
    },
    # Four GTX 590 dies behind one PCIe switch: launches and transfers carry
    # a small extra cost when more than one die is driven.
    "i7-2600K": {
        "gpu_iter_penalty": 10.0,
        "multi_gpu_launch_factor": 0.4,
    },
    # Tesla boards: better sustained throughput on irregular kernels and more
    # device memory, but the fastest host CPU of the three.
    "i7-3820": {
        "gpu_iter_penalty": 8.5,
        "gpu_payload_ns_per_float": 20.0,
    },
}


def constants_for_system(system: SystemSpec | str) -> CostConstants:
    """Return the calibrated :class:`CostConstants` for one platform.

    Unknown systems (user-defined ones from
    :func:`repro.hardware.platforms.custom_system`) get the baseline
    constants unchanged.
    """
    name = system if isinstance(system, str) else system.name
    overrides = _SYSTEM_OVERRIDES.get(name, {})
    return BASE_CONSTANTS.scaled(**overrides)


def constants_from_measurements(
    system: SystemSpec,
    serial_walls: Mapping[InputParams, float],
    vectorized_walls: Mapping[InputParams, float] | None = None,
) -> CostConstants:
    """Fit :class:`CostConstants` to measured wall-clocks on ``system``.

    Inverts the cost model's closed forms against functional-executor
    measurements (:mod:`repro.autotuner.measured` collects them):

    * ``cpu_iter_ns`` from the serial walls — the model says
      ``serial = cells * (iter_ns * tsize + payload_ns * dsize) * clock``,
      so each instance yields one iter-ns estimate and the median is kept;
    * ``cpu_vector_speedup`` and ``vector_diag_overhead_us`` from the
      vectorized walls — ``vec = n_diag * overhead + serial / speedup`` is
      linear in ``(overhead, 1/speedup)`` and solved by least squares when
      at least two instances were measured.

    Values are clamped to sane ranges so a noisy profile cannot produce a
    degenerate model.  Constants not measurable on a CPU-only host (all the
    GPU terms) keep their :func:`constants_for_system` values.
    """
    if not serial_walls:
        raise ValueError("constants_from_measurements needs at least one serial wall")
    base = constants_for_system(system)
    clock_scale = base.ref_cpu_ghz / system.cpu.freq_ghz

    iter_estimates = []
    for params, wall in serial_walls.items():
        if wall <= 0:
            continue
        per_cell_ns = wall / (params.cells * clock_scale) * 1e9
        iter_ns = (per_cell_ns - base.cpu_payload_ns_per_float * params.dsize) / params.tsize
        if iter_ns > 0:
            iter_estimates.append(iter_ns)
    if not iter_estimates:
        raise ValueError("no usable serial measurements for calibration")
    cpu_iter_ns = float(np.clip(np.median(iter_estimates), 0.1, 10_000.0))
    fitted = base.scaled(cpu_iter_ns=cpu_iter_ns)

    if vectorized_walls and len(vectorized_walls) >= 2:
        # vec_wall = n_diagonals * overhead_s + serial_model / speedup:
        # least-squares for x = (overhead_s, 1/speedup).  With a single
        # instance the system is underdetermined (lstsq would split the wall
        # arbitrarily between the two constants), so the base values stay.
        rows, rhs = [], []
        for params, wall in vectorized_walls.items():
            serial_model = (
                params.cells
                * (cpu_iter_ns * params.tsize + base.cpu_payload_ns_per_float * params.dsize)
                * clock_scale
                * 1e-9
            )
            rows.append([float(params.n_diagonals), serial_model])
            rhs.append(float(wall))
        A = np.asarray(rows)
        b = np.asarray(rhs)
        solution, *_ = np.linalg.lstsq(A, b, rcond=None)
        overhead_s, inv_speedup = float(solution[0]), float(solution[1])
        speedup = 1.0 / inv_speedup if inv_speedup > 0 else base.cpu_vector_speedup
        fitted = fitted.scaled(
            cpu_vector_speedup=float(np.clip(speedup, 1.0, 64.0)),
            vector_diag_overhead_us=float(np.clip(overhead_s * 1e6, 0.0, 100.0)),
        )
    return fitted
