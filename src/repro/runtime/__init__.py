"""Execution engines for the wavefront pattern.

Five executors, each executing differently:

* :class:`repro.runtime.serial.SerialExecutor` — the optimised sequential
  baseline, also the reference implementation the others are validated
  against;
* :class:`repro.runtime.vectorized.VectorizedSerialExecutor` — one
  :class:`~repro.runtime.vectorized.TileSweeper` sweep of the whole grid,
  by rows where the kernel offers a row evaluator and by NumPy-batched
  anti-diagonals otherwise; the preferred single-core engine;
* :class:`repro.runtime.mp_parallel.MPParallelExecutor` /
  :class:`repro.runtime.mp_parallel.PipelinedMPExecutor` — the tile
  wavefront on a resident shared-memory worker team, each tile one whole
  ``TileSweeper`` sweep, with a barrier per tile-diagonal
  (:func:`~repro.runtime.scheduler.run_schedule`) or dependency-driven with
  none (:func:`~repro.runtime.scheduler.run_pipelined`);
* :class:`repro.runtime.hybrid.HybridExecutor` — the paper's three-phase
  CPU / GPU-band / CPU strategy, parameterised by
  :class:`repro.core.params.TunableParams`; any one of the engines above
  fills the grid across all three phases (``engine=`` — a registry name),
  and :func:`repro.runtime.band.band_counters` counts the device
  operations of the GPU band the cost model charges for.

All executors are registered by strategy name in
:mod:`repro.runtime.registry` — the one list of engines and the one engine
vocabulary: a plan's ``backend``, a plan's ``engine``, the hybrid
executor's ``engine=`` and a profiled backend are all names registered
there.  Construct executors uniformly with
:func:`repro.runtime.registry.get_executor`;
:func:`repro.runtime.registry.fill_engine` says which engine fills the grid
of a ``(backend, engine)`` choice and rejects a name that is not registered.

Every executor supports two modes: ``functional`` (cell values are really
computed, results validated against the serial sweep) and ``simulate`` (only
the analytic cost model is evaluated, used by the large parameter sweeps).
"""

from repro.runtime.result import ExecutionResult
from repro.runtime.timeline import Timeline
from repro.runtime.executor_base import ExecutionMode, Executor
from repro.runtime.serial import SerialExecutor
from repro.runtime.vectorized import VectorizedSerialExecutor
from repro.runtime.mp_parallel import (
    MPParallelExecutor,
    MPWavefrontPool,
    PipelinedMPExecutor,
    TileSweeper,
    WorkerTeam,
    resolve_worker_count,
)
from repro.runtime.scheduler import DependencyGraph, run_pipelined, run_schedule
from repro.runtime.shared_grid import SharedGridBuffer
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.registry import (
    ENGINE_SPECS,
    EngineSpec,
    available_executors,
    available_serial_engines,
    engines_with,
    fill_engine,
    get_executor,
    register_executor,
)

__all__ = [
    "ExecutionResult",
    "Timeline",
    "ExecutionMode",
    "Executor",
    "SerialExecutor",
    "VectorizedSerialExecutor",
    "MPParallelExecutor",
    "MPWavefrontPool",
    "PipelinedMPExecutor",
    "TileSweeper",
    "WorkerTeam",
    "DependencyGraph",
    "run_pipelined",
    "run_schedule",
    "SharedGridBuffer",
    "resolve_worker_count",
    "HybridExecutor",
    "ENGINE_SPECS",
    "EngineSpec",
    "available_executors",
    "engines_with",
    "available_serial_engines",
    "fill_engine",
    "get_executor",
    "register_executor",
]
