"""Analytic cost model for the three-phase hybrid wavefront execution.

The paper measured wall-clock runtime on three physical CPU+GPU systems.  In
this reproduction the same quantity — called ``rtime`` throughout — is
computed by an analytic model parameterised by the platform description
(:class:`repro.hardware.system.SystemSpec`) and a set of calibration
constants (:class:`CostConstants`).  The model charges time for exactly the
mechanisms the paper identifies as the tuning trade-offs (Section 2.1):

* per-point compute cost on a CPU core vs. on a GPU lane,
* the critical path of the tiled CPU wavefront over ``cores`` workers,
* a cache-reuse factor that favours moderate CPU tile sizes,
* GPU start-up cost and per-kernel launch overhead,
* PCIe transfers when offloading the band and bringing results back,
* work-group synchronisation when tiling inside the GPU,
* halo swaps through the host and redundant halo computation for dual GPUs.

The same model backs both the ``simulate`` execution mode (where no cell
values are produced) and the timeline that the functional executors charge
their simulated operations to, so the two modes report identical ``rtime``
for identical configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core import diagonal as dg
from repro.core.exceptions import InvalidParameterError
from repro.core.params import InputParams, TunableParams
from repro.core.partition import count_halo_swaps, halo_swap_nbytes
from repro.core.plan import Phase, ThreePhasePlan, plan_for
from repro.core.tiling import TileDecomposition, triangular_tile_waves
from repro.hardware.system import SystemSpec


@dataclass(frozen=True)
class CostConstants:
    """Calibration constants of the analytic cost model.

    All times are expressed for a *reference* CPU core clocked at
    ``ref_cpu_ghz``; actual platforms scale them by their clock ratio.  The
    default values are calibrated (see :mod:`repro.hardware.calibration`) so
    the qualitative results of the paper hold: maximum tuned speedup of
    roughly 20x over the sequential baseline, GPU offload thresholds that are
    lower on the slow-CPU i3 system than on the i7 systems, higher thresholds
    for larger ``dsize``, and halo sizes that shrink as ``tsize`` grows.
    """

    #: Clock of the reference core that defines one ``tsize`` unit.
    ref_cpu_ghz: float = 1.6
    #: Nanoseconds per synthetic-kernel iteration on the reference core.
    cpu_iter_ns: float = 8.0
    #: Nanoseconds per payload float touched per cell on the CPU.
    cpu_payload_ns_per_float: float = 2.0
    #: Per-tile scheduling/synchronisation overhead of the CPU phases.
    cpu_tile_sync_us: float = 2.0
    #: GPU lane slowdown vs. the reference CPU core at equal clock.
    gpu_iter_penalty: float = 10.0
    #: Nanoseconds of (serialised, uncoalesced) global-memory traffic per
    #: payload float per cell on the GPU.
    gpu_payload_ns_per_float: float = 25.0
    #: Host-side overhead of one kernel launch.
    kernel_launch_us: float = 20.0
    #: Cost of one intra-work-group barrier step when tiling inside the GPU.
    workgroup_sync_us: float = 2.0
    #: Compute inflation caused by idle work-items at intra-tile wavefront edges.
    gpu_tiled_compute_factor: float = 1.2
    #: One-off cost of initialising a GPU context/queue, per device used.
    gpu_startup_s: float = 0.22
    #: Extra launch-cost factor per additional device driven by the host.
    multi_gpu_launch_factor: float = 0.3
    #: CPU cache-reuse model: factor = a + b / tile + c * tile.
    cache_base: float = 0.85
    cache_inv_coeff: float = 0.40
    cache_lin_coeff: float = 0.004
    #: Per-cell speedup of the vectorized (SIMD batch-per-diagonal) engine
    #: over the scalar serial sweep; calibrated against the measured ratio of
    #: the two functional executors (``repro bench``).
    cpu_vector_speedup: float = 6.0
    #: Per-diagonal batch dispatch overhead of the vectorized engine.
    vector_diag_overhead_us: float = 2.0
    #: Per-tile dispatch cost of the shared-memory process pool (submitting
    #: the tile descriptor, collecting the result, barrier bookkeeping).
    mp_task_overhead_us: float = 60.0
    #: One-off cost of starting (forking + initialising) one pool worker,
    #: including its per-worker engine precompute.
    mp_worker_startup_s: float = 0.02

    def cache_factor(self, tile: int) -> float:
        """Relative per-cell cost of the CPU phases for a given tile size.

        Minimal around tile sizes of 8-10 (good reuse, low loop overhead);
        tile = 1 pays untiled-loop overhead, very large tiles start to spill.
        """
        if tile < 1:
            raise InvalidParameterError(f"tile must be >= 1, got {tile}")
        return self.cache_base + self.cache_inv_coeff / tile + self.cache_lin_coeff * tile

    def scaled(self, **overrides: float) -> "CostConstants":
        """Return a copy with some constants replaced (used by calibration)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class PhaseBreakdown:
    """Per-component simulated runtime of one hybrid execution (seconds)."""

    pre_s: float = 0.0
    post_s: float = 0.0
    gpu_compute_s: float = 0.0
    gpu_launch_s: float = 0.0
    gpu_sync_s: float = 0.0
    halo_s: float = 0.0
    transfer_s: float = 0.0
    startup_s: float = 0.0

    @property
    def cpu_s(self) -> float:
        """Time spent in the CPU phases."""
        return self.pre_s + self.post_s

    @property
    def gpu_s(self) -> float:
        """Time spent in the GPU phase, including its overheads."""
        return (
            self.gpu_compute_s
            + self.gpu_launch_s
            + self.gpu_sync_s
            + self.halo_s
            + self.transfer_s
            + self.startup_s
        )

    @property
    def total_s(self) -> float:
        """End-to-end simulated runtime (the paper's ``rtime``)."""
        return self.cpu_s + self.gpu_s


class CostModel:
    """Analytic runtime model of one platform."""

    def __init__(self, system: SystemSpec, constants: CostConstants | None = None) -> None:
        self.system = system
        if constants is None:
            # Imported lazily to avoid a circular import at module load time.
            from repro.hardware.calibration import constants_for_system

            constants = constants_for_system(system)
        self.constants = constants

    # ------------------------------------------------------------------
    # Per-point costs
    # ------------------------------------------------------------------
    def cpu_point_time(self, params: InputParams) -> float:
        """Seconds to compute one cell on one CPU core of this system."""
        c = self.constants
        clock_scale = c.ref_cpu_ghz / self.system.cpu.freq_ghz
        ns = (c.cpu_iter_ns * params.tsize + c.cpu_payload_ns_per_float * params.dsize)
        return ns * clock_scale * 1e-9

    def gpu_point_time(self, params: InputParams, device_index: int = 0) -> float:
        """Seconds for one GPU lane to compute one cell (excluding memory traffic)."""
        c = self.constants
        gpu = self.system.gpu(device_index)
        clock_scale = c.ref_cpu_ghz / gpu.freq_ghz
        return c.cpu_iter_ns * c.gpu_iter_penalty * params.tsize * clock_scale * 1e-9

    # ------------------------------------------------------------------
    # Whole-execution costs
    # ------------------------------------------------------------------
    def serial_time(self, params: InputParams) -> float:
        """The optimised sequential baseline: every cell on one CPU core."""
        return params.cells * self.cpu_point_time(params)

    def vectorized_time(self, params: InputParams) -> float:
        """Single-core vectorized engine: diagonal batches on one CPU core.

        Per-cell work is amortised by the SIMD batch speedup; each diagonal
        pays a fixed batch dispatch overhead, so the engine's advantage grows
        with ``dim`` and shrinks for coarse-grained kernels (large ``tsize``),
        matching the behaviour of the functional executors.
        """
        c = self.constants
        overhead = params.n_diagonals * c.vector_diag_overhead_us * 1e-6
        return overhead + self.serial_time(params) / c.cpu_vector_speedup

    def engine_time(self, engine: str, params: InputParams) -> float:
        """Runtime of one single-core engine by registry name."""
        if engine == "serial":
            return self.serial_time(params)
        if engine == "vectorized":
            return self.vectorized_time(params)
        raise InvalidParameterError(f"unknown serial engine {engine!r}")

    def cpu_region_time(
        self, params: InputParams, n_diagonals: int, cells: int, cpu_tile: int
    ) -> float:
        """Tiled parallel CPU time for a triangular region of the grid.

        ``n_diagonals`` is the number of cell anti-diagonals the region spans
        (phase 1 and phase 3 regions are triangles bounded by the GPU band;
        the full grid is the degenerate case spanning every diagonal).
        """
        if cells <= 0 or n_diagonals <= 0:
            return 0.0
        cpu = self.system.cpu
        c = self.constants
        tile = max(1, min(cpu_tile, params.dim))
        point = self.cpu_point_time(params)
        cache = c.cache_factor(tile)
        waves = triangular_tile_waves(params.dim, n_diagonals, tile, cpu.workers)
        tile_time = tile * tile * point * cache + c.cpu_tile_sync_us * 1e-6
        critical_path = waves * tile_time
        # The critical path over full tiles can undercount when the region is
        # wide but shallow; never report less than the perfectly-balanced
        # work bound over the effective cores.
        work_bound = cells * point * cache / cpu.effective_cores
        return max(critical_path, work_bound)

    def cpu_parallel_time(self, params: InputParams, cpu_tile: int) -> float:
        """All-CPU tiled parallel execution of the whole grid."""
        return self.cpu_region_time(
            params, params.n_diagonals, params.cells, cpu_tile
        )

    # ------------------------------------------------------------------
    # The shared-memory multicore backend (``mp-parallel``)
    # ------------------------------------------------------------------
    def mp_parallel_time(self, params: InputParams, cpu_tile: int, workers: int) -> float:
        """Shared-memory multicore backend: tiled-vectorized tiles on real cores.

        Each tile is swept with the tile-local rolling-row diagonal engine (so
        per-cell work is the vectorized rate plus per-local-diagonal batch
        overhead) and pays one pool dispatch; the critical path is the ideal
        per-worker share divided by the wavefront's parallel-efficiency
        term, plus the one-off worker start-up.  With fewer than two workers
        this degrades to the single-core vectorized engine, mirroring the
        functional backend's graceful fallback.
        """
        workers = max(1, int(workers))
        if workers < 2:
            return self.vectorized_time(params)
        c = self.constants
        tile = max(1, min(cpu_tile, params.dim))
        decomp = TileDecomposition(params.dim, params.dim, tile)
        point = self.cpu_point_time(params) / c.cpu_vector_speedup
        tile_time = (
            tile * tile * point
            + (2 * tile - 1) * c.vector_diag_overhead_us * 1e-6
            + c.mp_task_overhead_us * 1e-6
        )
        efficiency = max(decomp.parallel_efficiency(workers), 1e-9)
        ideal_rounds = decomp.n_tiles / workers
        startup = c.mp_worker_startup_s * workers
        return startup + (ideal_rounds / efficiency) * tile_time

    def pipelined_time(self, params: InputParams, cpu_tile: int, workers: int) -> float:
        """Dependency-driven multicore backend: no barrier between tile waves.

        Same per-tile cost as :meth:`mp_parallel_time`, but the per-wave
        straggler term (the division by the wavefront's parallel-efficiency)
        disappears: with tiles released the moment their neighbours retire,
        the run is bound by whichever is longer of the perfectly-balanced
        work share and the tile-diagonal dependency chain — never by partial
        waves idling workers at a barrier.
        """
        workers = max(1, int(workers))
        if workers < 2:
            return self.vectorized_time(params)
        c = self.constants
        tile = max(1, min(cpu_tile, params.dim))
        decomp = TileDecomposition(params.dim, params.dim, tile)
        point = self.cpu_point_time(params) / c.cpu_vector_speedup
        tile_time = (
            tile * tile * point
            + (2 * tile - 1) * c.vector_diag_overhead_us * 1e-6
            + c.mp_task_overhead_us * 1e-6
        )
        ideal_rounds = decomp.n_tiles / workers
        critical_chain = decomp.n_tile_diagonals
        startup = c.mp_worker_startup_s * workers
        return startup + max(ideal_rounds, critical_chain) * tile_time

    def cpu_backend_time(
        self,
        backend: str,
        params: InputParams,
        cpu_tile: int = 8,
        workers: int | None = None,
    ) -> float:
        """Runtime of one CPU backend by registry name (single- or multicore)."""
        if backend == "mp-parallel":
            effective = workers if workers is not None else self.system.cpu.workers
            return self.mp_parallel_time(params, cpu_tile, effective)
        if backend == "pipelined":
            effective = workers if workers is not None else self.system.cpu.workers
            return self.pipelined_time(params, cpu_tile, effective)
        return self.engine_time(backend, params)

    # ------------------------------------------------------------------
    # GPU band phase
    # ------------------------------------------------------------------
    def _gpu_band_components(
        self, params: InputParams, plan: ThreePhasePlan, tunables: TunableParams
    ) -> dict[str, float]:
        """Compute the GPU-phase cost components for a non-empty band."""
        c = self.constants
        tun = tunables
        gpu_count = tun.gpu_count
        if gpu_count > self.system.gpu_count:
            raise InvalidParameterError(
                f"configuration requests {gpu_count} GPUs but system "
                f"{self.system.name!r} has {self.system.gpu_count}"
            )
        gpu = self.system.gpu(0)
        width = gpu.parallel_width
        lengths = plan.gpu_diagonal_lengths()
        n_diags = lengths.size
        elem = params.element_nbytes
        halo = tun.halo if gpu_count == 2 else 0

        # Per-device share of each diagonal, including the redundant halo.
        per_dev = np.ceil(lengths / gpu_count).astype(np.int64)
        if gpu_count == 2:
            per_dev = np.minimum(per_dev + halo, lengths)

        point_gpu = self.gpu_point_time(params)
        waves = np.ceil(per_dev / width)
        compute = float(np.sum(waves)) * point_gpu
        # Serialised global-memory traffic for the payload floats.
        memory = float(np.sum(per_dev)) * params.dsize * c.gpu_payload_ns_per_float * 1e-9

        launch_scale = 1.0 + c.multi_gpu_launch_factor * (gpu_count - 1)
        if tun.gpu_tile > 1:
            launches = -(-n_diags // tun.gpu_tile)
            launch = launches * c.kernel_launch_us * 1e-6 * launch_scale
            sync = n_diags * c.workgroup_sync_us * 1e-6
            compute *= c.gpu_tiled_compute_factor
        else:
            launch = n_diags * c.kernel_launch_us * 1e-6 * launch_scale
            sync = 0.0

        # Halo swaps for dual GPUs: device -> host -> device per boundary
        # direction, each leg paying interconnect latency.
        halo_time = 0.0
        if gpu_count == 2 and n_diags > 1:
            n_swaps = count_halo_swaps(n_diags, halo)
            swap_bytes = halo_swap_nbytes(int(lengths.max()), gpu_count, halo, elem)
            per_swap = 2.0 * self.system.interconnect.transfer_time(swap_bytes / 2.0)
            halo_time = n_swaps * per_swap

        # Offload the band (plus boundary diagonals) in, and results out.
        offload_bytes = plan.offload_nbytes()
        transfer = 2.0 * (
            self.system.interconnect.transfer_time(offload_bytes)
            + (gpu_count - 1) * self.system.interconnect.latency_s
        )

        startup = c.gpu_startup_s * gpu_count
        return {
            "compute": compute + memory,
            "launch": launch,
            "sync": sync,
            "halo": halo_time,
            "transfer": transfer,
            "startup": startup,
        }

    # ------------------------------------------------------------------
    # Full hybrid prediction
    # ------------------------------------------------------------------
    def hybrid_breakdown(
        self, params: InputParams, tunables: TunableParams
    ) -> PhaseBreakdown:
        """Predict the per-component runtime of one configuration."""
        tunables = tunables.clipped(params.dim)
        if tunables.uses_gpu and not self.system.has_gpu:
            raise InvalidParameterError(
                f"configuration uses a GPU but system {self.system.name!r} has none"
            )
        plan = plan_for(params, tunables)
        cells = plan.cells_per_phase()

        pre_s = self.cpu_region_time(
            params, plan.pre.n_diagonals, cells[Phase.CPU_PRE], tunables.cpu_tile
        )
        post_s = self.cpu_region_time(
            params, plan.post.n_diagonals, cells[Phase.CPU_POST], tunables.cpu_tile
        )
        if plan.gpu.is_empty:
            return PhaseBreakdown(pre_s=pre_s, post_s=post_s)

        comp = self._gpu_band_components(params, plan, tunables)
        return PhaseBreakdown(
            pre_s=pre_s,
            post_s=post_s,
            gpu_compute_s=comp["compute"],
            gpu_launch_s=comp["launch"],
            gpu_sync_s=comp["sync"],
            halo_s=comp["halo"],
            transfer_s=comp["transfer"],
            startup_s=comp["startup"],
        )

    def predict(self, params: InputParams, tunables: TunableParams) -> float:
        """Predicted end-to-end runtime (seconds) of one configuration."""
        return self.hybrid_breakdown(params, tunables).total_s

    # ------------------------------------------------------------------
    # The three simple schemes of Figure 6
    # ------------------------------------------------------------------
    def baseline_serial(self, params: InputParams) -> float:
        """Scheme (a): everything serial on one CPU core."""
        return self.serial_time(params)

    def baseline_vectorized(self, params: InputParams) -> float:
        """The vectorized single-core engine (not part of Figure 6, but the
        baseline any modern reproduction should beat)."""
        return self.vectorized_time(params)

    def baseline_cpu_parallel(self, params: InputParams, cpu_tile: int = 8) -> float:
        """Scheme (b): tiled parallel across all CPU cores, no GPU phase."""
        return self.cpu_parallel_time(params, cpu_tile)

    def baseline_gpu_only(self, params: InputParams, gpu_count: int = 1) -> float:
        """Scheme (c): the whole grid computed in the GPU phase."""
        if not self.system.has_gpu:
            raise InvalidParameterError(
                f"system {self.system.name!r} has no GPU for the GPU-only baseline"
            )
        gpu_count = min(gpu_count, self.system.max_usable_gpus)
        halo = 0 if gpu_count == 2 else -1
        tunables = TunableParams.from_encoding(
            cpu_tile=1, band=params.dim - 1, halo=halo, gpu_tile=1
        )
        return self.predict(params, tunables)
