"""The search space explored on one platform.

Couples a :class:`repro.core.parameter_space.ParameterSpace` (what the paper
sweeps, Table 3) with a :class:`repro.hardware.system.SystemSpec` (what the
platform can actually run — e.g. the i3-540 has one GPU, so the halo
dimension collapses).

Beyond the paper's five tunables the space carries an *engine* dimension —
which single-core backend (scalar ``serial`` or batched ``vectorized``) the
CPU phases run on — plus a *CPU backend* and a *worker-count* dimension for
the shared-memory multicore backend (``mp-parallel``).  None of these
interact with band / halo, so they do not multiply the swept grid.  The
engine a tuned plan runs on the live host is not priced at all: it is
the first entry of :attr:`SearchSpace.engines`, the registry's preference
order.  The CPU-backend and worker-count dimensions of the *simulated*
platforms are decided per instance by direct cost-model comparison
(:meth:`SearchSpace.best_cpu_backend`, :meth:`SearchSpace.best_workers`,
through the cost model's parallel-efficiency term).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.parameter_space import ParameterSpace
from repro.core.params import InputParams, TunableParams
from repro.hardware.costmodel import CostModel
from repro.hardware.system import SystemSpec


@dataclass(frozen=True)
class SearchSpace:
    """Parameter space restricted to what ``system`` supports."""

    space: ParameterSpace
    system: SystemSpec

    @property
    def max_gpus(self) -> int:
        """GPUs the tuner may use on this system (the paper caps this at 2)."""
        return self.system.max_usable_gpus

    @property
    def engines(self) -> tuple[str, ...]:
        """Serial-engine backends available for the CPU phases, best first.

        ``("vectorized", "serial")`` when NumPy is importable, otherwise just
        ``("serial",)`` — the registry's ``serial_rank`` preference order.
        Every tuner-resolved plan sweeps its CPU phases on the first entry;
        ``serial`` is the reference engine, reached only by an explicit
        policy or a measured profile.
        """
        from repro.runtime.registry import available_serial_engines

        return tuple(available_serial_engines())

    @property
    def worker_counts(self) -> tuple[int, ...]:
        """Candidate worker counts for the multicore backend.

        Powers of two up to the platform's worker budget, always including
        the budget itself — the worker-count dimension of the search space.
        Like the engine dimension it is not swept against band/halo: the
        best count is resolved per instance by direct cost-model comparison
        (:meth:`best_workers`).
        """
        budget = self.system.cpu.workers
        counts: list[int] = []
        w = 1
        while w < budget:
            counts.append(w)
            w *= 2
        counts.append(budget)
        return tuple(dict.fromkeys(counts))

    @property
    def cpu_backends(self) -> tuple[str, ...]:
        """CPU backend dimension: serial engines, multicore pools, compiled tier.

        ``mp-parallel`` and its barrier-free sibling ``pipelined`` share the
        vectorized engine's NumPy gate (their tile sweeps are the same
        batched evaluation), so they are offered exactly when ``vectorized``
        is.  The ``compiled`` tier enters the dimension only when its
        availability probe passes (Numba importable) — resolved through the
        registry's capability index, so the tuner never hard-codes the gate.
        """
        from repro.runtime.registry import engines_with

        engines = self.engines
        if "vectorized" in engines:
            engines = engines + ("mp-parallel", "pipelined")
        return engines + tuple(engines_with("compiled"))

    @staticmethod
    def mp_tile_candidates(instance: InputParams) -> tuple[int, ...]:
        """Candidate tile sides for the multicore backend on ``instance``.

        The backend's sweet spot is much coarser than the paper's cache
        tiles (the pool dispatch must be amortised), so the candidates span
        8 .. 256 clipped to the grid.
        """
        return tuple(t for t in (8, 16, 32, 64, 128, 256) if t <= instance.dim) or (
            instance.dim,
        )

    def _mp_time(
        self,
        model: CostModel,
        instance: InputParams,
        cpu_tile: int | None,
        workers: int,
    ) -> float:
        """mp-parallel runtime at ``workers``, tile fixed or co-optimised."""
        tiles = (cpu_tile,) if cpu_tile is not None else self.mp_tile_candidates(instance)
        return min(model.mp_parallel_time(instance, tile, workers) for tile in tiles)

    def _pipelined_time(
        self,
        model: CostModel,
        instance: InputParams,
        cpu_tile: int | None,
        workers: int,
    ) -> float:
        """Pipelined-dispatch runtime at ``workers`` (tile fixed or co-optimised)."""
        tiles = (cpu_tile,) if cpu_tile is not None else self.mp_tile_candidates(instance)
        return min(model.pipelined_time(instance, tile, workers) for tile in tiles)

    def best_workers(
        self,
        instance: InputParams,
        cpu_tile: int | None = None,
        cost_model: CostModel | None = None,
    ) -> int:
        """Worker count minimising the multicore backend's predicted runtime.

        Resolved through :meth:`repro.hardware.costmodel.CostModel.mp_parallel_time`,
        whose parallel-efficiency term penalises worker counts the tile
        wavefront cannot keep busy.  With ``cpu_tile=None`` (the default)
        the tile side is co-optimised over :meth:`mp_tile_candidates` —
        the backend deploys with its own coarse tile, not the cache tile
        the learned models pick for the scalar phases.
        """
        model = cost_model if cost_model is not None else CostModel(self.system)
        return min(
            self.worker_counts,
            key=lambda w: self._mp_time(model, instance, cpu_tile, w),
        )

    def best_cpu_backend(
        self,
        instance: InputParams,
        cpu_tile: int | None = None,
        cost_model: CostModel | None = None,
    ) -> tuple[str, int]:
        """Cheapest CPU backend for ``instance`` and its worker count.

        Returns ``(backend, workers)``; ``workers`` is 1 for the single-core
        engines (and the compiled tier) and :meth:`best_workers` for the
        multicore backends (``mp-parallel`` and ``pipelined``).  As in
        :meth:`best_workers`, ``cpu_tile=None`` co-optimises the multicore
        backend's tile side.  This ranks the *simulated* platform's backends
        on the cost model's testbed clock, not what the live host runs fastest.
        """
        model = cost_model if cost_model is not None else CostModel(self.system)
        workers = self.best_workers(instance, cpu_tile, model)

        def runtime(backend: str) -> float:
            if backend == "mp-parallel":
                return self._mp_time(model, instance, cpu_tile, workers)
            if backend == "pipelined":
                return self._pipelined_time(model, instance, cpu_tile, workers)
            return model.engine_time(backend, instance)

        best = min(self.cpu_backends, key=runtime)
        return best, (workers if best in ("mp-parallel", "pipelined") else 1)

    def instances(self) -> Iterator[InputParams]:
        """All (dim, tsize, dsize) instances of the space."""
        return self.space.instances()

    def configurations(self, instance: InputParams) -> list[TunableParams]:
        """Distinct tunable configurations explored for ``instance``."""
        seen: set[TunableParams] = set()
        out: list[TunableParams] = []
        for config in self.space.configurations(instance, max_gpus=self.max_gpus):
            if config not in seen:
                seen.add(config)
                out.append(config)
        return out

    def size_estimate(self) -> int:
        """Approximate number of (instance, configuration) points in the sweep."""
        total = 0
        for dim in self.space.dims:
            probe = InputParams(dim=dim, tsize=self.space.tsizes[0], dsize=self.space.dsizes[0])
            per_dim = len(self.configurations(probe))
            total += per_dim * len(self.space.tsizes) * len(self.space.dsizes)
        return total

    def describe(self) -> dict[str, object]:
        """Summary used by the Table 3 bench."""
        info = self.space.describe()
        info["system"] = self.system.name
        info["max_gpus"] = self.max_gpus
        info["engines"] = list(self.engines)
        info["cpu_backends"] = list(self.cpu_backends)
        info["worker_counts"] = list(self.worker_counts)
        info["size_estimate"] = self.size_estimate()
        return info
