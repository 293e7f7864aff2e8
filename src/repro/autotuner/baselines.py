"""The three simple schemes the tuned points are compared against (Figure 6).

a) serial on one CPU core,
b) tiled parallel across all CPU cores with no GPU phase,
c) everything inside the GPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import InputParams
from repro.hardware.costmodel import CostConstants, CostModel
from repro.hardware.system import SystemSpec


@dataclass(frozen=True)
class SimpleSchemes:
    """Runtimes of the simple schemes for one instance (seconds).

    ``vectorized`` is not part of the paper's Figure 6 (the 2014 baseline is
    the scalar serial sweep) but is reported alongside: it is the single-core
    batched engine any tuned configuration should also beat.
    """

    serial: float
    cpu_parallel: float
    gpu_only: float
    vectorized: float = float("inf")

    def speedups_of(self, rtime: float) -> dict[str, float]:
        """Speedup of a given runtime over each scheme."""
        return {
            "vs_serial": self.serial / rtime,
            "vs_cpu_parallel": self.cpu_parallel / rtime,
            "vs_gpu_only": self.gpu_only / rtime,
            "vs_vectorized": self.vectorized / rtime,
        }


def simple_scheme_times(
    system: SystemSpec,
    params: InputParams,
    cpu_tile: int = 8,
    constants: CostConstants | None = None,
) -> SimpleSchemes:
    """Cost-model runtimes of the simple schemes on one system."""
    model = CostModel(system, constants)
    gpu_only = (
        model.baseline_gpu_only(params)
        if system.has_gpu
        else float("inf")
    )
    return SimpleSchemes(
        serial=model.baseline_serial(params),
        cpu_parallel=model.baseline_cpu_parallel(params, cpu_tile=cpu_tile),
        gpu_only=gpu_only,
        vectorized=model.vectorized_time(params),
    )
