"""Core wavefront-pattern abstractions.

This subpackage contains everything that is independent of *how* a wavefront
is executed: the input/tunable parameter model (Tables 1-3 of the paper), the
anti-diagonal geometry of the grid, CPU tiling, the three-phase hybrid
decomposition and the multi-GPU diagonal partitioning with halo regions.
"""

from repro.core.exceptions import (
    ReproError,
    InvalidParameterError,
    PlanError,
    PartitionError,
    KernelError,
)
from repro.core.params import InputParams, TunableParams
from repro.core.parameter_space import ParameterSpace
from repro.core.diagonal import (
    diagonal_length,
    diagonal_cells,
    band_diagonal_range,
)
from repro.core.grid import WavefrontGrid
from repro.core.tiling import TileDecomposition
from repro.core.plan import ThreePhasePlan, Phase
from repro.core.partition import DiagonalPartition, partition_diagonal
from repro.core.pattern import WavefrontKernel, WavefrontProblem

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "PlanError",
    "PartitionError",
    "KernelError",
    "InputParams",
    "TunableParams",
    "ParameterSpace",
    "diagonal_length",
    "diagonal_cells",
    "band_diagonal_range",
    "WavefrontGrid",
    "TileDecomposition",
    "ThreePhasePlan",
    "Phase",
    "DiagonalPartition",
    "partition_diagonal",
    "WavefrontKernel",
    "WavefrontProblem",
]
