"""Base class for wavefront applications.

An *application* bundles a kernel family with metadata (name, the synthetic
scale it maps to, sensible default sizes) and knows how to build concrete
:class:`repro.core.pattern.WavefrontProblem` instances of any requested
``dim``.  The autotuner only ever sees the problem's (dim, tsize, dsize)
features, exactly as in the paper.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.exceptions import InvalidParameterError
from repro.core.params import InputParams
from repro.core.pattern import WavefrontKernel, WavefrontProblem


def position_table_flat(table: np.ndarray, dim: int) -> np.ndarray:
    """Row-major ``dim x dim`` position table of a 2-D ``table`` tiled modulo its shape.

    A table that already has the grid's shape is viewed, not re-gathered.
    """
    if table.shape == (dim, dim):
        return np.ascontiguousarray(table).reshape(-1)
    idx = np.arange(dim, dtype=np.int64)
    return table[(idx % table.shape[0])[:, None], (idx % table.shape[1])[None, :]].reshape(-1)


class WavefrontApplication(abc.ABC):
    """A family of wavefront problems sharing one kernel."""

    #: Application name used in reports and the registry.
    name: str = "application"
    #: Default problem size used by examples when none is given.
    default_dim: int = 128

    @abc.abstractmethod
    def make_kernel(self) -> WavefrontKernel:
        """Build the application's kernel."""

    def problem(self, dim: int | None = None) -> WavefrontProblem:
        """Build a concrete problem instance of side length ``dim``."""
        dim = self.default_dim if dim is None else dim
        if dim < 2:
            raise InvalidParameterError(f"dim must be >= 2, got {dim}")
        return WavefrontProblem(dim=dim, kernel=self.make_kernel(), name=self.name)

    def input_params(self, dim: int | None = None) -> InputParams:
        """The (dim, tsize, dsize) characteristics of an instance."""
        return self.problem(dim).input_params()

    def describe(self) -> str:
        """One-line description used by the examples and reports."""
        kernel = self.make_kernel()
        return (
            f"{self.name}: tsize={kernel.tsize:g}, dsize={kernel.dsize}, "
            f"default dim={self.default_dim}"
        )
