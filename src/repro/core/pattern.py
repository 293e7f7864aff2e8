"""The user-facing wavefront pattern API.

An application supplies a :class:`WavefrontKernel` — the per-element
recurrence step — and wraps it with input parameters into a
:class:`WavefrontProblem`.  Executors never know anything about the
application beyond this interface, which is precisely the property the paper
exploits to train its autotuner on a synthetic application and deploy it on
real ones.
"""

from __future__ import annotations

import abc
from types import FunctionType, ModuleType
from typing import Callable

import numpy as np

from repro.core.exceptions import InvalidParameterError, KernelError
from repro.core.grid import WavefrontGrid
from repro.core.params import InputParams

#: Signature of a fused diagonal evaluator:
#: ``evaluate(d, i_min, i_max, west, north, northwest, out, seg) -> None``;
#: the four arrays are C-contiguous, ``seg`` is the slice of the flattened
#: row-major grid addressing the cells ``(i, d - i)`` being computed.
DiagonalEvaluator = Callable[
    [int, int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, slice], None
]

#: Signature of a row evaluator: ``evaluate(i, c0, c1, north, west, out) -> None``.
RowEvaluator = Callable[[int, int, int, np.ndarray, float, np.ndarray], None]


class WavefrontKernel(abc.ABC):
    """The per-element recurrence of a wavefront application.

    Subclasses must implement :meth:`diagonal`, the vectorised evaluation of
    one anti-diagonal given the west / north / north-west neighbour values.
    A scalar convenience wrapper :meth:`cell` is provided for tests and for
    kernels that are inherently scalar.

    The two cost attributes ``tsize`` and ``dsize`` describe the kernel on the
    synthetic scale of the paper (Section 3.2.1): ``tsize`` is the task
    granularity in synthetic-kernel iterations and ``dsize`` the number of
    float payload values per element.
    """

    #: Task granularity on the synthetic scale (see Section 3.2.1).
    tsize: float = 1.0
    #: Data granularity (number of payload floats per element).
    dsize: int = 0
    #: Human-readable kernel name.
    name: str = "kernel"

    @abc.abstractmethod
    def diagonal(
        self,
        i: np.ndarray,
        j: np.ndarray,
        west: np.ndarray,
        north: np.ndarray,
        northwest: np.ndarray,
    ) -> np.ndarray:
        """Compute the values of the cells ``(i, j)`` of one anti-diagonal.

        All five arguments are 1-D arrays of equal length; out-of-grid
        neighbours arrive as the problem's boundary value.  The return value
        must be a 1-D float array of the same length.
        """

    def make_diagonal_evaluator(self, dim: int, boundary: float) -> "DiagonalEvaluator | None":
        """Optional fused fast path for sweeps that walk diagonals.

        A sweep walks diagonals only when :meth:`make_row_evaluator`
        declines, so a kernel whose row form never declines needs no
        diagonal evaluator.  A kernel may return a callable ``evaluate(d,
        i_min, i_max, west, north, northwest, out, seg)`` that writes the
        values of rows ``i_min .. i_max`` of diagonal ``d`` into the 1-D
        array ``out`` (length ``i_max - i_min + 1``), given read-only
        neighbour arrays of the same length.  All four are C-contiguous
        float64 (slices of the engine's rolling rows, not of the grid: the
        engine stores ``out`` itself), and ``seg`` is the slice addressing
        those cells in a flattened row-major ``dim x dim`` array, so
        ``table.reshape(-1)[seg]`` lines a position table up with any tile.
        The evaluator is built once per sweeper, so it can precompute
        position-dependent tables
        (substitution scores, payoff preferences, ...) and use in-place
        ufuncs; it must produce results numerically identical to
        :meth:`diagonal`.

        The default returns ``None``, meaning the engine falls back to
        :meth:`diagonal` with explicit index arrays — still batched per
        diagonal, just without the fused precomputation.
        """
        return None

    def make_row_evaluator(self, dim: int, boundary: float) -> "RowEvaluator | None":
        """Optional row-major fast path: offered, it walks every tile by rows.

        A recurrence whose west dependence is absent, or a constant gap in a
        max / min semiring (one ``accumulate``), can fill a whole row of a
        tile at once.  A kernel may return ``evaluate(i, c0, c1, north, west,
        out)`` writing cells ``(i, c0 .. c1 - 1)`` into ``out`` — the grid
        row itself, ``values[i, c0:c1]``.  ``north`` is a C-contiguous
        float64 vector of length ``c1 - c0 + 1`` holding cells ``(i - 1,
        c0 - 1 .. c1 - 1)``, the boundary value where those lie outside the
        grid (``north[1:]`` is the north operand, ``north[:-1]`` the
        north-west one; read-only — inside the grid it is a view of the
        previous row); ``west`` is the scalar cell ``(i, c0 - 1)`` or the
        boundary.

        Return ``None`` (the default) unless the row form is bit-identical
        to :meth:`diagonal` for *this* instance: a gap-shifted scan is exact
        only on integer-valued scores, so the kernel probes its own
        parameters and declines otherwise, and the sweep walks diagonals
        through :meth:`make_diagonal_evaluator`.  A kernel whose row form
        never declines needs no diagonal evaluator.  State is O(dim): index
        the kernel's sequences by row instead of building position tables.
        """
        return None

    def reconstruct_witness(self, values: np.ndarray) -> "np.ndarray | None":
        """Optional traceback over the completed value grid.

        Kernels whose answer has a *certificate* — the decoded state path of
        a Viterbi recurrence, the taken-item set of a knapsack policy — may
        override this to reconstruct it from the finished ``dim x dim``
        value grid.  The return value must be a 1-D ``int64`` array (the
        shape is kernel-defined) that is a pure function of ``values`` and
        the kernel's own tables, so backends producing identical grids
        yield byte-identical witnesses.  Executors call this exactly once
        per functional run and attach the result to the
        :class:`repro.runtime.result.ExecutionResult`; the default ``None``
        means the kernel has no witness.
        """
        return None

    def validate_output(self, values: np.ndarray, expected_len: int) -> np.ndarray:
        """Check a diagonal result for shape/NaN problems and return it."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.shape[0] != expected_len:
            raise KernelError(
                f"kernel {self.name!r} returned shape {values.shape}, "
                f"expected ({expected_len},)"
            )
        if not np.all(np.isfinite(values)):
            raise KernelError(f"kernel {self.name!r} produced non-finite values")
        return values


class FunctionKernel(WavefrontKernel):
    """Adapter turning a plain function into a :class:`WavefrontKernel`.

    The function receives ``(i, j, west, north, northwest)`` arrays and
    returns the diagonal's values.  Useful for quick experiments:

    >>> import numpy as np
    >>> k = FunctionKernel(lambda i, j, w, n, nw: np.maximum(w, n) + 1.0, tsize=1.0)
    >>> k.diagonal(np.array([1]), np.array([1]), np.array([2.0]), np.array([3.0]), np.array([0.0]))
    array([4.])
    """

    def __init__(
        self,
        func: Callable[..., np.ndarray],
        tsize: float = 1.0,
        dsize: int = 0,
        name: str = "function-kernel",
    ) -> None:
        if tsize <= 0:
            raise InvalidParameterError(f"tsize must be positive, got {tsize}")
        if dsize < 0:
            raise InvalidParameterError(f"dsize must be >= 0, got {dsize}")
        self._func = func
        self.tsize = float(tsize)
        self.dsize = int(dsize)
        self.name = name

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Delegate one anti-diagonal to the wrapped function."""
        return self._func(i, j, west, north, northwest)


class WavefrontProblem:
    """A wavefront instance: a kernel plus the size of the grid it sweeps.

    A problem and its kernel are not changed once built: the runtime keeps
    state derived from them (``_cached_*`` attributes) for later runs.
    """

    def __init__(
        self,
        dim: int,
        kernel: WavefrontKernel,
        boundary: float = 0.0,
        name: str | None = None,
    ) -> None:
        if dim < 2:
            raise InvalidParameterError(f"dim must be >= 2, got {dim}")
        self.dim = int(dim)
        self.kernel = kernel
        self.boundary = float(boundary)
        self.name = name or kernel.name

    def input_params(self) -> InputParams:
        """The instance's (dim, tsize, dsize) characteristics."""
        return InputParams(dim=self.dim, tsize=self.kernel.tsize, dsize=self.kernel.dsize)

    def make_grid(self) -> WavefrontGrid:
        """Allocate an empty value grid for this problem."""
        return WavefrontGrid(self.dim, self.kernel.dsize)

    @property
    def nbytes(self) -> int:
        """Bytes of instance data: the NumPy arrays the problem and its kernel hold.

        Attributes are searched through tuples, lists, dict values, the
        attributes of the objects held and the closure cells of the
        functions held, so lazily built ``_cached_*`` state counts once it
        exists — a kept sweeper with its evaluators' tables too; a view
        counts as its base, and each base once.
        """
        bases: dict[int, int] = {}
        seen: set[int] = set()

        def visit(value) -> None:
            if id(value) in seen:
                return
            seen.add(id(value))
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                bases[id(value)] = value.nbytes
            elif isinstance(value, (tuple, list)):
                for item in value:
                    visit(item)
            elif isinstance(value, dict):
                for item in value.values():
                    visit(item)
            elif isinstance(value, FunctionType):
                for cell in value.__closure__ or ():
                    visit(cell.cell_contents)
            elif not isinstance(value, (type, ModuleType)) and hasattr(value, "__dict__"):
                visit(vars(value))

        visit(self)
        return sum(bases.values())

    def __getstate__(self) -> dict:
        """Pickle without process-local caches.

        Runtime layers memoise derived state on the problem under
        ``_cached_*`` attributes.  Those caches are meaningless in another
        process — the multicore backend ships problems to pool workers
        under spawn start methods — so they are dropped here and rebuilt
        lazily on the receiving side.
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_cached_")
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WavefrontProblem(name={self.name!r}, dim={self.dim}, "
            f"tsize={self.kernel.tsize}, dsize={self.kernel.dsize})"
        )
