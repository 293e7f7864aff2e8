"""Input and tunable parameter models (Tables 1 and 2 of the paper).

Input parameters describe a wavefront *instance*:

* ``dim``   — width of the (square) array,
* ``tsize`` — granularity of the per-element computation, measured in units of
  one iteration of the synthetic kernel on a single CPU core,
* ``dsize`` — number of floating-point payload values per element (each
  element additionally carries two ints, so the element size in bytes is
  ``8 + 8 * dsize``).

Tunable parameters are the targets of the autotuner:

* ``cpu_tile``  — side length of the square CPU tiles,
* ``band``      — number of diagonals on each side of the main anti-diagonal
  offloaded to the GPU(s); ``-1`` means the GPU is not used,
* ``gpu_count`` — number of GPU devices used (0, 1 or 2),
* ``gpu_tile``  — work-group tiling factor inside the GPU,
* ``halo``      — overlap between the partitions of neighbouring GPUs;
  ``-1`` when fewer than two GPUs are used.

The paper overloads ``band`` and ``halo`` to encode ``gpu_count``
(Section 3.1.1): ``band == -1`` means no GPU, ``band >= 0`` with
``halo == -1`` means one GPU, and ``band >= 0`` with ``halo >= 0`` means two
GPUs.  :meth:`TunableParams.from_encoding` implements exactly that decoding.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.core.exceptions import InvalidParameterError

#: Size in bytes of the two ``int`` bookkeeping fields each element carries.
ELEMENT_INT_BYTES = 8
#: Size in bytes of one floating point payload value.
ELEMENT_FLOAT_BYTES = 8


def require_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``: an integer (NumPy's too, never a ``bool``) >= ``minimum``.

    Anything else is an :class:`InvalidParameterError` naming ``name`` —
    never a silent truncation (``12.7`` is not the dim-12 request).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True, order=True)
class InputParams:
    """Characteristics of a wavefront instance (Table 1)."""

    dim: int
    tsize: float
    dsize: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise InvalidParameterError(f"dim must be >= 2, got {self.dim}")
        if self.tsize <= 0:
            raise InvalidParameterError(f"tsize must be positive, got {self.tsize}")
        if self.dsize < 0:
            raise InvalidParameterError(f"dsize must be >= 0, got {self.dsize}")

    @property
    def element_nbytes(self) -> int:
        """Size of one grid element in bytes (2 ints + ``dsize`` floats)."""
        return ELEMENT_INT_BYTES + ELEMENT_FLOAT_BYTES * self.dsize

    @property
    def cells(self) -> int:
        """Total number of elements in the square grid."""
        return self.dim * self.dim

    @property
    def n_diagonals(self) -> int:
        """Number of anti-diagonals in the square grid."""
        return 2 * self.dim - 1

    def features(self) -> dict[str, float]:
        """Feature dictionary used by the machine-learning tuner."""
        return {"dim": float(self.dim), "tsize": float(self.tsize), "dsize": float(self.dsize)}


@dataclass(frozen=True, order=True)
class TunableParams:
    """The five tunable parameters of the implementation strategy (Table 2)."""

    cpu_tile: int = 1
    band: int = -1
    gpu_count: int = 0
    gpu_tile: int = 1
    halo: int = -1

    def __post_init__(self) -> None:
        if self.cpu_tile < 1:
            raise InvalidParameterError(f"cpu_tile must be >= 1, got {self.cpu_tile}")
        if self.band < -1:
            raise InvalidParameterError(f"band must be >= -1, got {self.band}")
        if self.gpu_count not in (0, 1, 2):
            raise InvalidParameterError(
                f"gpu_count must be 0, 1 or 2, got {self.gpu_count}"
            )
        if self.gpu_tile < 1:
            raise InvalidParameterError(f"gpu_tile must be >= 1, got {self.gpu_tile}")
        if self.halo < -1:
            raise InvalidParameterError(f"halo must be >= -1, got {self.halo}")
        # Consistency of the band/halo/gpu_count encoding (Section 3.1.1).
        if self.gpu_count == 0:
            if self.band != -1:
                raise InvalidParameterError(
                    "band must be -1 when gpu_count is 0 "
                    f"(got band={self.band})"
                )
            if self.halo != -1:
                raise InvalidParameterError(
                    "halo must be -1 when gpu_count is 0 "
                    f"(got halo={self.halo})"
                )
        else:
            if self.band < 0:
                raise InvalidParameterError(
                    f"band must be >= 0 when gpu_count={self.gpu_count}"
                )
            if self.gpu_count == 1 and self.halo != -1:
                raise InvalidParameterError(
                    "halo must be -1 for a single GPU "
                    f"(got halo={self.halo})"
                )
            if self.gpu_count == 2 and self.halo < 0:
                raise InvalidParameterError(
                    "halo must be >= 0 for two GPUs "
                    f"(got halo={self.halo})"
                )

    # ------------------------------------------------------------------
    # Encoding helpers (paper Section 3.1.1)
    # ------------------------------------------------------------------
    @classmethod
    def from_encoding(
        cls, cpu_tile: int, band: int, halo: int, gpu_tile: int = 1
    ) -> "TunableParams":
        """Decode the paper's overloaded (band, halo) encoding.

        ``band == -1``              -> no GPU,
        ``band >= 0, halo == -1``   -> one GPU,
        ``band >= 0, halo >= 0``    -> two GPUs.
        """
        if band < 0:
            return cls(cpu_tile=cpu_tile, band=-1, gpu_count=0, gpu_tile=1, halo=-1)
        gpu_count = 2 if halo >= 0 else 1
        return cls(
            cpu_tile=cpu_tile,
            band=band,
            gpu_count=gpu_count,
            gpu_tile=gpu_tile,
            halo=halo,
        )

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    @property
    def uses_gpu(self) -> bool:
        """True when at least one GPU participates in the execution."""
        return self.gpu_count > 0 and self.band >= 0

    @property
    def is_cpu_only(self) -> bool:
        """True when the whole computation runs on the CPU."""
        return not self.uses_gpu

    def clipped(self, dim: int) -> "TunableParams":
        """Clip band/halo/tiles to the legal maxima for a ``dim`` x ``dim`` grid.

        The exhaustive search enumerates band/halo values on an absolute
        scale (Table 3); for small grids those have to be clipped so the
        resulting plan is well formed.
        """
        if dim < 2:
            raise InvalidParameterError(f"dim must be >= 2, got {dim}")
        cpu_tile = min(self.cpu_tile, dim)
        if not self.uses_gpu:
            return TunableParams(cpu_tile=cpu_tile)
        band = min(self.band, dim - 1)
        gpu_tile = max(1, min(self.gpu_tile, dim))
        if self.gpu_count == 2:
            # The first offloaded diagonal has length dim - band; the halo may
            # not exceed half of it (Table 3).
            first_len = dim - band
            max_halo = max(0, first_len // 2)
            halo = min(self.halo, max_halo)
        else:
            halo = -1
        return TunableParams(
            cpu_tile=cpu_tile,
            band=band,
            gpu_count=self.gpu_count,
            gpu_tile=gpu_tile,
            halo=halo,
        )

    def features(self) -> dict[str, float]:
        """Feature dictionary (targets) used by the machine-learning tuner."""
        return {
            "cpu_tile": float(self.cpu_tile),
            "band": float(self.band),
            "gpu_count": float(self.gpu_count),
            "gpu_tile": float(self.gpu_tile),
            "halo": float(self.halo),
        }

    def describe(self) -> str:
        """Human-readable one-line description."""
        if self.is_cpu_only:
            return f"CPU-only(cpu_tile={self.cpu_tile})"
        halo = f", halo={self.halo}" if self.gpu_count == 2 else ""
        return (
            f"hybrid(cpu_tile={self.cpu_tile}, band={self.band}, "
            f"gpus={self.gpu_count}, gpu_tile={self.gpu_tile}{halo})"
        )


#: Tunables describing the optimised sequential baseline.
SERIAL_BASELINE = TunableParams(cpu_tile=1, band=-1, gpu_count=0, gpu_tile=1, halo=-1)
