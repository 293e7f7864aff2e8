"""The tuning parameter space of Table 3.

The exhaustive search (Section 3.1.1) sweeps the *input* parameters
(``dim``, ``tsize``, ``dsize``) and, for each instance, the *tunable*
parameters (``cpu-tile``, ``band``, ``gpu-count``, ``gpu-tile``, ``halo``).
The paper spaces band/halo/tsize values irregularly "to avoid any cyclic
pattern"; :class:`ParameterSpace` reproduces that by generating irregular
sequences deterministically from a seed.

Two preset spaces are provided:

* :meth:`ParameterSpace.paper` — the ranges of Table 3;
* :meth:`ParameterSpace.reduced` — a coarser grid with the same shape, used
  by the test-suite and the quick benchmark mode so sweeps finish in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.exceptions import InvalidParameterError
from repro.core.params import InputParams, TunableParams
from repro.utils.rng import make_rng

#: Table 3 input parameter values.
PAPER_DIMS = (500, 700, 1100, 1900, 2700, 3100)
PAPER_TSIZES = (10, 50, 100, 500, 750, 1000, 2000, 4000, 6000, 8000, 10000, 12000)
PAPER_DSIZES = (1, 3, 5)
PAPER_CPU_TILES = (1, 2, 4, 8, 10)
PAPER_GPU_TILES = (1, 4, 8, 11, 16, 21, 25)

#: Reduced grids with the same spread, for tests and quick benches.
REDUCED_DIMS = (500, 1100, 1900, 2700)
REDUCED_TSIZES = (10, 100, 750, 2000, 6000, 12000)
REDUCED_DSIZES = (1, 5)
REDUCED_CPU_TILES = (1, 4, 8)
REDUCED_GPU_TILES = (1, 8, 16)


@dataclass(frozen=True)
class ParameterSpace:
    """Cartesian description of the instances and configurations to sweep."""

    dims: Sequence[int] = PAPER_DIMS
    tsizes: Sequence[float] = PAPER_TSIZES
    dsizes: Sequence[int] = PAPER_DSIZES
    cpu_tiles: Sequence[int] = PAPER_CPU_TILES
    gpu_tiles: Sequence[int] = PAPER_GPU_TILES
    #: How many band values to sample per instance (irregularly spaced).
    n_band_values: int = 8
    #: How many non-trivial halo values to sample per (instance, band).
    n_halo_values: int = 4
    #: Seed for the irregular band/halo spacing.
    seed: int = 7

    def __post_init__(self) -> None:
        for name in ("dims", "tsizes", "dsizes", "cpu_tiles", "gpu_tiles"):
            values = getattr(self, name)
            if len(values) == 0:
                raise InvalidParameterError(f"{name} must not be empty")
        if self.n_band_values < 1:
            raise InvalidParameterError("n_band_values must be >= 1")
        if self.n_halo_values < 1:
            raise InvalidParameterError("n_halo_values must be >= 1")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "ParameterSpace":
        """The full Table 3 space."""
        return cls()

    @classmethod
    def reduced(cls, n_band_values: int = 5, n_halo_values: int = 3) -> "ParameterSpace":
        """A coarser space with the same structure, for tests / quick benches."""
        return cls(
            dims=REDUCED_DIMS,
            tsizes=REDUCED_TSIZES,
            dsizes=REDUCED_DSIZES,
            cpu_tiles=REDUCED_CPU_TILES,
            gpu_tiles=REDUCED_GPU_TILES,
            n_band_values=n_band_values,
            n_halo_values=n_halo_values,
        )

    @classmethod
    def tiny(cls) -> "ParameterSpace":
        """A minimal space used by unit tests (a handful of configurations)."""
        return cls(
            dims=(64, 128),
            tsizes=(10, 500),
            dsizes=(1,),
            cpu_tiles=(1, 4),
            gpu_tiles=(1, 8),
            n_band_values=3,
            n_halo_values=2,
        )

    # ------------------------------------------------------------------
    # Instances (input parameters)
    # ------------------------------------------------------------------
    def instances(self) -> Iterator[InputParams]:
        """Iterate every (dim, tsize, dsize) instance of the space."""
        for dim in self.dims:
            for tsize in self.tsizes:
                for dsize in self.dsizes:
                    yield InputParams(dim=dim, tsize=tsize, dsize=dsize)

    @property
    def n_instances(self) -> int:
        """Number of instances in the space."""
        return len(self.dims) * len(self.tsizes) * len(self.dsizes)

    # ------------------------------------------------------------------
    # Tunable values per instance
    # ------------------------------------------------------------------
    def band_values(self, dim: int) -> list[int]:
        """Irregularly spaced band values for a given ``dim``.

        Always includes -1 (no GPU), a small band, a mid band and the maximal
        band ``dim - 1`` (whole grid on the GPU); the remaining values are
        drawn irregularly, deterministically from the space's seed.
        """
        if dim < 2:
            raise InvalidParameterError(f"dim must be >= 2, got {dim}")
        max_band = dim - 1
        anchors = {-1, 0, max_band}
        rng = make_rng(self.seed * 1_000_003 + dim)
        # Irregular interior points, biased towards mid-size bands where the
        # interesting CPU/GPU trade-off lives.
        while len(anchors) < self.n_band_values + 1:
            frac = float(rng.beta(2.0, 2.0))
            anchors.add(int(round(frac * max_band)))
        return sorted(anchors)

    def halo_values(self, dim: int, band: int) -> list[int]:
        """Halo values for a given band: -1 (single GPU) plus irregular sizes."""
        if band < 0:
            return [-1]
        first_len = dim - min(band, dim - 1)
        max_halo = max(0, first_len // 2)
        values = {-1, 0}
        if max_halo > 0:
            values.add(max_halo)
            rng = make_rng(self.seed * 2_000_003 + dim * 31 + band)
            while len(values) < self.n_halo_values + 2 and len(values) < max_halo + 2:
                values.add(int(rng.integers(1, max_halo + 1)))
        return sorted(values)

    def configurations(
        self, instance: InputParams, max_gpus: int = 2
    ) -> Iterator[TunableParams]:
        """Iterate the tunable configurations explored for one instance.

        ``max_gpus`` restricts the space to what the target platform offers
        (the i3-540 system has a single GPU, so no halo dimension).
        """
        if max_gpus < 0:
            raise InvalidParameterError(f"max_gpus must be >= 0, got {max_gpus}")
        dim = instance.dim
        for cpu_tile in self.cpu_tiles:
            for band in self.band_values(dim):
                if band < 0:
                    yield TunableParams(cpu_tile=min(cpu_tile, dim))
                    continue
                if max_gpus == 0:
                    continue
                halos = self.halo_values(dim, band)
                for halo in halos:
                    if halo >= 0 and max_gpus < 2:
                        continue
                    for gpu_tile in self.gpu_tiles:
                        yield TunableParams.from_encoding(
                            cpu_tile=cpu_tile, band=band, halo=halo, gpu_tile=gpu_tile
                        ).clipped(dim)

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Summary dictionary (used by the Table 3 bench report)."""
        return {
            "dims": list(self.dims),
            "tsizes": list(self.tsizes),
            "dsizes": list(self.dsizes),
            "cpu_tiles": list(self.cpu_tiles),
            "gpu_tiles": list(self.gpu_tiles),
            "n_band_values": self.n_band_values,
            "n_halo_values": self.n_halo_values,
            "n_instances": self.n_instances,
        }
