"""GPU device specification (the accelerator side of Table 4)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import InvalidParameterError

#: Work-items that one compute unit keeps in flight for wavefront kernels.
#: Fermi-class SMs schedule warps of 32, but diagonal-major wavefront kernels
#: rarely keep every lane busy; 8 effective lanes reproduces the moderate
#: (order 10-20x) peak speedups the paper reports.
DEFAULT_LANES_PER_CU = 8


@dataclass(frozen=True)
class GPUSpec:
    """One GPU device of the platform."""

    name: str
    freq_mhz: float
    compute_units: int
    mem_gb: float
    lanes_per_cu: int = DEFAULT_LANES_PER_CU

    def __post_init__(self) -> None:
        if self.freq_mhz <= 0:
            raise InvalidParameterError(f"freq_mhz must be positive, got {self.freq_mhz}")
        if self.compute_units < 1:
            raise InvalidParameterError(
                f"compute_units must be >= 1, got {self.compute_units}"
            )
        if self.mem_gb <= 0:
            raise InvalidParameterError(f"mem_gb must be positive, got {self.mem_gb}")
        if self.lanes_per_cu < 1:
            raise InvalidParameterError(
                f"lanes_per_cu must be >= 1, got {self.lanes_per_cu}"
            )

    @property
    def freq_ghz(self) -> float:
        """Clock frequency in GHz."""
        return self.freq_mhz / 1000.0

    @property
    def parallel_width(self) -> int:
        """Work-items the device can execute concurrently on one diagonal."""
        return self.compute_units * self.lanes_per_cu

    def describe(self) -> str:
        """One-line human readable description."""
        return (
            f"{self.name} ({self.compute_units} CUs @ {self.freq_mhz:.0f} MHz, "
            f"{self.mem_gb:g} GB)"
        )
