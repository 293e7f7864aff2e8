"""Heterogeneous platform descriptions and the analytic cost model.

The paper evaluates on three physical systems (Table 4).  This reproduction
has no GPUs available, so :mod:`repro.hardware.platforms` describes the same
three systems as data, and :mod:`repro.hardware.costmodel` prices a plan on
them: simulate mode and the tuners' sweeps charge simulated time for the
first-order effects the paper reasons about (Section 2.1) — relative CPU/GPU
per-point speed, PCIe transfer cost, kernel-launch overhead, work-group
synchronisation, GPU start-up cost, halo-swap cost and redundant halo
computation.  A functional run is never priced.

The package loads the platform descriptions only: import the cost model
from :mod:`repro.hardware.costmodel`, so a process that only executes
never loads it.
"""

from repro.hardware.cpu import CPUSpec
from repro.hardware.gpu import GPUSpec
from repro.hardware.system import SystemSpec
from repro.hardware import platforms

__all__ = [
    "CPUSpec",
    "GPUSpec",
    "SystemSpec",
    "platforms",
]
