"""The three experimental systems of Table 4, plus helper constructors.

=========  ==========  =========  =======  ==================  =========  ====  ========
System     CPU MHz     Cores(HT)  Mem GB   GPU                 GPU MHz    CU    GPU GB
=========  ==========  =========  =======  ==================  =========  ====  ========
i3-540     1200        4          4        GeForce GTX 480     1401       15    1.6
i7-2600K   1600        8          8        4x GeForce GTX 590  1215       16    1.6
i7-3820    3601        8          16       Tesla C2070, C2075  1147       14    6.4
=========  ==========  =========  =======  ==================  =========  ====  ========

The i3-540 hosts a single GPU; the i7-2600K hosts four GTX 590 dies of which
the paper's tuner uses at most two; the i7-3820 hosts two Tesla boards.
"""

from __future__ import annotations

from repro.core.exceptions import UnknownSystemError
from repro.hardware.cpu import CPUSpec
from repro.hardware.gpu import GPUSpec
from repro.hardware.system import InterconnectSpec, SystemSpec

# ----------------------------------------------------------------------
# CPUs
# ----------------------------------------------------------------------
I3_540_CPU = CPUSpec(name="Intel Core i3-540", freq_mhz=1200, cores=4, mem_gb=4)
I7_2600K_CPU = CPUSpec(name="Intel Core i7-2600K", freq_mhz=1600, cores=8, mem_gb=8)
I7_3820_CPU = CPUSpec(name="Intel Core i7-3820", freq_mhz=3601, cores=8, mem_gb=16)

# ----------------------------------------------------------------------
# GPUs
# ----------------------------------------------------------------------
GTX_480 = GPUSpec(name="GeForce GTX 480", freq_mhz=1401, compute_units=15, mem_gb=1.6)
GTX_590 = GPUSpec(name="GeForce GTX 590", freq_mhz=1215, compute_units=16, mem_gb=1.6)
TESLA_C2070 = GPUSpec(name="Tesla C2070", freq_mhz=1147, compute_units=14, mem_gb=6.4)
TESLA_C2075 = GPUSpec(name="Tesla C2075", freq_mhz=1147, compute_units=14, mem_gb=6.4)

# ----------------------------------------------------------------------
# Systems (Table 4 rows)
# ----------------------------------------------------------------------
I3_540 = SystemSpec(
    name="i3-540",
    cpu=I3_540_CPU,
    gpus=(GTX_480,),
    interconnect=InterconnectSpec(bandwidth_gbs=4.0, latency_us=25.0),
)

I7_2600K = SystemSpec(
    name="i7-2600K",
    cpu=I7_2600K_CPU,
    gpus=(GTX_590, GTX_590, GTX_590, GTX_590),
    interconnect=InterconnectSpec(bandwidth_gbs=5.0, latency_us=20.0),
)

I7_3820 = SystemSpec(
    name="i7-3820",
    cpu=I7_3820_CPU,
    gpus=(TESLA_C2070, TESLA_C2075),
    interconnect=InterconnectSpec(bandwidth_gbs=6.0, latency_us=18.0),
)

#: The three paper systems in the order they appear in Table 4.
ALL_SYSTEMS: tuple[SystemSpec, ...] = (I3_540, I7_2600K, I7_3820)

#: Systems by name, for CLI / config lookup.
SYSTEMS_BY_NAME: dict[str, SystemSpec] = {s.name: s for s in ALL_SYSTEMS}


def get_system(name: str) -> SystemSpec:
    """Look up one of the paper's systems by its Table 4 name."""
    try:
        return SYSTEMS_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(SYSTEMS_BY_NAME))
        raise UnknownSystemError(
            f"unknown system {name!r}; known systems: {known} (or 'local')"
        ) from None


def resolve_system(name: str) -> SystemSpec:
    """Resolve a system name, including the introspected ``local`` host.

    ``"local"`` introspects the machine running this process
    (:func:`repro.hardware.system.detect_local_system`); every other name is
    looked up in the Table 4 registry via :func:`get_system`.
    """
    from repro.hardware.system import LOCAL_SYSTEM_NAME, detect_local_system

    if name == LOCAL_SYSTEM_NAME:
        return detect_local_system()
    return get_system(name)
