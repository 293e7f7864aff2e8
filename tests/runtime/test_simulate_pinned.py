"""Simulate mode is pinned bit for bit, per backend, through ``Session.run``.

A simulate run prices a plan without computing it: ``rtime``, every
:class:`PhaseBreakdown` field and the tunables the result records are a
function of the plan and the platform alone.  ``data/simulate_pinned.json``
holds, per (system, backend, workers), the SHA-256 of those values over a
thinned slice of the default :class:`ParameterSpace` on three instances; it
was written before pricing moved out of the executors with::

    PYTHONPATH=src python tests/runtime/test_simulate_pinned.py \
        > tests/runtime/data/simulate_pinned.json

``local`` is a fixed two-core, GPU-less spec under the local system's name,
so the digests do not depend on the host that runs them.  Equality is
``==`` on bytes: no tolerance.
"""

import dataclasses
import hashlib
import json
import struct
import sys
from pathlib import Path

import pytest

from repro import ExecutionPolicy, Session
from repro.core.parameter_space import ParameterSpace
from repro.hardware.cpu import CPUSpec
from repro.hardware.platforms import get_system
from repro.hardware.system import LOCAL_SYSTEM_NAME, SystemSpec
from repro.runtime.registry import available_executors

FIXTURE = Path(__file__).parent / "data" / "simulate_pinned.json"
SYSTEMS = (LOCAL_SYSTEM_NAME, "i3-540", "i7-2600K", "i7-3820")
BACKENDS = ("hybrid", "mp-parallel", "pipelined", "serial", "vectorized")
WORKERS = (1, 2)
#: ``(app, dim, constructor arguments)`` of the priced instances.
INSTANCES = (
    ("synthetic", 100, {"tsize": 10.0, "dsize": 1}),
    ("synthetic", 500, {"tsize": 750.0, "dsize": 5}),
    ("lcs", 64, {}),
)
#: Every ``THIN``-th GPU configuration (all CPU-only ones are kept).
THIN = 23
BREAKDOWN_FIELDS = (
    "pre_s", "post_s", "gpu_compute_s", "gpu_launch_s",
    "gpu_sync_s", "halo_s", "transfer_s", "startup_s",
)
PINNED_LOCAL = SystemSpec(
    name=LOCAL_SYSTEM_NAME,
    cpu=CPUSpec(name="pinned-local-cpu", freq_mhz=2400.0, cores=2, mem_gb=4.0,
                hyperthreaded=False),
    gpus=(),
)


def _system(name: str) -> SystemSpec:
    return PINNED_LOCAL if name == LOCAL_SYSTEM_NAME else get_system(name)


def _configurations(session, instance, system):
    app, dim, kwargs = instance
    params = session.plan(app, dim, policy=ExecutionPolicy(backend="serial"), **kwargs).params
    configurations = list(ParameterSpace().configurations(params, system.max_usable_gpus))
    cpu = [t for t in configurations if t.is_cpu_only]
    return cpu + [t for t in configurations if not t.is_cpu_only][::THIN]


def digests(system_name: str) -> dict[str, list]:
    """``"backend/workers" -> [runs, sha256 of their prices and tunables]``."""
    system = _system(system_name)
    out = {}
    with Session(system=system, cache_size=4) as session:
        slices = [(instance, _configurations(session, instance, system)) for instance in INSTANCES]
        for backend in BACKENDS:
            for workers in WORKERS:
                sha = hashlib.sha256()
                runs = 0
                for (app, dim, kwargs), configurations in slices:
                    for tunables in configurations:
                        policy = ExecutionPolicy(backend=backend, tunables=tunables, workers=workers)
                        plan = session.plan(app, dim, policy=policy, **kwargs)
                        result = session.run(plan, mode="simulate")
                        doubles = [result.rtime] + [
                            getattr(result.breakdown, name) for name in BREAKDOWN_FIELDS
                        ]
                        sha.update(struct.pack(f"<{len(doubles)}d", *doubles))
                        sha.update(struct.pack("<5q", *dataclasses.astuple(result.tunables)))
                        runs += 1
                out[f"{backend}/{workers}"] = [runs, sha.hexdigest()]
    return out


def test_the_fixture_covers_every_registered_backend():
    assert sorted(BACKENDS) == available_executors()


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_every_simulate_answer_equals_the_pinned_one(system_name):
    pinned = json.loads(FIXTURE.read_text())
    assert pinned["fields"] == ["rtime", *BREAKDOWN_FIELDS, "tunables"]
    assert digests(system_name) == pinned["systems"][system_name]


if __name__ == "__main__":
    json.dump(
        {
            "fields": ["rtime", *BREAKDOWN_FIELDS, "tunables"],
            "thin": THIN,
            "systems": {name: digests(name) for name in SYSTEMS},
        },
        sys.stdout,
        indent=1,
    )
    sys.stdout.write("\n")
