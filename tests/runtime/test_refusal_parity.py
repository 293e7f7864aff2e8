"""A functional run refuses exactly what it refused while it was also priced.

Executors used to price every functional run through the cost model, which
was a second place that could refuse a plan.  ``data/refusals_pinned.json``
records, per (system, backend, engine, tunables), what a functional run
answered — ``"ok"`` or the exception type — through :class:`Session` and
through a bare executor; it was written before pricing left the executors
with::

    PYTHONPATH=src python tests/runtime/test_refusal_parity.py \
        > tests/runtime/data/refusals_pinned.json
"""

import json
import sys
from pathlib import Path

import pytest

from repro import ExecutionPolicy, Session, TunableParams
from repro.apps.registry import get_application
from repro.runtime.registry import get_executor
from test_simulate_pinned import _system

FIXTURE = Path(__file__).parent / "data" / "refusals_pinned.json"
SYSTEMS = ("local", "i3-540", "i7-3820")
#: ``(backend, engine)`` pairs: every engine, and the hybrid executor's fills.
ENGINES = (
    ("serial", None), ("vectorized", None), ("mp-parallel", None), ("pipelined", None),
    ("hybrid", None), ("hybrid", "serial"), ("hybrid", "mp-parallel"),
)
TUNABLES = {
    "default": TunableParams(),
    "tile-4": TunableParams(cpu_tile=4),
    "tile-64": TunableParams(cpu_tile=64),
    "1gpu": TunableParams.from_encoding(cpu_tile=2, band=2, halo=-1),
    "1gpu-wide": TunableParams.from_encoding(cpu_tile=1, band=50, halo=-1, gpu_tile=3),
    "2gpu": TunableParams.from_encoding(cpu_tile=2, band=2, halo=1),
    "2gpu-halo": TunableParams.from_encoding(cpu_tile=1, band=0, halo=30, gpu_tile=2),
}
APP, DIM = "lcs", 12


def _outcome(call) -> str:
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is the recorded answer
        return type(exc).__name__
    return "ok"


def outcomes(system_name: str) -> dict[str, list[str]]:
    """``"backend+engine/tunables" -> [session outcome, bare executor outcome]``."""
    system = _system(system_name)
    problem = get_application(APP).problem(DIM)
    out = {}
    with Session(system=system) as session:
        for backend, engine in ENGINES:
            for label, tunables in TUNABLES.items():
                policy = ExecutionPolicy(
                    backend=backend, engine=engine, tunables=tunables, workers=1
                )
                kwargs = {"engine": engine} if engine is not None else {}
                if engine in ("mp-parallel", "pipelined") or backend in ("mp-parallel", "pipelined"):
                    kwargs["workers"] = 1
                out[f"{backend}+{engine}/{label}"] = [
                    _outcome(lambda: session.solve(APP, DIM, policy=policy)),
                    _outcome(
                        lambda: get_executor(backend, system, **kwargs).execute(problem, tunables)
                    ),
                ]
    return out


def test_the_fixture_holds_refusals_and_answers():
    pinned = json.loads(FIXTURE.read_text())
    answers = {answer for system in pinned.values() for pair in system.values() for answer in pair}
    assert answers == {"ok", "InvalidParameterError"}


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_every_functional_refusal_is_unchanged(system_name):
    assert outcomes(system_name) == json.loads(FIXTURE.read_text())[system_name]


if __name__ == "__main__":
    json.dump({name: outcomes(name) for name in SYSTEMS}, sys.stdout, indent=1)
    sys.stdout.write("\n")
