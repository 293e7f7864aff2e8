"""The simulated clock is pinned bit for bit, not assumed.

``rtime`` and every :class:`PhaseBreakdown` field drive the tuner's training
set, the trained models and every figure artifact, so a change to how the
cost model *obtains* its inputs (the plan, the band's diagonal lengths) must
leave every double it produces identical.  ``data/costmodel_pinned.json``
holds, per (system, instance), the SHA-256 of those doubles over a thinned
slice of the default :class:`ParameterSpace`; it was written at the commit
before the plan became the owner of its geometry with::

    PYTHONPATH=src python tests/hardware/test_costmodel_pinned.py \
        > tests/hardware/data/costmodel_pinned.json

(the full space x three systems x dims 500 / 1900 — 243 000 configurations —
was compared the same way when the fixture was made).  Equality is ``==`` on
bytes: no tolerance.
"""

import dataclasses
import hashlib
import json
import struct
import sys
from pathlib import Path

import pytest

from repro.core.parameter_space import ParameterSpace
from repro.hardware.costmodel import CostModel, PhaseBreakdown
from repro.hardware.platforms import get_system

FIXTURE = Path(__file__).parent / "data" / "costmodel_pinned.json"
SYSTEMS = ("i3-540", "i7-2600K", "i7-3820")
FIELDS = [field.name for field in dataclasses.fields(PhaseBreakdown)]
#: Every ``THIN``-th configuration of each instance's default-space sweep.
THIN = 7
SPACE = dataclasses.replace(
    ParameterSpace(), dims=(500, 1900), tsizes=(10, 750, 12000), dsizes=(1, 5)
)


def digests(system_name: str) -> dict[str, list]:
    """``"dim/tsize/dsize" -> [configurations, sha256 of their doubles]``."""
    system = get_system(system_name)
    model = CostModel(system)
    out = {}
    for instance in SPACE.instances():
        configurations = list(SPACE.configurations(instance, system.max_usable_gpus))[::THIN]
        sha = hashlib.sha256()
        for tunables in configurations:
            breakdown = model.hybrid_breakdown(instance, tunables)
            doubles = [getattr(breakdown, name) for name in FIELDS]
            doubles += [breakdown.total_s, model.predict(instance, tunables)]
            sha.update(struct.pack(f"<{len(doubles)}d", *doubles))
        key = f"{instance.dim}/{instance.tsize}/{instance.dsize}"
        out[key] = [len(configurations), sha.hexdigest()]
    return out


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_every_simulated_double_equals_the_pinned_one(system_name):
    pinned = json.loads(FIXTURE.read_text())
    assert pinned["fields"] == FIELDS + ["total_s", "predict"]
    expected = pinned["systems"][system_name]
    assert sum(count for count, _ in expected.values()) >= 400
    assert digests(system_name) == expected


if __name__ == "__main__":
    json.dump(
        {
            "fields": FIELDS + ["total_s", "predict"],
            "thin": THIN,
            "systems": {name: digests(name) for name in SYSTEMS},
        },
        sys.stdout,
        indent=1,
    )
    sys.stdout.write("\n")
