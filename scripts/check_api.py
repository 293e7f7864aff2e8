#!/usr/bin/env python
"""Public-API surface check: fail CI on unreviewed breaking changes.

The exported surface is everything a downstream user can import and call
without reading the source:

* ``repro.__all__`` (the package exports) and ``repro.server.__all__``
  (the serving subsystem exports);
* the public method signatures of the facade types —
  :class:`repro.session.Session`, :class:`repro.facade.plan.ResolvedPlan`,
  :class:`repro.facade.policy.ExecutionPolicy`,
  :class:`repro.runtime.registry.EngineSpec` (and the calling convention
  of its ``factory``: :class:`repro.runtime.executor_base.Executor` and
  :func:`repro.runtime.registry.get_executor`),
  :class:`repro.runtime.result.ExecutionResult`,
  :class:`repro.autotuner.protocol.Tuner`,
  :class:`repro.autotuner.protocol.PlanDecision` and the kernel interface
  :class:`repro.core.pattern.WavefrontKernel` — and of the serving
  types :class:`repro.server.ReproServer` / :class:`repro.server.ServerConfig`;
* the CLI verb names.

``python scripts/check_api.py`` compares the live surface against the
committed snapshot ``scripts/api_surface.json`` and exits non-zero listing
every drift, so a PR can only change the public API by also changing the
snapshot — making the break explicit in review.  After an *intentional*
change, regenerate with::

    python scripts/check_api.py --update

Run from the repository root (CI does) or anywhere inside it.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "scripts" / "api_surface.json"

sys.path.insert(0, str(REPO_ROOT / "src"))


def _signatures(cls) -> dict[str, str]:
    """Public method/property signatures of one class, name -> signature."""
    out: dict[str, str] = {}
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            out[name] = "<property>"
        elif isinstance(member, (staticmethod, classmethod)):
            out[name] = str(inspect.signature(member.__func__))
        elif callable(member):
            out[name] = str(inspect.signature(member))
    return out


def _dataclass_fields(cls) -> dict[str, str]:
    """Field name -> declared type string of one dataclass."""
    import dataclasses

    return {f.name: str(f.type) for f in dataclasses.fields(cls)}


def current_surface() -> dict:
    """Collect the live public surface of the package."""
    import repro
    import repro.server
    from repro.autotuner.protocol import PlanDecision, Tuner
    from repro.cli import build_parser
    from repro.core.pattern import WavefrontKernel
    from repro.facade.plan import ResolvedPlan
    from repro.facade.policy import ExecutionPolicy
    from repro.runtime.executor_base import Executor
    from repro.runtime.registry import EngineSpec, get_executor
    from repro.runtime.result import ExecutionResult
    from repro.server import ReproServer, ServerConfig
    from repro.session import Session

    verbs = sorted(
        build_parser()._subparsers._group_actions[0].choices  # noqa: SLF001
    )
    return {
        "repro.__all__": sorted(repro.__all__),
        "repro.server.__all__": sorted(repro.server.__all__),
        "Session.__init__": str(inspect.signature(Session.__init__)),
        "Session": _signatures(Session),
        "ResolvedPlan.fields": _dataclass_fields(ResolvedPlan),
        "ResolvedPlan": _signatures(ResolvedPlan),
        "ExecutionPolicy.fields": _dataclass_fields(ExecutionPolicy),
        "ExecutionPolicy": _signatures(ExecutionPolicy),
        "EngineSpec.fields": _dataclass_fields(EngineSpec),
        "Executor.__init__": str(inspect.signature(Executor.__init__)),
        "Executor": _signatures(Executor),
        "get_executor": str(inspect.signature(get_executor)),
        "ExecutionResult.fields": _dataclass_fields(ExecutionResult),
        "PlanDecision.fields": _dataclass_fields(PlanDecision),
        "Tuner": _signatures(Tuner),
        "WavefrontKernel": _signatures(WavefrontKernel),
        "ReproServer.__init__": str(inspect.signature(ReproServer.__init__)),
        "ReproServer": _signatures(ReproServer),
        "ServerConfig.fields": _dataclass_fields(ServerConfig),
        "cli.verbs": verbs,
    }


def _flatten(surface: dict, prefix: str = "") -> dict[str, object]:
    """Flatten the nested surface into dotted-path -> value entries."""
    flat: dict[str, object] = {}
    for key, value in surface.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def diff(snapshot: dict, live: dict) -> list[str]:
    """Human-readable drift lines between the snapshot and live surfaces."""
    old, new = _flatten(snapshot), _flatten(live)
    problems = []
    for path in sorted(set(old) | set(new)):
        if path not in new:
            problems.append(f"removed: {path} (was {old[path]!r})")
        elif path not in old:
            problems.append(f"added:   {path} = {new[path]!r}")
        elif old[path] != new[path]:
            problems.append(f"changed: {path}: {old[path]!r} -> {new[path]!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """Compare (or with ``--update`` regenerate) the API snapshot."""
    argv = argv if argv is not None else sys.argv[1:]
    live = current_surface()
    if "--update" in argv:
        SNAPSHOT.write_text(json.dumps(live, indent=2, sort_keys=True) + "\n")
        print(f"wrote {SNAPSHOT.relative_to(REPO_ROOT)}")
        return 0
    if not SNAPSHOT.exists():
        print(
            f"API check FAILED: no snapshot at {SNAPSHOT.relative_to(REPO_ROOT)}; "
            "run 'python scripts/check_api.py --update'"
        )
        return 1
    snapshot = json.loads(SNAPSHOT.read_text())
    problems = diff(snapshot, live)
    if problems:
        print(f"API check FAILED with {len(problems)} unreviewed surface changes:")
        for problem in problems:
            print(f"  - {problem}")
        print(
            "\nIf the change is intentional, regenerate the snapshot with\n"
            "  python scripts/check_api.py --update\n"
            "and include it in the PR so the break is reviewed explicitly."
        )
        return 1
    flat = _flatten(live)
    print(
        f"API check OK: {len(flat)} surface entries match "
        f"{SNAPSHOT.relative_to(REPO_ROOT)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
