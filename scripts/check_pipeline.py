#!/usr/bin/env python
"""Pipelined-dispatch regression gate for CI.

The dependency-driven pipelined scheduler exists to remove the per-wave
barrier of ``mp-parallel`` — it must never make things *slower*.  This
gate compares a freshly measured ``repro bench`` JSON against a committed
baseline and fails when, for any application, the pipelined executor's
best wall-clock exceeds the barriered (``mp-parallel``) executor's best
wall-clock by more than ``--threshold`` (default 1.05: pipelined may cost
at most 5% over barriered on the same host and run).  The ratio is
intra-run — both numbers come from the same bench invocation — so it is
machine-neutral by construction; the committed baseline documents the
expected ratios and guards against the bench grid silently losing one of
the two executors.

Also fails when any fresh result did not match the serial reference grid:
a pipelined schedule that reorders tile retirement incorrectly shows up
here as a correctness failure, not just a perf number.

Finally the no-refork gate, run in this process: six tiled signatures
(three applications x two tile sizes, alternating both tiled backends)
through one session, twice.  The second pass must fork nothing (same worker
pids, ``teams_built`` still 1), the session must hold exactly one
``/dev/shm`` segment while open, and ``close()`` must leave ``/dev/shm`` as
it found it.

Usage (CI):

    python -m repro bench --dim 96 --apps synthetic,lcs \
        --executors serial,mp-parallel,pipelined \
        --repeats 3 --workers 2 --out /tmp/pipeline_smoke.json
    python scripts/check_pipeline.py --fresh /tmp/pipeline_smoke.json \
        --baseline benchmarks/results/pipeline_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

BARRIERED = "mp-parallel"
PIPELINED = "pipelined"


def load_ratios(path: Path) -> tuple[dict[str, float], list[str]]:
    """Map of application -> pipelined/barriered wall ratio, plus errors."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    records = payload["results"]
    walls: dict[tuple[str, str], float] = {}
    errors: list[str] = []
    for r in records:
        app, executor = r["application"], r["executor"]
        if r.get("matches_serial") is False:
            errors.append(f"{app}/{executor}: grid did not match the serial reference")
        walls[(app, executor)] = r["wall_s_best"]
    ratios: dict[str, float] = {}
    for (app, executor), wall in sorted(walls.items()):
        if executor != PIPELINED:
            continue
        barriered = walls.get((app, BARRIERED))
        if barriered is None:
            errors.append(f"{app}: no {BARRIERED} record to compare {PIPELINED} against")
        elif barriered <= 0:
            errors.append(f"{app}: non-positive {BARRIERED} wall {barriered!r}")
        else:
            ratios[app] = wall / barriered
    return ratios, errors


def check_no_refork() -> list[str]:
    """Failures of the resident-team contract (see the module docstring)."""
    if not os.path.isdir("/dev/shm"):
        print("no-refork gate skipped: no /dev/shm to audit")
        return []
    sys.path.insert(0, SRC)
    from repro import ExecutionPolicy, Session
    from repro.core.params import TunableParams

    failures: list[str] = []
    before = set(os.listdir("/dev/shm"))
    with Session(system="i7-2600K") as session:
        plans = [
            session.plan(
                app,
                96,
                policy=ExecutionPolicy(
                    backend=backend, workers=2, tunables=TunableParams(cpu_tile=tile)
                ),
            )
            for app in ("lcs", "viterbi", "nash-equilibrium")
            for tile, backend in ((16, BARRIERED), (32, PIPELINED))
        ]
        passes = []
        for _ in range(2):
            for plan in plans:
                session.run(plan)
            info = session.cache_info()
            passes.append((info["teams"]["pids"], info["builds"]["teams_built"]))
            held = set(os.listdir("/dev/shm")) - before
            if len(held) != 1:
                failures.append(f"open session holds {len(held)} /dev/shm segments, not 1")
        (first_pids, _), (second_pids, built) = passes
        if built != 1 or first_pids != second_pids or len(first_pids) != 2:
            failures.append(
                f"second pass re-forked: teams_built={built}, worker pids "
                f"{first_pids} -> {second_pids}"
            )
    leaked = set(os.listdir("/dev/shm")) - before
    if leaked:
        failures.append(f"close() left {sorted(leaked)} in /dev/shm")
    if not failures:
        print(
            f"no-refork gate ok: {len(plans)} tiled signatures x 2 passes on one "
            f"team (pids {first_pids}), one segment while open, none after close"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path, required=True, help="bench JSON just measured")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/results/pipeline_baseline.json"),
        help="committed baseline bench JSON",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.05,
        help="fail when pipelined wall exceeds barriered wall by this factor",
    )
    args = parser.parse_args()

    fresh, errors = load_ratios(args.fresh)
    baseline, baseline_errors = load_ratios(args.baseline)

    failures = list(errors)
    failures += [f"baseline: {error}" for error in baseline_errors]
    compared = 0
    for app, base_ratio in sorted(baseline.items()):
        if app not in fresh:
            failures.append(f"{app}: present in baseline but missing from fresh run")
            continue
        compared += 1
        ratio = fresh[app]
        status = "FAIL" if ratio > args.threshold else "ok"
        print(
            f"{app:<20} {PIPELINED}/{BARRIERED} wall ratio: "
            f"baseline {base_ratio:5.3f}, fresh {ratio:5.3f}  "
            f"(threshold {args.threshold:.2f})  {status}"
        )
        if ratio > args.threshold:
            failures.append(
                f"{app}: pipelined is {ratio:.3f}x the barriered wall "
                f"(threshold {args.threshold:.2f}x)"
            )

    if compared == 0:
        failures.append("no applications with both pipelined and barriered records")
    failures += check_no_refork()
    if failures:
        print("\npipeline check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"\npipeline check OK: {compared} applications, pipelined within "
        f"{args.threshold:.2f}x of barriered"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
