#!/usr/bin/env python
"""Smoke-scale perf-regression gate for CI.

Compares a freshly measured ``repro bench`` JSON against a committed
baseline.  Absolute wall-clock times are useless across CI machines, so
each executor is normalised by the *serial* executor's time on the same
application in the same run; the gate fails only when that machine-neutral
ratio degrades by more than ``--threshold`` (generous by design — it exists
to catch gross, order-of-magnitude regressions, not noise):

    fresh_norm > threshold * baseline_norm   ->  FAIL

Also fails when any fresh result did not match the serial reference grid.

With ``--plan`` (a ``repro run --plan-out`` file of the *default* plan) the
gate also checks the tuner's engine decision against the same fresh JSON:
the plan's CPU-phase engine may not be more than 1.25x (``PLAN_BOUND``,
the tuner's own acceptance bound) slower than the fastest serial-family
engine benched on the plan's application — both walls come from one
process on one machine, so the ratio is machine-neutral.

Usage (CI):

    python -m repro bench --dim 96 --apps synthetic,lcs \
        --executors serial,vectorized,mp-parallel \
        --out /tmp/perf_smoke.json
    python -m repro run --app lcs --dim 96 --system local --plan-out /tmp/plan.json
    python scripts/check_perf.py --fresh /tmp/perf_smoke.json \
        --baseline benchmarks/results/ci_baseline.json --plan /tmp/plan.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_normalised(path: Path) -> tuple[dict[tuple[str, str], float], list[str]]:
    """Map of (application, executor) -> time normalised by serial, plus errors."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    records = payload["results"]
    serial: dict[str, float] = {
        r["application"]: r["wall_s_best"]
        for r in records
        if r["executor"] == "serial"
    }
    normalised: dict[tuple[str, str], float] = {}
    errors: list[str] = []
    for r in records:
        app, executor = r["application"], r["executor"]
        if r.get("matches_serial") is False:
            errors.append(f"{app}/{executor}: grid did not match the serial reference")
        if app not in serial:
            continue
        normalised[(app, executor)] = r["wall_s_best"] / serial[app]
    return normalised, errors


#: The tuner's own acceptance bound: how much slower than the fastest
#: serial-family engine the default plan's engine may measure.
PLAN_BOUND = 1.25


def check_plan(fresh: dict[tuple[str, str], float], plan_path: Path) -> list[str]:
    """Failures of the default plan's engine against the fresh serial family.

    ``fresh`` is :func:`load_normalised`'s map; both engines are normalised
    by the same serial wall, so their quotient is the plain wall ratio.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.runtime.registry import SERIAL_ENGINES

    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    app, engine = plan["app"], plan.get("engine")
    family = {e: fresh[(app, e)] for e in SERIAL_ENGINES if (app, e) in fresh}
    if engine not in family:
        return [
            f"plan engine {engine!r} of {app} was not benched among the serial "
            f"family {sorted(family)}"
        ]
    fastest = min(family, key=family.get)
    ratio = family[engine] / family[fastest]
    status = "FAIL" if ratio > PLAN_BOUND else "ok"
    print(
        f"{app:<20} plan engine {engine}: {ratio:.2f}x the fastest serial-family "
        f"engine ({fastest}, base {family[fastest]:.3f}x serial)  {status}"
    )
    if ratio > PLAN_BOUND:
        return [
            f"default plan of {app} sweeps on {engine!r}, {ratio:.2f}x slower "
            f"than {fastest!r} (bound {PLAN_BOUND:.2f}x)"
        ]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path, required=True, help="bench JSON just measured")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/results/ci_baseline.json"),
        help="committed baseline bench JSON",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=3.0,
        help="fail when fresh normalised time exceeds baseline by this factor",
    )
    parser.add_argument(
        "--plan",
        type=Path,
        help="default-plan JSON (repro run --plan-out) whose engine is gated "
        "against the fastest serial-family engine in --fresh",
    )
    args = parser.parse_args()

    fresh, errors = load_normalised(args.fresh)
    baseline, _ = load_normalised(args.baseline)

    failures = list(errors)
    compared = 0
    for key, base_norm in sorted(baseline.items()):
        if key not in fresh or key[1] == "serial":
            continue
        compared += 1
        fresh_norm = fresh[key]
        ratio = fresh_norm / base_norm if base_norm > 0 else float("inf")
        status = "FAIL" if ratio > args.threshold else "ok"
        print(
            f"{key[0]:<20} {key[1]:<14} baseline {base_norm:8.3f}x serial, "
            f"fresh {fresh_norm:8.3f}x serial  ({ratio:5.2f}x baseline)  {status}"
        )
        if ratio > args.threshold:
            failures.append(
                f"{key[0]}/{key[1]}: {ratio:.2f}x slower than baseline "
                f"(threshold {args.threshold:.1f}x)"
            )

    if args.plan is not None:
        failures.extend(check_plan(fresh, args.plan))
    if compared == 0:
        failures.append("no overlapping (application, executor) pairs to compare")
    if failures:
        print("\nperf check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nperf check OK: {compared} pairs within {args.threshold:.1f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
