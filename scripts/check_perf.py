#!/usr/bin/env python
"""Smoke-scale perf-regression gate for CI.

Compares a freshly measured ``repro bench`` JSON against a committed
baseline.  Absolute wall-clock times are useless across CI machines, so
each executor is normalised by the *serial* executor's time on the same
application in the same run; the gate fails only when that machine-neutral
ratio degrades by more than ``--threshold`` (generous by design — it exists
to catch gross, order-of-magnitude regressions, not noise):

    fresh_norm > threshold * baseline_norm   ->  FAIL

Also fails when any fresh result did not match the serial reference:
``matches_serial`` is ``ExecutionResult.matches``, bit-identical grids and
witnesses.  The benched apps cover both walks of the tiled engines with a
witness each (``knapsack-ev`` by rows, ``stochastic-path`` by diagonals),
and ``nash-equilibrium``, whose fused evaluator makes the most ufunc calls
per diagonal (6 per inner iteration), so a slower dispatch spelling shows
there first; pairs absent from the baseline are checked for correctness
only.

With ``--plan`` (a ``repro run --plan-out`` file of the *default* plan) the
gate also checks the tuner's engine decision against the same fresh JSON:
the engine that fills the plan's grid (``fill_engine(backend, engine)``:
the backend of a whole-grid plan, the hybrid executor's engine otherwise)
may not be more than 1.25x (``PLAN_BOUND``,
the tuner's own acceptance bound) slower than the fastest serial-family
engine benched on the plan's application — both walls come from one
process on one machine, so the ratio is machine-neutral.

Every run also measures one paired in-process ratio (``check_hybrid_band``):
the paper's hybrid plan against the plain vectorized sweep of the same grid,
both on the vectorized engine.  The hybrid plan's band is computed by that
engine too, and everything else a hybrid solve reports — phase geometry,
the simulated devices' operation counts, the simulated breakdown — depends
on the plan alone and is kept with it after the first solve; the ratio is
bounded by ``HYBRID_BOUND`` so none of it can silently return to the
per-request path (the per-solve accounting it replaced measured 2.5x on this
grid, whose sweep is short enough for it to show).

Usage (CI):

    python -m repro bench --dim 96 \
        --apps synthetic,lcs,viterbi,knapsack-ev,stochastic-path,nash-equilibrium \
        --executors serial,vectorized,mp-parallel,pipelined \
        --repeats 3 --workers 2 --out /tmp/perf_smoke.json
    python -m repro run --app lcs --dim 96 --system local --plan-out /tmp/plan.json
    python scripts/check_perf.py --fresh /tmp/perf_smoke.json \
        --baseline benchmarks/results/ci_baseline.json --plan /tmp/plan.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
            errors.append(f"{app}/{executor}: grid or witness did not match the serial reference")
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
    sys.path.insert(0, SRC)
    from repro.runtime.registry import available_serial_engines, fill_engine

    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    app, engine = plan["app"], fill_engine(plan["backend"], plan.get("engine"))
    family = {e: fresh[(app, e)] for e in available_serial_engines() if (app, e) in fresh}
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


#: How much slower than the plain vectorized sweep the pinned hybrid plan
#: may run once its plan has been solved before (2.5x with per-solve band
#: accounting, 8-14x while the band emulation carried values).
HYBRID_BOUND = 1.3


def check_hybrid_band() -> list[str]:
    """Failure of the pinned hybrid plan against the pinned vectorized sweep.

    synthetic at dim 256 on the simulated i7-2600K, plan
    ``(cpu_tile, band, halo, gpu_tile) = (4, 192, 2, 1)`` — a 2 ms sweep, so
    a millisecond of per-request accounting cannot hide behind it; both
    walls are medians of 9 alternating solves in this process, so the ratio
    is machine-neutral.
    """
    sys.path.insert(0, SRC)
    from repro import ExecutionPolicy, Session
    from repro.core.params import TunableParams

    policies = {
        "hybrid": ExecutionPolicy(
            tunables=TunableParams.from_encoding(4, 192, 2, 1), engine="vectorized"
        ),
        "vectorized": ExecutionPolicy(backend="vectorized"),
    }
    walls: dict[str, list[float]] = {name: [] for name in policies}
    with Session(system="i7-2600K") as session:
        for repeat in range(10):
            for name, policy in policies.items():
                start = time.perf_counter()
                result = session.solve("synthetic", 256, policy=policy)
                if repeat:  # the first pass warms plans and problem caches
                    walls[name].append(time.perf_counter() - start)
                if name == "hybrid" and not result.stats.get("band_cells"):
                    return ["the pinned hybrid plan executed no GPU band"]
    hybrid, vectorized = (statistics.median(walls[name]) for name in policies)
    ratio = hybrid / vectorized
    status = "FAIL" if ratio > HYBRID_BOUND else "ok"
    print(
        f"{'synthetic':<20} hybrid plan (4, 192, 2, 1): {ratio:.2f}x the "
        f"vectorized sweep (base {vectorized * 1e3:.1f} ms)  {status}"
    )
    if ratio > HYBRID_BOUND:
        return [
            f"hybrid plan (4, 192, 2, 1) of synthetic/256 runs {ratio:.2f}x "
            f"the vectorized sweep (bound {HYBRID_BOUND:.1f}x)"
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
    failures.extend(check_hybrid_band())
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
