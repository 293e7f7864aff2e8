"""One rerunnable benchmark of the whole system, measured from outside.

    python3 bench/run.py --seed 11                      # all five workloads
    python3 bench/run.py --workload serve-tiny --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --seed 11 --trace 1            # the per-layer run

Every workload is generated from ``--seed``, set up (several times, for a
median set-up time), driven closed-loop through the program's public
surface for a fixed number of operations sized by ``--seconds``, and every
answer is compared with an independent serial reference.  Each metric is
printed by name with its unit.  With ``--workload`` the last line of
standard output is the contract object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names.  A result file with provenance goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
import warnings
from pathlib import Path

from common import (
    DEFAULT_OUT,
    SCHEMA,
    Verifier,
    fingerprint,
    git_commit,
    load_spec,
    median,
    reap_children,
    require_program,
)


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: Path) -> dict:
    """Generate, set up, time and verify one workload; its result record."""
    import layers
    import workloads

    started = time.perf_counter()
    workload = workloads.build(name, seed, seconds, smoke)
    if trace:
        workload.setup_repeats = 1  # the traced run spends its time on the probes
    verifier = Verifier(workloads.reference_digests(workload.requests()))
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    metrics: dict[str, dict] = {}
    skipped: list[str] = []

    def put(metric: str, value: float, unit: str, samples: int) -> None:
        metrics[metric] = {"value": value, "unit": unit, "samples": samples}

    with workloads.stack_for(workload, verifier, out_dir) as stack:
        data = stack.run_timed()
        tracer = layers.trace(workload, stack, data, out_dir, list(units)) if trace else None
        stack.finish()

    put("setup_s", median(data.setups), "s", len(data.setups))
    put("latency_p50_ms", 1e3 * data.latency_p50, "ms", len(data.latencies))
    put("cells_per_s", data.verified_cells / data.timed_wall, "cells/s", data.verified_ops)
    put("throughput_rps", data.verified_ops / data.timed_wall, "1/s", data.verified_ops)
    put("hit_p50_ms", 1e3 * data.hit_p50, "ms", len(data.repeats))
    put("miss_p50_ms", 1e3 * data.miss_p50, "ms", len(data.first_seen))
    put("peak_rss_mb", data.peak_rss_mb, "MB", 1)
    if tracer is not None:
        for metric, (value, samples) in tracer.metrics.items():
            put(metric, value, units[metric], samples)
        skipped = tracer.skipped

    problems = list(verifier.errors)
    if data.shm_leaked:
        problems.append(f"{data.shm_leaked} /dev/shm entries left after Session.close()")
    if workload.cache:
        swept = data.metrics_after["cache"]["misses"] - data.metrics_before["cache"]["misses"]
        distinct = workload.op_counts()["distinct_timed"]
        if swept != distinct:
            problems.append(f"cache.misses {swept} != {distinct} first occurrences")
    return {
        "ops": workload.op_counts(),
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "failed_share": verifier.failed / verifier.attempted,
        "correct": not problems,
        "problems": problems,
        "skipped": skipped,
        "wall_s": time.perf_counter() - started,
        # Times in `metrics` are on the nominal host (common.HostSpeed);
        # these are the host's own clock and its calibration-kernel wall.
        "host": {
            "kernel_ms": 1e3 * data.speed.median_s(),
            "nominal_kernel_ms": 1e3 * data.speed.NOMINAL_S,
            "kernel_samples": len(data.speed.starts),
            "raw_latency_p50_ms": 1e3 * median(data.raw_latencies),
        },
        "metrics": metrics,
    }


def contract_line(record: dict, names: list[dict]) -> str:
    """The driver's result object: the named metrics, finite values only."""
    chosen = {}
    for entry in names:
        metric = record["metrics"].get(entry["name"])
        if metric is not None and math.isfinite(metric["value"]):
            chosen[entry["name"]] = {"value": metric["value"], "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": chosen,
        }
    )


def report(name: str, record: dict) -> None:
    """Every metric by name, with its unit and sample count."""
    ops = record["ops"]
    print(f"== {name}: {ops['timed_ops']} timed ops ({ops['distinct_timed']} distinct), "
          f"{record['attempted']} verified, {record['failed']} failed "
          f"(failed_share {record['failed_share']:.4f}), {record['wall_s']:.1f} s")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<36} {entry['value']:>16.6g} {entry['unit']:<8} n={entry['samples']}")
    for line in record["skipped"]:
        print(f"  skipped: {line}")
    for line in record["problems"]:
        print(f"  PROBLEM: {line}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="sizes the fixed operation counts of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the separate per-layer run")
    parser.add_argument("--smoke", action="store_true", help="toy operation counts")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result files, traces and temp dirs")
    args = parser.parse_args(argv)
    require_program()

    started = time.perf_counter()
    chosen = [args.workload] if args.workload else names
    records = {}
    # Overrides go through policy= only; a DeprecationWarning would mean the
    # harness drifted off the program's current public surface.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeprecationWarning)
        for name in chosen:
            records[name] = run_workload(
                spec, name, args.seed, args.seconds, bool(args.trace), args.smoke, args.out
            )
            report(name, records[name])
    deprecations = sum(issubclass(w.category, DeprecationWarning) for w in caught)
    print(f"DeprecationWarnings: {deprecations}")
    result = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "fingerprint": fingerprint(),
        "git_commit": git_commit(),
        "deprecation_warnings": deprecations,
        "wall_total_s": time.perf_counter() - started,
        "workloads": records,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    scope = args.workload or "all"
    path = args.out / f"result_{scope}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    if args.workload:
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        print(contract_line(records[args.workload], wanted))
        return 0  # the result object carries `correct`
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    # Whatever way the run ends (SIGTERM too), no process it started outlives it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
