#!/usr/bin/env python
"""Counter-based CI gates over ``scripts/loadgen.py`` artifacts.

One entry point, four gates, one per serving smoke job in ``ci.yml``:

* ``serve --fresh A`` — the artifact and its embedded ``/metrics``
  snapshot carry every documented field, at least ``--min-completed``
  requests completed, and no request failed or missed a deadline (no
  faults are injected, so none should);
* ``cache --cold A --warm B`` — two replays of the committed seeded trace
  against one persistent ``--cache-dir`` across a server restart: the
  warm one meets the committed hit-rate floor, solves nothing fresh, and
  its served p50 stays within the committed ratio of the cold one's (both
  numbers come from the same host and the same job); after each replay the
  server holds no instance data (``caches.problems.bytes`` is 0: a cached
  answer releases its inputs);
* ``chaos --fresh A`` — a replay through the committed fault plan: every
  scheduled fault fired, the deadline expiries stay within their band and
  the server counted them, and every request resolved with a typed
  outcome;
* ``adaptive --stable A --drifted B`` — two ``--adaptive on`` replays:
  zero drift on the clean one, drift within the committed band on the one
  armed with the committed ``slow@`` plan, every request observed, no
  error.

The gates share :func:`load`, :func:`trace_identity` (a replay names the
committed trace), :func:`correctness` (requests completed, zero failures,
zero mismatches, ``witness_verified == completed``) and :func:`report`
(the verdict and the exit code); each adds only its own rules, with its
thresholds in ``benchmarks/results/<gate>_baseline.json``.  No wall-clock
number crosses machines here: latency gating lives in ``bench/``.

Usage: ``python scripts/gates.py <gate> ...`` (``--help`` per gate).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINES = REPO_ROOT / "benchmarks" / "results"

#: Trace-meta fields that must agree between a replay and the committed trace.
TRACE_IDENTITY_KEYS = ("seed", "zipf_s", "requests", "mix")

#: Fields every loadgen artifact must carry under ``results``.
REQUIRED_RESULT_KEYS = (
    "completed", "rejected", "failed", "deadline_expired", "retries",
    "mismatches", "witness_verified", "wall_s", "throughput_rps", "latency_ms",
)
#: Fields every server-metrics snapshot must carry (the documented schema).
REQUIRED_METRICS_KEYS = (
    "uptime_s", "requests", "queue", "batches", "latency_ms", "throughput_rps",
)
#: Percentile fields of every latency summary.
REQUIRED_LATENCY_KEYS = ("p50", "p90", "p95", "p99", "mean", "max", "samples")


def load(path: Path) -> dict:
    """Read one JSON artifact or baseline."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def committed_trace_meta(baseline: dict) -> dict:
    """The ``meta`` of the trace a baseline names (repo-relative path)."""
    return load(REPO_ROOT / baseline["trace"]["path"])["meta"]


def trace_identity(name: str, artifact: dict, trace_meta: dict) -> list[str]:
    """Problems with the artifact's claim to have replayed the trace."""
    replayed = (artifact.get("meta") or {}).get("trace")
    if not isinstance(replayed, dict):
        return [f"{name}: artifact was not produced from a trace replay"]
    return [
        f"{name}: trace {key} is {replayed.get(key)!r}, the committed trace "
        f"has {trace_meta.get(key)!r}"
        for key in TRACE_IDENTITY_KEYS
        if replayed.get(key) != trace_meta.get(key)
    ]


def correctness(name: str, artifact: dict, min_completed: int | None = None) -> list[str]:
    """Zero-tolerance correctness problems of one artifact (empty = OK).

    Every request must have completed unless ``min_completed`` allows
    fewer; no request may have failed or mismatched the in-process
    reference, and every completed answer must have passed the full
    ``(grid, witness)`` verification.
    """
    results = artifact.get("results")
    if not isinstance(results, dict):
        return [f"{name}: artifact has no 'results' section"]
    problems = []
    completed = results.get("completed", 0)
    requests = (artifact.get("meta") or {}).get("requests")
    if min_completed is None and completed != requests:
        problems.append(f"{name}: only {completed} of {requests} requests completed")
    if min_completed is not None and completed < min_completed:
        problems.append(
            f"{name}: only {completed} requests completed (need >= {min_completed})"
        )
    if results.get("failed"):
        problems.append(f"{name}: {results['failed']} requests failed")
    if results.get("mismatches"):
        problems.append(
            f"{name}: {results['mismatches']} answers did not match in-process solving"
        )
    if results.get("witness_verified") != completed:
        problems.append(
            f"{name}: witness_verified={results.get('witness_verified')} != "
            f"completed={completed}: some answers passed without full "
            "(grid, witness) verification"
        )
    return problems


def report(gate: str, failures: list[str], summary: str) -> int:
    """Print the verdict of one gate; return its exit code."""
    if failures:
        print(f"\n{gate} check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\n{gate} check OK: {summary}")
    return 0


def gate_serve(args: argparse.Namespace) -> int:
    """Metrics shape and correctness of one plain loadgen run."""
    fresh = load(args.fresh)
    failures = correctness("fresh", fresh, min_completed=args.min_completed)
    results = fresh.get("results") or {}
    failures += [f"fresh: results.{key} missing" for key in REQUIRED_RESULT_KEYS if key not in results]
    latency = results.get("latency_ms") or {}
    missing_latency = [key for key in REQUIRED_LATENCY_KEYS if key not in latency]
    failures += [f"fresh: results.latency_ms.{key} missing" for key in missing_latency]
    if latency and not missing_latency and not latency["p50"] <= latency["p95"] <= latency["max"]:
        failures.append(
            f"fresh: latency percentiles are not monotonic: p50={latency['p50']:.2f} "
            f"p95={latency['p95']:.2f} max={latency['max']:.2f}"
        )
    metrics = fresh.get("server_metrics")
    if not isinstance(metrics, dict) or "error" in metrics:
        failures.append(f"fresh: server_metrics missing or unreadable: {metrics!r}")
    else:
        failures += [
            f"fresh: server_metrics.{key} missing"
            for key in REQUIRED_METRICS_KEYS
            if key not in metrics
        ]
        if "histogram" not in (metrics.get("batches") or {}):
            failures.append("fresh: server_metrics.batches.histogram missing")
    if results.get("deadline_expired"):
        failures.append(
            f"fresh: {results['deadline_expired']} requests missed their deadline "
            "(no chaos is injected in this gate, so none should)"
        )
    return report(
        "serve",
        failures,
        f"{results.get('completed')} verified requests, metrics well-formed",
    )


def gate_cache(args: argparse.Namespace) -> int:
    """A warm replay of the committed trace must be served from the cache."""
    cold, warm = load(args.cold), load(args.warm)
    baseline = load(args.baseline)
    gates = baseline["gates"]
    trace_meta = committed_trace_meta(baseline)
    failures = []
    for name, artifact in (("cold", cold), ("warm", warm)):
        failures += correctness(name, artifact)
        failures += trace_identity(name, artifact, trace_meta)
        if not isinstance(artifact.get("cache"), dict):
            failures.append(
                f"{name}: artifact has no cache section (server started "
                "without --cache-dir)"
            )
        metrics = artifact.get("server_metrics")
        if not isinstance(metrics, dict) or "error" in metrics:
            failures.append(f"{name}: server_metrics missing or unreadable: {metrics!r}")
    if failures:
        return report("cache", failures, "")
    cold_cache, warm_cache = cold["cache"], warm["cache"]
    print(
        f"cold: {cold_cache['hit_rate']:.1%} hit rate, "
        f"{cold_cache['misses']} misses over {cold_cache['lookups']} lookups"
    )
    print(
        f"warm: {warm_cache['hit_rate']:.1%} hit rate, "
        f"{warm_cache['misses']} misses over {warm_cache['lookups']} lookups "
        f"(disk {warm_cache['disk_hits']}, memory {warm_cache['memory_hits']}, "
        f"coalesced {warm_cache['coalesced']})"
    )
    if warm_cache["hit_rate"] < gates["min_warm_hit_rate"]:
        failures.append(
            f"warm hit rate {warm_cache['hit_rate']:.3f} below the committed "
            f"floor {gates['min_warm_hit_rate']}"
        )
    if warm_cache["misses"] > gates["max_warm_misses"]:
        failures.append(
            f"warm replay solved {warm_cache['misses']} requests fresh "
            f"(allowed: {gates['max_warm_misses']}) — the cache is leaking"
        )
    cold_p50 = cold["results"]["latency_ms"]["p50"]
    warm_p50 = warm["results"]["latency_ms"]["p50"]
    ratio = warm_p50 / cold_p50 if cold_p50 > 0 else float("inf")
    limit = gates["max_warm_cold_p50_ratio"]
    print(
        f"served p50: cold {cold_p50:.2f} ms, warm {warm_p50:.2f} ms "
        f"({ratio:.2f}x cold, limit {limit}x)"
    )
    if ratio > limit:
        failures.append(
            f"warm p50 is {ratio:.2f}x the cold p50 (limit {limit}x) — cached "
            "answers are not cheaper than solving"
        )
    for name, artifact in (("cold", cold), ("warm", warm)):
        problems = (artifact["server_metrics"].get("caches") or {}).get("problems") or {}
        held = problems.get("bytes")
        if held is None:
            failures.append(f"{name}: server_metrics.caches.problems.bytes missing")
        elif held != 0:
            failures.append(
                f"{name}: the server still holds {held} bytes of instance data "
                "after its replay — cached answers must release their inputs"
            )
        else:
            print(f"{name}: the server holds no instance data")
    return report(
        "cache",
        failures,
        f"warm replay of {trace_meta['requests']} requests (seed "
        f"{trace_meta['seed']}) served at {warm_cache['hit_rate']:.1%} hit rate "
        "with 0 mismatches",
    )


def gate_chaos(args: argparse.Namespace) -> int:
    """Injected faults must be survived bit-exactly, every miss typed."""
    fresh = load(args.fresh)
    baseline = load(args.baseline)
    gates, plan = baseline["gates"], baseline["chaos"]["plan"]
    failures = trace_identity("fresh", fresh, committed_trace_meta(baseline))
    failures += correctness("fresh", fresh, min_completed=gates["min_completed"])
    results = fresh.get("results") or {}
    total = (fresh.get("meta") or {}).get("requests") or 0
    completed, rejected, expired, failed = (
        results.get(key, 0) for key in ("completed", "rejected", "deadline_expired", "failed")
    )
    if completed + rejected + expired + failed != total:
        failures.append(
            f"only {completed + rejected + expired + failed} of {total} requests "
            "resolved with a typed outcome — something hung or vanished"
        )
    if not gates["min_deadline_expired"] <= expired <= gates["max_deadline_expired"]:
        failures.append(
            f"{expired} deadline expiries outside the expected "
            f"[{gates['min_deadline_expired']}, {gates['max_deadline_expired']}] "
            "band (the drop fault guarantees some, a healthy server bounds them)"
        )
    metrics = fresh.get("server_metrics")
    supervisor = metrics.get("supervisor") if isinstance(metrics, dict) else None
    if not isinstance(supervisor, dict):
        failures.append(f"server_metrics has no supervisor section: {metrics!r:.200}")
        return report("chaos", failures, "")
    faults = supervisor.get("faults") or {}
    if faults.get("plan") != plan:
        failures.append(
            f"fault plan {faults.get('plan')!r} does not match the committed "
            f"plan {plan!r}"
        )
    if faults.get("injected") != faults.get("scheduled"):
        failures.append(
            f"only {faults.get('injected')} of {faults.get('scheduled')} "
            "scheduled faults were injected — the trace never reached them"
        )
    server_requests = metrics.get("requests") or {}
    if "deadline_expired" not in server_requests:
        failures.append("requests.deadline_expired missing from /metrics")
    print(
        f"chaos: {faults.get('injected', 0)} faults injected "
        f"{faults.get('by_kind') or {}}, "
        f"{supervisor.get('dropped_responses', 0)} responses dropped"
    )
    print(
        f"outcomes: {completed} completed, {expired} deadline-expired (server "
        f"counted {server_requests.get('deadline_expired', 0)}), {rejected} "
        f"rejected, {failed} failed, {results.get('retries', 0)} retries"
    )
    if expired and not server_requests.get("deadline_expired"):
        failures.append(
            "clients saw deadline expiries the server never counted — misses "
            "are untyped somewhere on the path"
        )
    return report(
        "chaos",
        failures,
        f"{completed}/{total} requests survived {plan!r} bit-exactly; every "
        "miss was typed",
    )


def gate_adaptive(args: argparse.Namespace) -> int:
    """Drift fires where it is injected and nowhere else; every request is observed."""
    stable, drifted = load(args.stable), load(args.drifted)
    baseline = load(args.baseline)
    gates = baseline["gates"]
    trace_meta = committed_trace_meta(baseline)
    failures = []
    for name, artifact in (("stable", stable), ("drifted", drifted)):
        failures += correctness(name, artifact)
        failures += trace_identity(name, artifact, trace_meta)
        if not isinstance(artifact.get("adaptive"), dict):
            failures.append(
                f"{name}: artifact has no adaptive section (server ran with "
                "--adaptive off)"
            )
    if failures:
        return report("adaptive", failures, "")
    for name, artifact in (("stable", stable), ("drifted", drifted)):
        adaptive, completed = artifact["adaptive"], artifact["results"]["completed"]
        if adaptive.get("mode") != "on":
            failures.append(
                f"{name}: server ran --adaptive {adaptive.get('mode')!r}, the "
                "gate expects on"
            )
        if adaptive.get("errors"):
            failures.append(
                f"{name}: {adaptive['errors']} internal adaptive errors — the "
                "loop must never fail silently"
            )
        if adaptive.get("observations") != completed:
            failures.append(
                f"{name}: {adaptive.get('observations')} observations for "
                f"{completed} completed requests — the loop is missing traffic"
            )
    calm, drift = stable["adaptive"], drifted["adaptive"]
    print(
        f"stable:  {calm['observations']} observations, {calm['drift_events']} "
        "drift events"
    )
    print(
        f"drifted: {drift['observations']} observations, {drift['drift_events']} "
        f"drift events (committed band {gates['min_drift_events']}.."
        f"{gates['max_drift_events']})"
    )
    if calm["drift_events"] > gates["max_stable_drift_events"]:
        failures.append(
            f"stable replay latched {calm['drift_events']} drift events "
            f"(allowed: {gates['max_stable_drift_events']}) — the detector is "
            "firing on noise"
        )
    if not gates["min_drift_events"] <= drift["drift_events"] <= gates["max_drift_events"]:
        failures.append(
            f"drifted replay latched {drift['drift_events']} drift events, outside "
            f"the committed band [{gates['min_drift_events']}, "
            f"{gates['max_drift_events']}] — the injected slowdown went undetected "
            "or drift fired beyond it"
        )
    return report(
        "adaptive",
        failures,
        f"{trace_meta['requests']}-request replay (seed {trace_meta['seed']}) — "
        f"0 false positives stable, {drift['drift_events']} drift events under "
        "the committed fault plan, 0 errors",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``gates.py <gate>`` command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="gate", required=True)
    serve = sub.add_parser("serve", help=gate_serve.__doc__)
    serve.add_argument("--fresh", type=Path, required=True, help="loadgen JSON just measured")
    serve.add_argument(
        "--min-completed",
        type=int,
        default=50,
        help="minimum completed requests the run must report (default: 50)",
    )
    cache = sub.add_parser("cache", help=gate_cache.__doc__)
    cache.add_argument("--cold", type=Path, required=True, help="cold-run loadgen JSON")
    cache.add_argument("--warm", type=Path, required=True, help="warm-replay loadgen JSON")
    chaos = sub.add_parser("chaos", help=gate_chaos.__doc__)
    chaos.add_argument("--fresh", type=Path, required=True, help="chaos-run loadgen JSON")
    adaptive = sub.add_parser("adaptive", help=gate_adaptive.__doc__)
    adaptive.add_argument("--stable", type=Path, required=True, help="no-fault loadgen JSON")
    adaptive.add_argument(
        "--drifted", type=Path, required=True, help="fault-injected loadgen JSON"
    )
    for name, gate in (("cache", cache), ("chaos", chaos), ("adaptive", adaptive)):
        gate.add_argument(
            "--baseline",
            type=Path,
            default=BASELINES / f"{name}_baseline.json",
            help=f"committed thresholds (default: benchmarks/results/{name}_baseline.json)",
        )
    return parser


GATES = {
    "serve": gate_serve,
    "cache": gate_cache,
    "chaos": gate_chaos,
    "adaptive": gate_adaptive,
}


def main(argv: list[str] | None = None) -> int:
    """Run one gate; return the process exit code."""
    args = build_parser().parse_args(argv)
    return GATES[args.gate](args)


if __name__ == "__main__":
    sys.exit(main())
