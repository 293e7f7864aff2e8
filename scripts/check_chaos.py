#!/usr/bin/env python
"""Chaos-smoke gate for CI: injected faults must be survived bit-exactly.

Consumes one ``repro loadgen`` artifact produced by replaying the committed
seeded trace against a ``repro serve --chaos <plan>`` endpoint, plus the
committed chaos baseline (the plan and its machine-neutral survival
thresholds), and gates:

1. **The chaos actually happened** — the server's supervisor counters
   (embedded in the artifact's ``server_metrics.supervisor`` section)
   report every scheduled fault injected, including at least
   ``min_kills`` shard kills, and the fault plan string matches the
   committed one exactly (a drifted plan would gate nothing).
2. **Survival** — the supervisor restarted the killed shard(s) within its
   restart budget (``min_restarts <= restarts <= max_restarts``) and
   re-dispatched the in-flight work (``redispatches >= min_kills``); the
   serving process never went dark.
3. **Bit-exactness** — every completed response matched the uncached
   in-process reference (zero mismatches, zero unverified completions,
   zero generic failures).  A fault-tolerance layer that survives crashes
   by serving wrong grids must never pass.
4. **No hangs** — every issued request resolved with a *typed* outcome:
   ``completed + rejected + deadline_expired == requests``.  Deadline
   expiries are expected (the ``drop`` fault discards responses so the
   waiters fail at their deadline with 504) but bounded:
   ``min_deadline_expired <= deadline_expired <= max_deadline_expired``,
   and the server's own ``deadline_expired`` counter must agree that the
   misses were typed, not silent.

Every threshold is a machine-neutral count or ratio — no wall-clock
numbers cross CI machines.

Usage (CI)::

    python -m repro serve --port 0 --ready-file /tmp/chaos.addr \
        --chaos "$(python -c 'import json;print(json.load(open("benchmarks/results/chaos_baseline.json"))["chaos"]["plan"])')" \
        --default-deadline 4 &
    python -m repro loadgen --url http://$(cat /tmp/chaos.addr) \
        --trace benchmarks/traces/cache_smoke_trace.json --retries 5 \
        --out /tmp/chaos_loadgen.json
    python scripts/check_chaos.py --fresh /tmp/chaos_loadgen.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Trace-meta fields that must agree between the artifact and the baseline.
TRACE_IDENTITY_KEYS = ("seed", "zipf_s", "requests", "mix")

#: Supervisor counters the /metrics snapshot must expose (the acceptance
#: contract of the fault-tolerance layer).
REQUIRED_SUPERVISOR_KEYS = ("faults_injected", "restarts", "redispatches", "state")


def load(path: Path) -> dict:
    """Read one JSON artifact."""
    return json.loads(path.read_text(encoding="utf-8"))


def trace_identity(artifact: dict, trace_meta: dict) -> list[str]:
    """Problems with the artifact's claim to have replayed the trace."""
    replayed = (artifact.get("meta") or {}).get("trace")
    if not isinstance(replayed, dict):
        return ["artifact was not produced from a trace replay"]
    problems = []
    for key in TRACE_IDENTITY_KEYS:
        if replayed.get(key) != trace_meta.get(key):
            problems.append(
                f"trace {key} is {replayed.get(key)!r}, the committed "
                f"trace has {trace_meta.get(key)!r}"
            )
    return problems


def chaos_evidence(artifact: dict, baseline: dict) -> tuple[dict | None, list[str]]:
    """The supervisor section and the problems with its fault evidence."""
    metrics = artifact.get("server_metrics")
    if not isinstance(metrics, dict) or "error" in metrics:
        return None, [f"server_metrics missing or unreadable: {metrics!r}"]
    supervisor = metrics.get("supervisor")
    if not isinstance(supervisor, dict):
        return None, ["server_metrics has no supervisor section"]
    problems = [
        f"supervisor.{key} missing from /metrics"
        for key in REQUIRED_SUPERVISOR_KEYS
        if key not in supervisor
    ]
    if "deadline_expired" not in (metrics.get("requests") or {}):
        problems.append("requests.deadline_expired missing from /metrics")
    faults = supervisor.get("faults") or {}
    committed_plan = baseline["chaos"]["plan"]
    if faults.get("plan") != committed_plan:
        problems.append(
            f"fault plan {faults.get('plan')!r} does not match the committed "
            f"plan {committed_plan!r}"
        )
    if faults.get("injected") != faults.get("scheduled"):
        problems.append(
            f"only {faults.get('injected')} of {faults.get('scheduled')} "
            "scheduled faults were injected — the trace never reached them"
        )
    return supervisor, problems


def main(argv: list[str] | None = None) -> int:
    """Gate the chaos-replay artifact; return the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh", type=Path, required=True, help="chaos-run loadgen JSON"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/results/chaos_baseline.json"),
        help="committed chaos plan + survival thresholds",
    )
    args = parser.parse_args(argv)

    fresh = load(args.fresh)
    baseline = load(args.baseline)
    gates = baseline["gates"]
    trace_meta = load(Path(baseline["trace"]["path"]))["meta"]

    failures = trace_identity(fresh, trace_meta)
    supervisor, evidence_problems = chaos_evidence(fresh, baseline)
    failures += evidence_problems

    results = fresh.get("results") or {}
    total = (fresh.get("meta") or {}).get("requests") or 0
    completed = results.get("completed", 0)
    rejected = results.get("rejected", 0)
    expired = results.get("deadline_expired", 0)
    failed = results.get("failed", 0)

    # Bit-exactness: surviving a crash by serving a wrong grid must fail.
    for key in ("failed", "mismatches", "skipped_verification"):
        if results.get(key):
            failures.append(f"{results[key]} {key.replace('_', ' ')}")

    # No hangs: every request resolved with a typed outcome.
    resolved = completed + rejected + expired + failed
    if resolved != total:
        failures.append(
            f"only {resolved} of {total} requests resolved with a typed "
            "outcome — something hung or vanished"
        )
    if completed < gates["min_completed"]:
        failures.append(
            f"only {completed} requests completed "
            f"(need >= {gates['min_completed']})"
        )
    if not gates["min_deadline_expired"] <= expired <= gates["max_deadline_expired"]:
        failures.append(
            f"{expired} deadline expiries outside the expected "
            f"[{gates['min_deadline_expired']}, {gates['max_deadline_expired']}] "
            "band (the drop fault guarantees some, a healthy server bounds them)"
        )

    if supervisor is not None:
        by_kind = (supervisor.get("faults") or {}).get("by_kind") or {}
        kills = by_kind.get("kill", 0)
        restarts = supervisor.get("restarts", 0)
        redispatches = supervisor.get("redispatches", 0)
        server_expired = ((fresh.get("server_metrics") or {}).get("requests") or {}).get(
            "deadline_expired", 0
        )
        print(
            f"chaos: {supervisor.get('faults_injected', 0)} faults injected "
            f"({kills} kills), {restarts} restarts, {redispatches} redispatches"
        )
        print(
            f"outcomes: {completed} completed, {expired} deadline-expired "
            f"(server counted {server_expired}), {rejected} rejected, "
            f"{failed} failed, {results.get('retries', 0)} retries"
        )
        if kills < gates["min_kills"]:
            failures.append(
                f"only {kills} shard kills injected (need >= {gates['min_kills']})"
            )
        if not gates["min_restarts"] <= restarts <= gates["max_restarts"]:
            failures.append(
                f"{restarts} shard restarts outside the budget band "
                f"[{gates['min_restarts']}, {gates['max_restarts']}] — the "
                "supervisor either never recovered or thrashed"
            )
        if redispatches < gates["min_kills"]:
            failures.append(
                f"only {redispatches} re-dispatches for {kills} kills — "
                "in-flight work of a crashed shard was abandoned"
            )
        if expired and not server_expired:
            failures.append(
                "clients saw deadline expiries the server never counted — "
                "misses are untyped somewhere on the path"
            )
        if supervisor.get("state") == "dead":
            failures.append(
                "the shard ended the run dead — the restart budget "
                "was exhausted by the committed plan"
            )

    if failures:
        print("\nchaos check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"\nchaos check OK: {completed}/{total} requests survived "
        f"{baseline['chaos']['plan']!r} bit-exactly; every miss was typed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
