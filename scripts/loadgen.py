#!/usr/bin/env python
"""Replay a committed request trace against a ``repro serve`` endpoint.

    python scripts/loadgen.py --url http://127.0.0.1:8077 \\
        --trace benchmarks/traces/cache_smoke_trace.json --out /tmp/load.json

``--clients`` threads claim the trace's requests in order and issue them
back to back (closed loop), so offered load adapts to the service rate.
Every answer is checked against the same instance solved in this process
on the serial engine, uncached (every backend is bit-identical to it): the
answer's grid SHA-256, checksum and witness SHA-256 must all match, so a
traceback bug cannot pass on a perfect value grid.  A 429 is retried up to
``--retries`` times with jittered exponential backoff; a 504 is recorded as
a missed deadline and never retried.

The JSON artifact (``format_version`` 8) is what the four gates of
``scripts/gates.py`` read (``serve``, ``cache``, ``chaos``, ``adaptive``).
The script exits 1 when no request completed or any request failed or
mismatched, and 3 when the trace file is missing or malformed.

A trace is data, not generated here: ``{"format_version": 2, "kind":
"request-trace", "meta": {...}, "entries": [{"app": str, "dim": int}, ...]}``,
where ``meta`` records how the trace was drawn and travels into the
artifact's ``meta.trace`` unchanged.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import ExecutionPolicy, Session  # noqa: E402
from repro.server.http import grid_digest, witness_digest  # noqa: E402
from repro.server.metrics import summarise_latencies  # noqa: E402

#: Schema marker of the artifact, bumped on layout changes (v8: the
#: ``adaptive`` section counts observations, drift events and errors only).
LOADGEN_FORMAT_VERSION = 8

#: Schema version and kind of a trace file.
TRACE_FORMAT_VERSION = 2
TRACE_KIND = "request-trace"

#: Seconds one request attempt may take before it counts as failed.
REQUEST_TIMEOUT_S = 120.0
#: Base and cap of the jittered exponential retry backoff (seconds).
RETRY_BASE_S = 0.05
RETRY_CAP_S = 1.0

EXIT_OK, EXIT_FAILED, EXIT_TRACE = 0, 1, 3


class TraceError(ValueError):
    """The trace file is missing, unreadable or not a current trace."""


def load_trace(path: Path) -> tuple[list[tuple[str, int]], dict]:
    """Read one trace file: its ``(app, dim)`` schedule and its ``meta``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise TraceError(f"trace file {path} does not exist") from None
    except (ValueError, OSError) as error:
        raise TraceError(f"trace file {path} is not readable JSON: {error}") from None
    if not isinstance(payload, dict) or payload.get("kind") != TRACE_KIND:
        raise TraceError(f"{path} is not a request trace (expected kind {TRACE_KIND!r})")
    version = payload.get("format_version")
    if version != TRACE_FORMAT_VERSION:
        raise TraceError(
            f"trace {path} has format version {version!r}, expected {TRACE_FORMAT_VERSION}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        raise TraceError(f"trace {path} carries no request entries")
    for n, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("app"), str)
            and type(entry.get("dim")) is int
        ):
            raise TraceError(
                f"trace {path} entry {n} is malformed: {entry!r} "
                "(expected {'app': str, 'dim': int})"
            )
    schedule = [(entry["app"], entry["dim"]) for entry in entries]
    return schedule, dict(payload.get("meta") or {})


class HTTPTarget:
    """A ``repro serve`` endpoint driven over HTTP/JSON."""

    def __init__(self, url: str) -> None:
        self.url = url.rstrip("/")

    def solve(self, app: str, dim: int) -> tuple[int, dict | str]:
        """POST one functional solve; return ``(status, payload)``.

        The payload is the decoded answer on 200 and the error message
        otherwise.  A transport failure raises.
        """
        body = json.dumps({"app": app, "dim": dim, "mode": "functional"})
        request = urllib.request.Request(
            f"{self.url}/solve",
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            try:
                message = json.loads(error.read())["error"]["message"]
            except (OSError, ValueError, KeyError, TypeError):
                message = error.reason  # an unreadable body has no message
            return error.code, str(message)

    def metrics(self) -> dict:
        """Fetch the endpoint's ``GET /metrics`` snapshot."""
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=10.0) as response:
            return json.loads(response.read())


def build_reference(signatures) -> dict[tuple[str, int], dict]:
    """Each ``(app, dim)``'s expected answer fields, solved serially in process.

    ``witness_sha256`` is ``None`` for witness-free apps, whose HTTP answers
    carry no such key.
    """
    reference = {}
    with Session() as session:
        for app, dim in dict.fromkeys(signatures):
            result = session.solve(app, dim, policy=ExecutionPolicy(backend="serial"))
            reference[(app, dim)] = {
                "grid_sha256": grid_digest(result),
                "checksum": result.checksum,
                "witness_sha256": witness_digest(result),
            }
    return reference


def cache_delta(before: dict | None, after: dict | None) -> dict | None:
    """This run's share of the server's cumulative result-cache counters.

    ``None`` when the server has no cache section (cache off).
    """
    if not isinstance(after, dict):
        return None
    before = before if isinstance(before, dict) else {}
    delta = {
        key: int(after.get(key, 0)) - int(before.get(key, 0))
        for key in ("lookups", "memory_hits", "disk_hits", "coalesced", "misses")
    }
    served = delta["memory_hits"] + delta["disk_hits"] + delta["coalesced"]
    delta["hit_rate"] = served / delta["lookups"] if delta["lookups"] else 0.0
    return delta


def adaptive_delta(before: dict | None, after: dict | None) -> dict | None:
    """This run's share of the server's cumulative adaptive counters.

    ``None`` when the server has no adaptive section (``--adaptive off``).
    """
    if not isinstance(after, dict):
        return None
    before = before if isinstance(before, dict) else {}

    def counter(snapshot: dict, *path: str) -> int:
        value: object = snapshot
        for key in path:
            value = value.get(key, 0) if isinstance(value, dict) else 0
        return int(value) if isinstance(value, (int, float)) else 0

    paths = {
        "observations": ("observations",),
        "drift_events": ("drift", "events"),
        "errors": ("errors",),
    }
    delta = {
        name: counter(after, *path) - counter(before, *path)
        for name, path in paths.items()
    }
    delta["mode"] = after.get("mode")
    return delta


def replay(target, schedule, trace_meta, reference, clients=4, retries=3) -> dict:
    """Issue ``schedule`` against ``target`` from ``clients`` threads; return the artifact.

    Mismatches against ``reference`` are counted, never raised.
    """
    counter = iter(range(len(schedule)))
    lock = threading.Lock()
    latencies: list[float] = []
    outcomes = dict.fromkeys(
        ("completed", "rejected", "failed", "deadline_expired", "retries",
         "mismatches", "witness_verified"),
        0,
    )
    errors: list[str] = []

    def record(outcome: str, message: str | None = None) -> None:
        """Count one outcome and keep the first ten messages (caller holds ``lock``)."""
        outcomes[outcome] += 1
        if message is not None and len(errors) < 10:
            errors.append(message)

    def issue(app: str, dim: int) -> None:
        """Fire one request, retrying 429s, and record its outcome."""
        for attempt in range(retries + 1):
            t0 = time.perf_counter()
            try:
                status, payload = target.solve(app, dim)
            except Exception as error:  # noqa: BLE001 - recorded, not raised
                with lock:
                    record("failed", f"{app}[dim={dim}] -> {error!r}")
                return
            latency = time.perf_counter() - t0
            if status != 429 or attempt == retries:
                break
            with lock:
                outcomes["retries"] += 1
            delay = min(RETRY_CAP_S, RETRY_BASE_S * 2**attempt)
            time.sleep(delay * (1.0 + 0.5 * random.random()))
        with lock:
            if status == 429:
                record("rejected")
            elif status == 504:
                record("deadline_expired", f"{app}[dim={dim}] -> HTTP 504: {payload}")
            elif status != 200:
                record("failed", f"{app}[dim={dim}] -> HTTP {status}: {payload}")
            else:
                latencies.append(latency)
                outcomes["completed"] += 1
                expected = reference[(app, dim)]
                if all(payload.get(key) == value for key, value in expected.items()):
                    outcomes["witness_verified"] += 1
                else:
                    record("mismatches", f"{app}:{dim} answer does not match the reference")

    def client_loop() -> None:
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            issue(*schedule[index])

    try:
        metrics_before = target.metrics()
    except Exception:  # noqa: BLE001 - the pre-run snapshot is best-effort
        metrics_before = {}
    threads = [
        threading.Thread(target=client_loop, name=f"loadgen-client-{i}")
        for i in range(clients)
    ]
    t_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - t_start
    try:
        server_metrics = target.metrics()
    except Exception as error:  # noqa: BLE001 - metrics are best-effort here
        server_metrics = {"error": str(error)}

    return {
        "format_version": LOADGEN_FORMAT_VERSION,
        "meta": {
            "target": target.url,
            "mix": [f"{app}:{dim}" for app, dim in dict.fromkeys(schedule)],
            "requests": len(schedule),
            "clients": clients,
            "retry_limit": retries,
            "trace": dict(trace_meta),
            "python": sys.version.split()[0],
        },
        "results": {
            **outcomes,
            "wall_s": wall_s,
            "throughput_rps": outcomes["completed"] / wall_s if wall_s > 0 else 0.0,
            "latency_ms": summarise_latencies(latencies),
            "errors": errors,
        },
        "cache": cache_delta(metrics_before.get("cache"), server_metrics.get("cache")),
        "adaptive": adaptive_delta(
            metrics_before.get("adaptive"), server_metrics.get("adaptive")
        ),
        "server_metrics": server_metrics,
    }


def _at_least(minimum: int):
    """``type=`` of an integer option that must be ``>= minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True, help="target endpoint base URL")
    parser.add_argument("--trace", type=Path, required=True, help="request trace JSON to replay")
    parser.add_argument(
        "--clients", type=_at_least(1), default=4, help="concurrent client threads (default: 4)"
    )
    parser.add_argument(
        "--retries",
        type=_at_least(0),
        default=3,
        help="backoff retries of a 429 before it counts as rejected (default: 3)",
    )
    parser.add_argument("--out", type=Path, required=True, help="artifact JSON path")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Replay the trace, write the artifact; return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        schedule, trace_meta = load_trace(args.trace)
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_TRACE
    target = HTTPTarget(args.url)
    print(
        f"replaying {len(schedule)} requests of {args.trace} against {target.url} "
        f"({args.clients} clients)"
    )
    reference = build_reference(schedule)
    payload = replay(target, schedule, trace_meta, reference, args.clients, args.retries)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    results = payload["results"]
    print(
        f"{results['completed']}/{len(schedule)} completed in {results['wall_s']:.2f}s "
        f"({results['throughput_rps']:.1f} req/s), {results['rejected']} rejected, "
        f"{results['failed']} failed, {results['deadline_expired']} deadline-expired, "
        f"{results['retries']} retries, {results['mismatches']} mismatches, "
        f"{results['witness_verified']} witness-verified"
    )
    cache = payload["cache"]
    if cache is not None:
        print(
            f"cache: {cache['hit_rate']:.1%} hit rate over {cache['lookups']} lookups "
            f"(memory {cache['memory_hits']}, disk {cache['disk_hits']}, "
            f"coalesced {cache['coalesced']}, misses {cache['misses']})"
        )
    adaptive = payload["adaptive"]
    if adaptive is not None:
        print(
            f"adaptive ({adaptive['mode']}): {adaptive['observations']} observations, "
            f"{adaptive['drift_events']} drift events this run"
        )
    print(f"wrote {args.out}")
    if results["completed"] == 0 or results["failed"] or results["mismatches"]:
        print("ERROR: no request completed, or a request failed or mismatched")
        return EXIT_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
