"""Closed-loop HTTP load generator for the serving layer (``repro loadgen``).

Drives a ``repro serve`` endpoint with a deterministic mixed workload —
``clients`` threads issuing requests back to back, so offered load adapts
to service rate and the run measures capacity — verifies every answer
against an in-process reference :class:`repro.session.Session`, and writes
a throughput/latency JSON artifact (by default under
``benchmarks/results/``) that ``scripts/gates.py`` gates in CI.

Verification keys off the *(grid, witness)* fingerprint: the reference
session solves each distinct ``(app, dim)`` of the mix once, and every
served answer must carry its grid SHA-256, its checksum and — for
witness-bearing apps — its witness SHA-256, the "grids identical to
in-process solving" acceptance criterion, enforced on every request.
Digesting the witness separately means a traceback bug cannot pass
verification on a perfect value grid.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from repro.core.exceptions import ServerError, UsageError
from repro.server.http import grid_digest, witness_digest
from repro.server.metrics import summarise_latencies
from repro.session import Session

#: Schema marker of the loadgen artifact (bumped on layout changes).
#: v2: ``results.skipped_verification`` (completed-but-unverified requests
#: are now counted, never silent), a ``cache`` section (per-run delta of the
#: server's persistent result-cache counters) and ``meta.trace``.
#: v3: ``results.deadline_expired`` (504s are a distinct outcome, not
#: generic failures) and ``results.retries`` (backpressured attempts retried
#: with jittered exponential backoff are counted, not hidden).
#: v4: verification digests the ``(grid, witness)`` pair instead of the grid
#: alone, and ``results.witness_verified`` counts requests whose full pair
#: matched the reference (gated against ``completed`` in CI).
#: v5: an ``adaptive`` section (per-run delta of the server's adaptive-tuning
#: counters — observations, drift events, shadow evaluations, swaps),
#: mirroring the ``cache`` section's cold/warm accounting.
#: v6: every answer is verified, so ``results.skipped_verification`` is
#: gone, and so are the ``reference`` timing section and the open-loop /
#: mode fields of ``meta``.
#: v7: the ``adaptive`` section loses ``swaps_applied`` and
#: ``swaps_rolled_back``: the adaptive loop proposes plans, never swaps them.
#: v8: the ``adaptive`` section loses ``shadow_evaluations`` and
#: ``would_swap``: the loop observes and detects drift, and proposes nothing.
LOADGEN_FORMAT_VERSION = 8

#: Seconds one request attempt may take before it counts as failed.
REQUEST_TIMEOUT_S = 120.0
#: Base and cap of the jittered exponential retry backoff (seconds).
RETRY_BASE_S = 0.05
RETRY_CAP_S = 1.0

#: Default request mix: three small DP apps, distinct signatures.
DEFAULT_MIX = "lcs:48,edit-distance:40,matrix-chain:32"


def parse_mix(spec: str) -> tuple[tuple[str, int], ...]:
    """Parse a ``"app:dim,app:dim,..."`` mix specification.

    Raises :class:`~repro.core.exceptions.UsageError` on malformed entries;
    application names are validated later by the session/registry.
    """
    mix: list[tuple[str, int]] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        app, sep, dim_text = entry.partition(":")
        if not sep or not app:
            raise UsageError(
                f"bad mix entry {entry!r}: expected app:dim (e.g. lcs:48)"
            )
        try:
            dim = int(dim_text)
        except ValueError:
            raise UsageError(f"bad mix dim {dim_text!r} in {entry!r}") from None
        mix.append((app, dim))
    if not mix:
        raise UsageError(f"mix {spec!r} contains no app:dim entries")
    return tuple(mix)


@dataclass(frozen=True)
class LoadgenConfig:
    """Workload shape of one load-generation run.

    ``mix`` is the request cycle (request *i* targets ``mix[i % len]``,
    making the workload deterministic); ``requests`` is the total issued;
    ``clients`` the number of concurrent issuing threads.  ``retries``
    bounds how many times a backpressured (429) request is retried — with
    jittered exponential backoff from :data:`RETRY_BASE_S`, capped at
    :data:`RETRY_CAP_S` — before it is recorded as rejected; every retried
    attempt is counted in the artifact's ``retries`` field.  A 504 (deadline)
    is recorded as the distinct ``deadline_expired`` outcome, never retried
    (the deadline already passed — more attempts cannot help).
    """

    mix: tuple[tuple[str, int], ...]
    requests: int = 60
    clients: int = 4
    retries: int = 3

    def __post_init__(self) -> None:
        """Validate the workload shape once."""
        if self.requests < 1:
            raise UsageError(f"requests must be >= 1, got {self.requests}")
        if self.clients < 1:
            raise UsageError(f"clients must be >= 1, got {self.clients}")
        if self.retries < 0:
            raise UsageError(f"retries must be >= 0, got {self.retries}")


class HTTPTarget:
    """A ``repro serve`` endpoint driven over HTTP/JSON."""

    def __init__(self, url: str) -> None:
        self.url = url.rstrip("/")

    def solve(self, app: str, dim: int) -> dict:
        """POST one functional solve; return the response payload.

        Raises :class:`~repro.core.exceptions.ServerError` carrying the
        endpoint's HTTP status on the error's ``status`` attribute for
        non-200 answers, so callers can branch on 429 (backpressure) and
        504 (deadline) without string matching.
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
                return json.loads(response.read())
        except urllib.error.HTTPError as http_error:
            try:
                message = json.loads(http_error.read())["error"]["message"]
            except (OSError, ValueError, KeyError, TypeError):
                message = http_error.reason  # an unreadable body has no message
            error = ServerError(f"{app}[dim={dim}] -> HTTP {http_error.code}: {message}")
            error.status = http_error.code  # type: ignore[attr-defined]
            raise error from None

    def metrics(self) -> dict:
        """Fetch the endpoint's ``GET /metrics`` snapshot."""
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=10.0) as response:
            return json.loads(response.read())


def build_reference(
    session: Session, mix: tuple[tuple[str, int], ...]
) -> dict[tuple[str, int], dict]:
    """Solve each distinct mix entry in-process; return its expected digests.

    Each ``(app, dim)`` maps to the answer fields :func:`run_loadgen`
    compares: ``grid_sha256``, ``checksum`` and ``witness_sha256`` (``None``
    for witness-free apps, whose HTTP answers carry no such key).
    """
    reference = {}
    for app, dim in dict.fromkeys(mix):
        result = session.solve(app, dim)
        reference[(app, dim)] = {
            "grid_sha256": grid_digest(result),
            "checksum": result.checksum,
            "witness_sha256": witness_digest(result),
        }
    return reference


def _cache_delta(before: dict | None, after: dict | None) -> dict | None:
    """This run's share of the server's result-cache counters.

    The server's cache counters are cumulative since start-up; subtracting
    the pre-run snapshot isolates what *this* workload did, so a warm
    replay reports its own hit rate, not the lifetime average.  ``None``
    when the target exposes no cache section (cache off).
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


def _adaptive_delta(before: dict | None, after: dict | None) -> dict | None:
    """This run's share of the server's adaptive-tuning counters.

    Same accounting as :func:`_cache_delta`: the adaptive controller's
    counters are cumulative since server start-up, so subtracting the
    pre-run snapshot isolates what this workload triggered (a stable replay
    should show zero drift events of its own even against a server that
    drifted earlier).  ``None`` when the target exposes no adaptive section
    (``--adaptive off``).
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


def build_schedule(config: LoadgenConfig, trace=None) -> list[tuple[str, int]]:
    """The issue plan of one run: ``(app, dim)`` per request.

    With a :class:`repro.server.trace.RequestTrace` the trace *is* the
    schedule (bit-exact replay); otherwise the config's round-robin mix is
    unrolled.
    """
    if trace is not None:
        return trace.schedule()
    return [config.mix[index % len(config.mix)] for index in range(config.requests)]


def run_loadgen(
    target: HTTPTarget,
    config: LoadgenConfig,
    reference: dict[tuple[str, int], dict],
    progress=None,
    trace=None,
) -> dict:
    """Drive ``target`` with the configured workload; return the artifact.

    Every completed answer is checked against ``reference``
    (:func:`build_reference`): mismatches are counted, never raised — the
    artifact reports them and the CLI turns them into a non-zero exit.
    ``trace`` replays a recorded :class:`~repro.server.trace.RequestTrace`
    instead of the config's round-robin mix.  ``progress`` is an optional
    one-line callback.
    """
    schedule = build_schedule(config, trace)
    total = len(schedule)
    counter = iter(range(total))
    lock = threading.Lock()
    latencies: list[float] = []
    outcomes = {
        "completed": 0,
        "rejected": 0,
        "failed": 0,
        "deadline_expired": 0,
        "retries": 0,
        "mismatches": 0,
        "witness_verified": 0,
    }
    errors: list[str] = []

    def record_error(message: str) -> None:
        """Keep the first ten error messages (caller holds ``lock``)."""
        if len(errors) < 10:
            errors.append(message)

    try:
        metrics_before = target.metrics()
    except Exception:  # noqa: BLE001 - the pre-run snapshot is best-effort
        metrics_before = {}

    def attempt_request(app: str, dim: int) -> tuple[dict | None, float]:
        """Fire one request with bounded backpressure retries.

        Returns ``(answer, latency_s)`` on success and ``(None, 0.0)``
        after recording the terminal outcome.  Only 429 is retried — with
        jittered exponential backoff so synchronised clients de-synchronise
        — because shed load is explicitly transient; a 504 (deadline) is
        terminal by definition and anything else is a real failure.
        """
        attempt = 0
        while True:
            t0 = time.perf_counter()
            try:
                return target.solve(app, dim), time.perf_counter() - t0
            except Exception as error:  # noqa: BLE001 - recorded, not raised
                status = getattr(error, "status", None)
                if status == 429 and attempt < config.retries:
                    attempt += 1
                    with lock:
                        outcomes["retries"] += 1
                    delay = min(RETRY_CAP_S, RETRY_BASE_S * (2 ** (attempt - 1)))
                    time.sleep(delay * (1.0 + 0.5 * random.random()))
                    continue
                with lock:
                    if status == 429:
                        outcomes["rejected"] += 1
                    else:
                        outcomes["deadline_expired" if status == 504 else "failed"] += 1
                        record_error(str(error))
                return None, 0.0

    def client_loop() -> None:
        """One client thread: claim the next request, fire, verify."""
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            app, dim = schedule[index]
            answer, latency = attempt_request(app, dim)
            if answer is None:
                continue
            expected = reference.get((app, dim))
            verified = expected is not None and all(
                answer.get(key) == value for key, value in expected.items()
            )
            with lock:
                latencies.append(latency)
                outcomes["completed"] += 1
                if verified:
                    # The full (grid, witness) pair matched — witness-free
                    # apps verify as (digest, None) == (digest, None).
                    outcomes["witness_verified"] += 1
                else:
                    outcomes["mismatches"] += 1
                    record_error(
                        f"{app}:{dim} answer does not match the in-process reference"
                    )

    threads = [
        threading.Thread(target=client_loop, name=f"loadgen-client-{i}")
        for i in range(config.clients)
    ]
    t_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - t_start

    if progress is not None:
        progress(
            f"loadgen: {outcomes['completed']}/{total} completed in "
            f"{wall_s:.2f}s ({outcomes['completed'] / wall_s:.1f} req/s), "
            f"{outcomes['rejected']} rejected, {outcomes['failed']} failed, "
            f"{outcomes['deadline_expired']} deadline-expired, "
            f"{outcomes['retries']} retries, "
            f"{outcomes['mismatches']} mismatches, "
            f"{outcomes['witness_verified']} witness-verified"
        )

    try:
        server_metrics = target.metrics()
    except Exception as error:  # noqa: BLE001 - metrics are best-effort here
        server_metrics = {"error": str(error)}

    return {
        "format_version": LOADGEN_FORMAT_VERSION,
        "meta": {
            "target": target.url,
            "mix": [f"{app}:{dim}" for app, dim in config.mix],
            "requests": total,
            "clients": config.clients,
            "retry_limit": config.retries,
            "trace": dict(trace.meta) if trace is not None else None,
            "python": sys.version.split()[0],
        },
        "results": {
            **outcomes,
            "wall_s": wall_s,
            "throughput_rps": outcomes["completed"] / wall_s if wall_s > 0 else 0.0,
            "latency_ms": summarise_latencies(latencies),
            "errors": errors,
        },
        "cache": _cache_delta(metrics_before.get("cache"), server_metrics.get("cache")),
        "adaptive": _adaptive_delta(
            metrics_before.get("adaptive"), server_metrics.get("adaptive")
        ),
        "server_metrics": server_metrics,
    }
