"""Versioned request traces: seeded generation, record and bit-exact replay.

A trace pins the *workload* the way a saved plan pins a *configuration*: the
exact request sequence is generated once from a seed and replayed any number
of times — across machines, CI runs and cache states — so cache efficacy
numbers (hit rate, warm/cold latency ratios) compare like with like.

Generation is deliberately non-uniform, because real serving workloads are:
mix entry *r* (1-based rank) is drawn with probability proportional to
``1 / r**zipf_s``, so a few signatures dominate (the regime caches exist
for) while the tail stays present.

Everything derives from one :class:`numpy.random.RandomState` seed; the
serialised form (:func:`save_trace` / :func:`load_trace`) is plain JSON with
a ``format_version`` marker, and loading a stale or foreign file raises
:class:`repro.core.exceptions.CacheError` (the CLI maps it to exit code 3).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.exceptions import CacheError, UsageError

#: Schema version of the serialised trace (bumped on layout changes).
#: v2: entries are ``{"app", "dim"}`` only and ``meta`` drops ``rate_rps`` /
#: ``burst`` — the open-loop arrival offsets are gone.
TRACE_FORMAT_VERSION = 2

#: Top-level discriminator distinguishing traces from other JSON artifacts.
TRACE_KIND = "request-trace"


@dataclass(frozen=True)
class RequestTrace:
    """One immutable request stream: ``(app, dim)`` pairs in issue order.

    ``entries`` is a tuple of ``{"app", "dim"}`` mappings; ``meta`` records
    the generation parameters (seed, mix, skew, request count) so an
    artifact can name the workload that produced it.  Replaying the same
    trace issues a bit-identical request sequence.
    """

    entries: tuple[dict, ...]
    meta: dict

    def __len__(self) -> int:
        return len(self.entries)

    def schedule(self) -> list[tuple[str, int]]:
        """The issue plan: ``(app, dim)`` per request, in order."""
        return [(str(e["app"]), int(e["dim"])) for e in self.entries]

    def distinct_mix(self) -> tuple[tuple[str, int], ...]:
        """The distinct ``(app, dim)`` signatures, in first-seen order.

        This is what the loadgen verification reference solves — a replayed
        trace needs no separate ``--mix`` to know its instance set.
        """
        return tuple(dict.fromkeys(self.schedule()))

    def describe(self) -> str:
        """One-line summary for progress output."""
        return (
            f"trace: {len(self.entries)} requests over "
            f"{len(self.distinct_mix())} signatures "
            f"(seed={self.meta.get('seed')}, zipf_s={self.meta.get('zipf_s')})"
        )


def zipf_weights(count: int, s: float) -> np.ndarray:
    """Normalised Zipf probabilities over ``count`` 1-based ranks."""
    if count < 1:
        raise UsageError(f"zipf weights need at least one entry, got {count}")
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** (-float(s))
    return weights / weights.sum()


def generate_trace(
    mix: tuple[tuple[str, int], ...],
    requests: int,
    seed: int,
    *,
    zipf_s: float = 1.1,
) -> RequestTrace:
    """Generate one seeded, Zipf-skewed request trace.

    ``mix`` orders the signatures by popularity rank (first entry is the
    hottest); ``zipf_s`` is the skew exponent (0 = uniform).  The same
    arguments always produce the same trace.
    """
    if requests < 1:
        raise UsageError(f"trace needs requests >= 1, got {requests}")
    if not math.isfinite(zipf_s) or zipf_s < 0:
        raise UsageError(f"zipf skew must be finite and >= 0, got {zipf_s}")
    rng = np.random.RandomState(int(seed))
    picks = rng.choice(len(mix), size=int(requests), p=zipf_weights(len(mix), zipf_s))
    entries = tuple({"app": mix[i][0], "dim": int(mix[i][1])} for i in picks)
    meta = {
        "seed": int(seed),
        "zipf_s": float(zipf_s),
        "mix": [f"{app}:{dim}" for app, dim in mix],
        "requests": int(requests),
    }
    return RequestTrace(entries=entries, meta=meta)


def save_trace(trace: RequestTrace, path: str | Path) -> Path:
    """Serialise one trace as versioned JSON (parents created as needed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": TRACE_FORMAT_VERSION,
        "kind": TRACE_KIND,
        "meta": dict(trace.meta),
        "entries": list(trace.entries),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def load_trace(path: str | Path) -> RequestTrace:
    """Load one serialised trace, validating kind and format version.

    Raises :class:`CacheError` (CLI exit code 3) when the file is missing,
    undecodable, not a trace, stale-versioned, or carries malformed entries
    — a replay must never silently run a different workload.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CacheError(f"trace file {path} does not exist") from None
    except (ValueError, OSError) as error:
        raise CacheError(f"trace file {path} is not readable JSON: {error}") from None
    if not isinstance(payload, dict):
        raise CacheError(f"{path} is not a request trace (top level is not an object)")
    if payload.get("kind") != TRACE_KIND:
        raise CacheError(
            f"{path} is not a request trace (kind={payload.get('kind')!r}, "
            f"expected {TRACE_KIND!r})"
        )
    version = payload.get("format_version")
    if version != TRACE_FORMAT_VERSION:
        raise CacheError(
            f"trace {path} has unsupported format version {version!r} "
            f"(this build expects {TRACE_FORMAT_VERSION}); regenerate it with "
            "'repro-tune loadgen --trace-out'"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        raise CacheError(f"trace {path} carries no request entries")
    for n, entry in enumerate(entries):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("app"), str)
            or not isinstance(entry.get("dim"), int)
        ):
            raise CacheError(
                f"trace {path} entry {n} is malformed: {entry!r} "
                "(expected {'app': str, 'dim': int})"
            )
    return RequestTrace(
        entries=tuple(dict(e) for e in entries),
        meta=dict(payload.get("meta") or {}),
    )
