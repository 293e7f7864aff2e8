"""``repro.server`` — the concurrent serving subsystem over the session.

The session facade (:class:`repro.session.Session`) made the tuned runtime
callable; this package makes it **servable**: a thread-safe bounded request
queue with explicit backpressure, one supervised lane thread that takes
coalesced same-signature batches from it and serves each with a single
:meth:`~repro.session.Session.solve_one` execution (every ticket in a
batch shares the one deterministic result), JSON metrics (latency
percentiles, throughput, queue depth, batch sizes, cache hit rates), a
small HTTP/1.1 JSON endpoint on reused connection threads and a load
generator — the pieces behind the ``repro serve`` and ``repro loadgen``
CLI verbs.

Layering, bottom up:

* :mod:`repro.server.queue` — :class:`RequestQueue` (admission control,
  signature-aware batch drains) and :class:`ServeRequest` (the ticket: it
  resolves exactly once, and its waiter enforces its deadline);
* :mod:`repro.server.metrics` — :class:`ServerMetrics` and the shared
  latency summary helper;
* :mod:`repro.server.faults` — :class:`FaultPlan` / :class:`FaultSpec` /
  :class:`FaultInjector`, the deterministic chaos-injection layer behind
  ``repro serve --chaos`` and the chaos-smoke gate
  (``scripts/gates.py chaos``);
* :mod:`repro.server.service` — :class:`ReproServer` + :class:`ServerConfig`:
  admission, the lane (one thread that takes coalesced batches from the
  queue, runs each once on the server's session, completes its tickets
  and recovers from its own crashes in place, with jittered backoff, a
  restart-budget circuit breaker that closes again and bounded
  re-dispatch) and graceful drain/shutdown;
* :mod:`repro.server.http` — :class:`ServingEndpoint`, the bound HTTP
  endpoint: accept loop, reused connection threads, bounded hand-parsed
  HTTP/1.1 (``POST /solve``, ``GET /metrics``, ``GET /healthz``,
  ``GET /readyz``, ``POST /shutdown``);
* :mod:`repro.server.loadgen` — :class:`LoadgenConfig`,
  :class:`HTTPTarget` and :func:`run_loadgen`: the closed-loop HTTP client
  that verifies every answer and writes the artifact the four
  ``scripts/gates.py`` gates (``serve``, ``cache``, ``chaos``,
  ``adaptive``) read;
* :mod:`repro.server.trace` — :class:`RequestTrace` and the seeded Zipf
  workload generator behind ``loadgen --trace/--trace-out``, the
  record/replay substrate of the cache, chaos and adaptive gates.

Typical embedding::

    from repro import Session
    from repro.server import ReproServer, ServerConfig

    with Session(system="local", tuner="measured") as session:
        with ReproServer(session, ServerConfig(max_batch=16)) as server:
            result = server.solve("lcs", 512, timeout=30)

See ``docs/serving.md`` for the architecture, endpoint and metrics-schema
reference.
"""

from repro.server.loadgen import (
    DEFAULT_MIX,
    HTTPTarget,
    LoadgenConfig,
    build_reference,
    build_schedule,
    parse_mix,
    run_loadgen,
)
from repro.server.faults import FaultInjector, FaultPlan, FaultSpec
from repro.server.http import (
    ServingEndpoint,
    grid_digest,
    result_payload,
    witness_digest,
)
from repro.server.metrics import ServerMetrics, summarise_latencies
from repro.server.queue import RequestQueue, ServeRequest
from repro.server.service import ReproServer, ServerConfig
from repro.server.trace import (
    TRACE_FORMAT_VERSION,
    RequestTrace,
    generate_trace,
    load_trace,
    save_trace,
    zipf_weights,
)

__all__ = [
    "ReproServer",
    "ServerConfig",
    "ServerMetrics",
    "ServingEndpoint",
    "RequestQueue",
    "ServeRequest",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "LoadgenConfig",
    "HTTPTarget",
    "DEFAULT_MIX",
    "build_reference",
    "build_schedule",
    "parse_mix",
    "run_loadgen",
    "RequestTrace",
    "TRACE_FORMAT_VERSION",
    "generate_trace",
    "load_trace",
    "save_trace",
    "zipf_weights",
    "result_payload",
    "witness_digest",
    "grid_digest",
    "summarise_latencies",
]
