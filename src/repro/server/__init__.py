"""``repro.server`` — the concurrent serving subsystem over the session.

The session facade (:class:`repro.session.Session`) made the tuned runtime
callable; this package makes it **servable**: bounded admission with
explicit backpressure, each admitted request solved to completion on the
thread that admitted it with its deadline checked inside the sweep,
in-place crash supervision, JSON metrics (latency percentiles, throughput,
admitted requests, cache hit rates), a small HTTP/1.1 JSON endpoint on
reused connection threads and a load generator — the pieces behind the
``repro serve`` and ``repro loadgen`` CLI verbs.

Layering, bottom up:

* :mod:`repro.server.metrics` — :class:`ServerMetrics` and the shared
  latency summary helper;
* :mod:`repro.server.faults` — :class:`FaultPlan` / :class:`FaultSpec` /
  :class:`FaultInjector`, the deterministic chaos-injection layer behind
  ``repro serve --chaos`` and the chaos-smoke gate
  (``scripts/gates.py chaos``);
* :mod:`repro.server.service` — :class:`ReproServer` + :class:`ServerConfig`
  + :class:`ServeRequest` (the ticket, resolved before ``submit`` returns):
  admission, the solve on the admitting thread with crash recovery in
  place (jittered backoff, a restart-budget circuit breaker that closes
  again, bounded re-dispatch) and graceful drain/shutdown;
* :mod:`repro.server.http` — :class:`ServingEndpoint`, the bound HTTP
  endpoint: accept loop, reused connection threads, bounded hand-parsed
  HTTP/1.1 (``POST /solve``, ``GET /metrics``, ``GET /healthz``,
  ``GET /readyz``, ``POST /shutdown``);
* :mod:`repro.server.queue` — :class:`RequestQueue`, the bounded FIFO with
  same-signature drains that the server no longer uses, kept for the
  benchmark's hand-off probe;
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
        with ReproServer(session, ServerConfig(queue_capacity=16)) as server:
            result = server.solve("lcs", 512, deadline_s=30)

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
from repro.server.queue import RequestQueue
from repro.server.service import ReproServer, ServeRequest, ServerConfig
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
