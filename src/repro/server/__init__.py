"""``repro.server`` — the concurrent serving subsystem over the session.

The session facade (:class:`repro.session.Session`) made the tuned runtime
callable; this package makes it **servable**: a thread-safe bounded request
queue with explicit backpressure, supervised shard threads that take
coalesced same-signature batches from it and serve each with a single
:meth:`~repro.session.Session.solve_many` execution (every ticket in a
batch shares the one deterministic result), JSON metrics (latency
percentiles, throughput, queue depth, batch sizes, cache hit rates), a
small HTTP/1.1 JSON endpoint on reused connection threads and a load
generator — the pieces behind the ``repro serve`` and ``repro loadgen``
CLI verbs.

Layering, bottom up:

* :mod:`repro.server.queue` — :class:`RequestQueue` (admission control,
  signature-aware batch drains) and :class:`ServeRequest` (the ticket);
* :mod:`repro.server.metrics` — :class:`ServerMetrics` and the shared
  latency summary helper;
* :mod:`repro.server.faults` — :class:`FaultPlan` / :class:`FaultSpec` /
  :class:`FaultInjector`, the deterministic chaos-injection layer behind
  ``repro serve --chaos`` and the chaos-smoke gate
  (``scripts/check_chaos.py``);
* :mod:`repro.server.supervisor` — :class:`ShardSupervisor`,
  :class:`SupervisorConfig`, :class:`Shard` and :class:`ShardTask`: worker
  shards that take their work from the queue themselves, with heartbeats,
  crash detection, jittered-backoff restarts, a restart-budget circuit
  breaker, bounded re-dispatch and deadline expiry;
* :mod:`repro.server.service` — :class:`ReproServer` + :class:`ServerConfig`:
  admission, the shards' work source (one coalesced batch per task), ticket
  completion, per-request deadlines and graceful drain/shutdown;
* :mod:`repro.server.http` — :class:`ServingEndpoint`, the bound HTTP
  endpoint: accept loop, reused connection threads, bounded hand-parsed
  HTTP/1.1 (``POST /solve``, ``GET /metrics``, ``GET /healthz``,
  ``GET /readyz``, ``POST /shutdown``);
* :mod:`repro.server.loadgen` — :class:`LoadgenConfig`, targets and
  :func:`run_loadgen`, writing the artifact ``scripts/check_serve.py``
  gates;
* :mod:`repro.server.trace` — :class:`RequestTrace` and the seeded
  Zipf/bursty workload generator behind ``loadgen --trace/--trace-out``,
  the record/replay substrate of the cache-efficacy gate
  (``scripts/check_cache.py``).

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
    InProcessTarget,
    LoadgenConfig,
    ReferenceAnswers,
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
from repro.server.queue import RequestQueue, ServeRequest, request_signature
from repro.server.service import ReproServer, ServerConfig
from repro.server.supervisor import (
    Shard,
    ShardSupervisor,
    ShardTask,
    SupervisorConfig,
)
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
    "ShardSupervisor",
    "SupervisorConfig",
    "Shard",
    "ShardTask",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "LoadgenConfig",
    "HTTPTarget",
    "InProcessTarget",
    "ReferenceAnswers",
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
    "request_signature",
    "result_payload",
    "witness_digest",
    "grid_digest",
    "summarise_latencies",
]
