"""``repro.server`` — the concurrent serving subsystem over the session.

The session facade (:class:`repro.session.Session`) made the tuned runtime
callable; this package makes it **servable**: bounded admission with
explicit backpressure, each admitted request solved to completion on the
thread that admitted it with its deadline checked inside the sweep, one
immediate re-run of a request whose worker team crashed, JSON metrics
(latency percentiles, throughput, admitted requests, cache hit rates) and a
small HTTP/1.1 JSON endpoint on reused connection threads — the pieces
behind the ``repro serve`` CLI verb.  The load client that drives an
endpoint is test tooling and lives outside the package, in
``scripts/loadgen.py``.

Layering, bottom up:

* :mod:`repro.server.metrics` — :class:`ServerMetrics` and the shared
  latency summary helper;
* :mod:`repro.server.faults` — :class:`FaultPlan` / :class:`FaultSpec` /
  :class:`FaultInjector`, the deterministic chaos-injection layer behind
  ``repro serve --chaos`` and the chaos-smoke gate
  (``scripts/gates.py chaos``);
* :mod:`repro.server.service` — :class:`ReproServer` + :class:`ServerConfig`
  + :class:`ServeRequest` (the ticket, resolved before ``submit`` returns):
  admission, the solve on the admitting thread (a worker crash re-runs it
  once, at once, on a fresh team) and graceful drain/shutdown;
* :mod:`repro.server.http` — :class:`ServingEndpoint`, the bound HTTP
  endpoint: accept loop, reused connection threads, bounded hand-parsed
  HTTP/1.1 (``POST /solve``, ``GET /metrics``, ``GET /healthz``,
  ``GET /readyz``, ``POST /shutdown``);
* :mod:`repro.server.queue` — :class:`RequestQueue`, the bounded FIFO with
  same-signature drains that the server no longer uses, kept for the
  benchmark's hand-off probe.

Typical embedding::

    from repro import Session
    from repro.server import ReproServer, ServerConfig

    with Session(system="local", tuner="measured") as session:
        with ReproServer(session, ServerConfig(queue_capacity=16)) as server:
            result = server.solve("lcs", 512, deadline_s=30)

See ``docs/serving.md`` for the architecture, endpoint and metrics-schema
reference.
"""

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
    "result_payload",
    "witness_digest",
    "grid_digest",
    "summarise_latencies",
]
