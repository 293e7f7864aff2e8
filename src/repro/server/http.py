"""Stdlib HTTP/JSON endpoint over :class:`repro.server.ReproServer`.

``repro serve`` binds a :class:`ThreadingHTTPServer` whose handler threads
submit into the server's bounded queue and block until the scheduler
completes their ticket — so HTTP concurrency is naturally capped by
admission control, and overload answers ``429`` instead of stalling.

Routes (all JSON):

* ``POST /solve`` — body ``{"app": ..., "dim": ..., "mode": ...,
  "backend": ..., "workers": ..., ...}``: the keys ``backend``, ``engine``,
  ``workers`` and ``tunables`` are lifted into one
  :class:`~repro.facade.policy.ExecutionPolicy` at decode time
  (:func:`policy_from_body`), everything else beyond app/dim/mode forwards
  to the application constructor; answers the result payload of
  :func:`result_payload`.
* ``GET /metrics`` — the server's metrics snapshot
  (:meth:`repro.server.ReproServer.metrics`).
* ``GET /healthz`` — liveness: ``{"status": "ok", "uptime_s": ...}``.
  Answers 200 while the process serves HTTP at all — restarting shards do
  not flip liveness, only readiness.
* ``GET /readyz`` — readiness: per-shard state (``healthy`` / ``restarting``
  / ``dead``), restart counts and degraded mode
  (:meth:`repro.server.ReproServer.readiness`); answers ``503`` when no
  shard can take traffic so external probes route around the instance.
* ``POST /shutdown`` — begins a graceful drain + stop; answers ``202``.

Error mapping: deadline expiry → 504, backpressure → 429 (with a
``Retry-After`` header), usage/unknown-name errors → 400, missing
artifacts → 409, any other framework error → 500; every error body is
``{"error": {"type": ..., "message": ...}}``.  ``POST /solve`` accepts an
optional ``deadline_s`` body key bounding the request end-to-end (default:
the server's ``default_deadline_s``).
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

import numpy as np

from repro.core.exceptions import (
    ArtifactError,
    BackpressureError,
    DeadlineError,
    InvalidParameterError,
    RegistryError,
    ServerError,
    UsageError,
)
from repro.core.params import TunableParams
from repro.facade.policy import ExecutionPolicy
from repro.runtime.result import ExecutionResult
from repro.server.service import ReproServer

#: Default solve timeout an HTTP handler waits before answering 503
#: (the timeout surfaces as a ``ServerError``).
DEFAULT_REQUEST_TIMEOUT_S = 120.0


def grid_digest(result: ExecutionResult) -> str | None:
    """SHA-256 of the result grid's raw bytes (functional mode only).

    A compact, bit-exact fingerprint: two grids share a digest iff their
    float values are byte-identical, which is how the load generator proves
    HTTP answers equal in-process :meth:`repro.session.Session.solve` grids
    without shipping whole grids over the wire.
    """
    if result.grid is None:
        return None
    return hashlib.sha256(
        np.ascontiguousarray(result.grid.values).tobytes()
    ).hexdigest()


def witness_digest(result: ExecutionResult) -> str | None:
    """SHA-256 of the result's witness array bytes, or ``None`` without one.

    The witness (a traceback certificate, see
    :meth:`repro.core.pattern.WavefrontKernel.reconstruct_witness`) is
    digested separately from the grid: a traceback bug then fails
    verification on its own digest even when the value grid is perfect.
    """
    if result.witness is None:
        return None
    return hashlib.sha256(
        np.ascontiguousarray(result.witness).tobytes()
    ).hexdigest()


def result_payload(app: str, dim: int | None, result: ExecutionResult) -> dict:
    """The JSON body answering one successful ``POST /solve``.

    Witness-bearing results additionally answer ``witness`` (the full
    certificate as a list of ints — witnesses are short, one path per
    solve) and ``witness_sha256``; witness-free results answer neither key
    as ``null`` values would be indistinguishable from a dropped witness.
    """
    payload = {
        "app": app,
        "dim": result.params.dim if dim is None else dim,
        "system": result.system,
        "mode": result.mode,
        "rtime_s": result.rtime,
        "wall_time_s": result.wall_time,
        "tunables": {k: int(v) for k, v in result.tunables.features().items()},
        "grid_sha256": grid_digest(result),
    }
    if result.grid is not None:
        payload["value"] = result.value
        payload["checksum"] = result.checksum
    if result.witness is not None:
        payload["witness"] = [int(x) for x in result.witness]
        payload["witness_sha256"] = witness_digest(result)
    return payload


#: Body keys of ``tunables``: the dict :meth:`ResolvedPlan.to_dict` writes.
_TUNABLE_KEYS = frozenset(TunableParams().features())


def _body_int(name: str, value) -> int:
    """``value`` as a JSON integer, or a typed usage error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return value


def policy_from_body(body: dict) -> ExecutionPolicy | None:
    """Pop the plan-override keys of a ``POST /solve`` body into a policy.

    ``backend`` and ``engine`` are strings, ``workers`` an integer >= 1 and
    ``tunables`` the five-integer dict :meth:`repro.facade.plan.ResolvedPlan.\
to_dict` writes; ``null`` means unset.  Returns ``None`` when the body pins
    nothing.  Any malformed value raises :class:`UsageError` (a 400), never
    an untyped error from deeper in the stack.
    """
    if "policy" in body:
        raise UsageError(
            "policy is not a body key; send backend/engine/workers/tunables"
        )
    fields: dict = {}
    for name in ("backend", "engine"):
        value = body.pop(name, None)
        if value is not None:
            if not isinstance(value, str):
                raise UsageError(f"{name} must be a string, got {value!r}")
            fields[name] = value
    workers = body.pop("workers", None)
    if workers is not None:
        fields["workers"] = _body_int("workers", workers)
    tunables = body.pop("tunables", None)
    try:
        if tunables is not None:
            if not isinstance(tunables, dict) or set(tunables) != _TUNABLE_KEYS:
                raise UsageError(
                    f"tunables must be an object with exactly the keys "
                    f"{sorted(_TUNABLE_KEYS)}, got {tunables!r}"
                )
            fields["tunables"] = TunableParams(
                **{k: _body_int(f"tunables.{k}", v) for k, v in tunables.items()}
            )
        return ExecutionPolicy(**fields) if fields else None
    except InvalidParameterError as error:
        raise UsageError(str(error)) from None


#: ``Retry-After`` seconds suggested to backpressured (429) clients.
RETRY_AFTER_S = 1


def error_status(error: BaseException) -> int:
    """Map one framework error to its HTTP status code.

    Order matters: :class:`DeadlineError` subclasses :class:`ServerError`
    (504 before 503) and :class:`~repro.core.exceptions.\
ShardUnavailableError` subclasses :class:`BackpressureError` (both shed
    load as 429).
    """
    if isinstance(error, DeadlineError):
        return 504
    if isinstance(error, BackpressureError):
        return 429
    if isinstance(error, (UsageError, RegistryError)):
        return 400
    if isinstance(error, ArtifactError):
        return 409
    if isinstance(error, ServerError):
        return 503
    return 500


class _ServeHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`ServingEndpoint` instance."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: replies are single small
    #: writes, there is nothing for Nagle's algorithm to batch.
    disable_nagle_algorithm = True

    # The ThreadingHTTPServer subclass below carries the endpoint.
    @property
    def endpoint(self) -> "ServingEndpoint":
        """The serving endpoint that owns this handler's HTTP server."""
        return self.server.endpoint  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve the observability routes."""
        if self.path == "/metrics":
            self._reply(200, self.endpoint.repro_server.metrics())
        elif self.path == "/healthz":
            self._reply(
                200,
                {
                    "status": "ok",
                    "uptime_s": self.endpoint.repro_server.metrics_store.uptime_s,
                },
            )
        elif self.path == "/readyz":
            readiness = self.endpoint.repro_server.readiness()
            self._reply(200 if readiness["ready"] else 503, readiness)
        else:
            self._reply(404, _error_body(ServerError(f"no route {self.path!r}"), 404))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve the solve and shutdown routes."""
        if self.path == "/solve":
            self._solve()
        elif self.path == "/shutdown":
            self._reply(202, {"status": "draining"})
            self.endpoint.begin_shutdown()
        else:
            self._reply(404, _error_body(ServerError(f"no route {self.path!r}"), 404))

    # ------------------------------------------------------------------
    def _solve(self) -> None:
        """Decode one solve request, run it through the queue, answer JSON."""
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict) or "app" not in body:
                raise UsageError('POST /solve body must be JSON with an "app" key')
        except (ValueError, UsageError) as error:
            self._reply(400, _error_body(error, 400))
            return
        app = body.pop("app")
        dim = body.pop("dim", None)
        mode = body.pop("mode", None)
        deadline_s = body.pop("deadline_s", None)
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                error = UsageError(f"deadline_s must be a number, got {deadline_s!r}")
                self._reply(400, _error_body(error, 400))
                return
        try:
            policy = policy_from_body(body)
        except UsageError as error:
            self._reply(400, _error_body(error, 400))
            return
        if policy is not None:
            body["policy"] = policy
        ticket = None
        try:
            ticket = self.endpoint.repro_server.submit(
                app, dim, mode=mode, deadline_s=deadline_s, **body
            )
            # The ticket's own deadline bounds the wait (result() with no
            # timeout); the endpoint timeout is only the backstop for
            # deadline-less requests.
            if ticket.deadline_at is not None:
                result = ticket.result()
            else:
                result = ticket.result(timeout=self.endpoint.request_timeout_s)
        except Exception as error:  # noqa: BLE001 - every failure answers JSON
            # ReproErrors map to their documented statuses; anything else
            # (e.g. a TypeError from bad constructor kwargs) answers 500
            # instead of dropping the connection without a response.  A
            # still-pending ticket (result timeout) is cancelled so the
            # scheduler never does ghost work for this gone client.
            if ticket is not None:
                ticket.cancel()
            status = error_status(error)
            self._reply(status, _error_body(error, status))
            return
        self._reply(200, result_payload(app, dim, result))

    def _reply(self, status: int, payload: dict) -> None:
        """Send one JSON response, headers and body in one write.

        Flushed on their own, the headers leave as a small first segment;
        on a kept-alive connection Nagle's algorithm then holds the body
        until the client's delayed ACK, ~40 ms per request.
        """
        data = json.dumps(payload).encode("utf-8")
        connection_file, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if status == 429:
                # Explicit backpressure: tell well-behaved clients when to
                # come back instead of letting them hammer the full queue.
                self.send_header("Retry-After", str(RETRY_AFTER_S))
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = connection_file
        self.wfile.write(head + data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route per-request logging through the endpoint's logger hook."""
        self.endpoint.log(format % args)


def _error_body(error: BaseException, status: int) -> dict:
    """The JSON body of one error response."""
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "status": status,
        }
    }


class _EndpointHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows the endpoint it serves."""

    daemon_threads = True
    endpoint: "ServingEndpoint"


class ServingEndpoint:
    """One bound HTTP endpoint over one :class:`ReproServer`.

    Owns the listening socket (``port=0`` binds an ephemeral port — read the
    real one from :attr:`address`) and the shutdown choreography: a
    ``POST /shutdown`` (or :meth:`begin_shutdown`) stops the accept loop,
    after which :meth:`serve_forever` returns and the caller closes the
    repro server behind it.
    """

    def __init__(
        self,
        repro_server: ReproServer,
        host: str = "127.0.0.1",
        port: int = 8077,
        *,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.repro_server = repro_server
        self.request_timeout_s = float(request_timeout_s)
        self._log = log
        self._httpd = _EndpointHTTPServer((host, port), _ServeHandler)
        self._httpd.endpoint = self
        self._shutdown_requested = threading.Event()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The actually bound ``(host, port)`` (resolves ``port=0``)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound endpoint."""
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def shutdown_requested(self) -> bool:
        """True once a shutdown was requested (route or method)."""
        return self._shutdown_requested.is_set()

    def log(self, message: str) -> None:
        """Forward one access-log line to the configured hook (or drop it)."""
        if self._log is not None:
            self._log(message)

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the accept loop until :meth:`begin_shutdown` (blocking)."""
        self.repro_server.start()
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._httpd.server_close()

    def begin_shutdown(self) -> None:
        """Stop the accept loop from any thread; idempotent.

        ``serve_forever`` returns soon after; the in-flight handler that
        called this still gets its response out because the HTTP server's
        shutdown only stops *accepting*, it does not kill handler threads.
        """
        if self._shutdown_requested.is_set():
            return
        self._shutdown_requested.set()
        threading.Thread(
            target=self._httpd.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()

    def close(self) -> None:
        """Stop accepting and gracefully close the repro server behind."""
        self.begin_shutdown()
        self.repro_server.close()
