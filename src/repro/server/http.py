"""HTTP/JSON endpoint over :class:`repro.server.ReproServer`: one small HTTP/1.1 loop.

``repro serve`` binds one listening socket.  The accept loop hands each
connection to a parked connection thread and spawns one only when none is
parked: connection-per-request clients reuse two or three threads for ever,
every concurrent keep-alive client still has its own.  That thread does
everything for its connection — ``recv`` into a bounded buffer, split the
request line and the headers that matter, read the body, route, submit into
the server's bounded queue, block on its ticket, answer with one
``sendall`` — so HTTP concurrency is naturally capped by admission control,
and overload answers ``429`` instead of stalling.

Routes (all JSON):

* ``POST /solve`` — body ``{"app": ..., "dim": ..., "mode": ...,
  "backend": ..., "workers": ..., ...}``: the keys ``backend``, ``engine``,
  ``workers`` and ``tunables`` are lifted into one
  :class:`~repro.facade.policy.ExecutionPolicy` at decode time
  (:func:`policy_from_body`), everything else beyond app/dim/mode forwards
  to the application constructor; answers the result payload of
  :func:`result_payload`.
* ``GET /metrics`` — the server's metrics snapshot
  (:meth:`repro.server.ReproServer.metrics`) plus this endpoint's ``http``
  section (:meth:`ServingEndpoint.info`).
* ``GET /healthz`` — liveness: ``{"status": "ok", "uptime_s": ...}``.
  Answers 200 while the process serves HTTP at all — restarting shards do
  not flip liveness, only readiness.
* ``GET /readyz`` — readiness: per-shard state (``healthy`` / ``restarting``
  / ``dead``), restart counts and degraded mode
  (:meth:`repro.server.ReproServer.readiness`); answers ``503`` when no
  shard can take traffic so external probes route around the instance.
* ``POST /shutdown`` — begins a graceful drain + stop; answers ``202``.

Error mapping: deadline expiry → 504, backpressure → 429 (with a
``Retry-After`` header), usage/unknown-name/invalid-parameter errors → 400,
missing artifacts → 409, any other framework error → 500; every error body
is ``{"error": {"type": ..., "message": ...}}``.  ``POST /solve`` accepts an
optional ``deadline_s`` body key bounding the request end-to-end (default:
the server's ``default_deadline_s``).  What the wire loop itself refuses —
oversize heads and bodies, malformed framing — is listed at
:func:`_read_request` and in ``docs/serving.md``.
"""

from __future__ import annotations

import inspect
import json
import queue
import re
import socket
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable

from repro.apps.registry import get_application, resolve_application
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
from repro.session import Session

#: Default solve timeout an HTTP handler waits before answering 503
#: (the timeout surfaces as a ``ServerError``).
DEFAULT_REQUEST_TIMEOUT_S = 120.0
#: Largest request head (request line + headers) accepted; beyond it, 431.
MAX_HEADER_BYTES = 16 * 1024
#: Largest declared request body accepted; beyond it, 413.
MAX_BODY_BYTES = 1024 * 1024
#: Seconds one ``recv`` may wait (idle keep-alive connection, stalled
#: sender) before the connection is dropped and its thread parked.
SOCKET_TIMEOUT_S = 30.0
#: Seconds between the accept loop's looks at the shutdown flag.
_ACCEPT_POLL_S = 0.1
#: Seconds a refused connection is drained before it is closed.
_LINGER_S = 1.0
_RECV_BYTES = 65536
#: End of a request head; a bare LF is tolerated as a line terminator.
_HEAD_END = re.compile(rb"\r?\n\r?\n")


def grid_digest(result: ExecutionResult) -> str | None:
    """SHA-256 of the result grid's raw bytes (``result.grid_sha256``)."""
    return result.grid_sha256


def witness_digest(result: ExecutionResult) -> str | None:
    """SHA-256 of the witness array's bytes (``result.witness_sha256``)."""
    return result.witness_sha256


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
        payload["witness"] = result.witness.tolist()
        payload["witness_sha256"] = witness_digest(result)
    return payload


#: Parameter names of the functions a body's application overrides travel
#: through as ``**kwargs``: an override spelled like one would bind to it.
_RESERVED_KEYS = frozenset(
    name
    for function in (ReproServer.submit, Session.solve, Session.plan, resolve_application, get_application)
    for name in inspect.signature(function).parameters
)

#: Body keys of ``tunables``: the dict :meth:`ResolvedPlan.to_dict` writes.
_TUNABLE_KEYS = frozenset(TunableParams().features())


def _body_value(name: str, value, kind, what: str):
    """``value`` when it is a JSON ``kind`` (``what``, in words), else a usage error."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise UsageError(f"{name} must be {what}, got {value!r}")
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
            fields[name] = _body_value(name, value, str, "a string")
    workers = body.pop("workers", None)
    if workers is not None:
        fields["workers"] = _body_value("workers", workers, int, "an integer")
    tunables = body.pop("tunables", None)
    try:
        if tunables is not None:
            if not isinstance(tunables, dict) or set(tunables) != _TUNABLE_KEYS:
                raise UsageError(
                    f"tunables must be an object with exactly the keys "
                    f"{sorted(_TUNABLE_KEYS)}, got {tunables!r}"
                )
            fields["tunables"] = TunableParams(
                **{
                    k: _body_value(f"tunables.{k}", v, int, "an integer")
                    for k, v in tunables.items()
                }
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
    if isinstance(error, (UsageError, RegistryError, InvalidParameterError)):
        return 400
    if isinstance(error, ArtifactError):
        return 409
    if isinstance(error, ServerError):
        return 503
    return 500


def _error_body(error: BaseException, status: int) -> dict:
    """The JSON body of one error response."""
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "status": status,
        }
    }


class _Reject(Exception):
    """A request refused while it is read: ``(status, message)``."""


def _recv(conn: socket.socket) -> bytes:
    """The next bytes from ``conn``; :class:`ConnectionError` at end of stream."""
    chunk = conn.recv(_RECV_BYTES)
    if not chunk:
        raise ConnectionError("peer closed the connection")
    return chunk


def _read_request(conn: socket.socket, buffer: bytes):
    """Read one request from ``conn``, starting with the bytes in ``buffer``.

    Returns ``(request line, method, path, body, close, rest)`` — ``close``
    when the connection must not be reused, ``rest`` the bytes already read
    past this request (a pipelined successor).  Raises
    :class:`ConnectionError` when the peer closed the connection first and
    :class:`_Reject` for a request that cannot or may not be read, before
    its body is buffered: a head past :data:`MAX_HEADER_BYTES` (431), a
    declared body past :data:`MAX_BODY_BYTES` (413), a malformed request
    line, header or ``Content-Length`` and an unknown HTTP version (400),
    and ``Transfer-Encoding`` (501).
    """
    buffer = buffer.lstrip(b"\r\n")
    while not (end := _HEAD_END.search(buffer)) and len(buffer) <= MAX_HEADER_BYTES:
        buffer = (buffer + _recv(conn)).lstrip(b"\r\n")
    if end is None or end.start() > MAX_HEADER_BYTES:
        raise _Reject(431, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    lines = buffer[: end.start()].splitlines()
    buffer = buffer[end.end() :]
    try:
        method, path, version = lines[0].decode("ascii").split(" ")
    except ValueError:
        raise _Reject(400, f"malformed request line {lines[0][:64]!r}") from None
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise _Reject(400, f"unsupported HTTP version {version!r}")
    headers: dict[bytes, bytes] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        name, value = name.strip().lower(), value.strip()
        if not colon or not name:
            raise _Reject(400, f"malformed header line {line[:64]!r}")
        headers[name] = value
    if b"transfer-encoding" in headers:
        raise _Reject(501, "Transfer-Encoding is not supported; send Content-Length")
    declared = headers.get(b"content-length", b"0")
    if not declared.isdigit():
        raise _Reject(400, f"Content-Length must be a number, got {declared[:64]!r}")
    # Ten significant digits are past any bound and safe to convert.
    length = int(declared.lstrip(b"0")[:10] or b"0")
    if length > MAX_BODY_BYTES:
        raise _Reject(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    if headers.get(b"expect", b"").lower() == b"100-continue" and len(buffer) < length:
        conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
    while len(buffer) < length:
        buffer += _recv(conn)
    connection = headers.get(b"connection", b"").lower()
    close = connection == b"close" or (
        version == "HTTP/1.0" and connection != b"keep-alive"
    )
    return lines[0], method, path, buffer[:length], close, buffer[length:]


class ServingEndpoint:
    """One bound HTTP endpoint over one :class:`ReproServer`.

    Owns the listening socket (``port=0`` binds an ephemeral port — read the
    real one from :attr:`address`), the connection threads and the shutdown
    choreography: ``POST /shutdown`` (or :meth:`begin_shutdown`) stops the
    accept loop, :meth:`serve_forever` returns and the caller closes the
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
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(_ACCEPT_POLL_S)
        self._shutdown_requested = threading.Event()
        # `_idle` of the `_spawned` connection threads are parked on
        # `_handoff`; `_lock` orders the accept loop's park-or-spawn choice
        # against a thread's decision to park.
        self._lock = threading.Lock()
        self._handoff: queue.SimpleQueue = queue.SimpleQueue()
        self._connections = self._spawned = self._idle = 0
        self._date = (0, "")

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The actually bound ``(host, port)`` (resolves ``port=0``)."""
        return self._listener.getsockname()[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound endpoint."""
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def shutdown_requested(self) -> bool:
        """True once a shutdown was requested (route or method)."""
        return self._shutdown_requested.is_set()

    def info(self) -> dict:
        """The ``http`` section of ``GET /metrics``: connection-thread counts."""
        with self._lock:
            return {
                "connections": self._connections,
                "threads_spawned": self._spawned,
                "threads_idle": self._idle,
            }

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Start the repro server, then accept until :meth:`begin_shutdown`."""
        self.repro_server.start()
        self.accept_forever()

    def accept_forever(self) -> None:
        """Run the accept loop alone until :meth:`begin_shutdown` (blocking).

        The repro server's lifecycle stays with the caller, so HTTP can be
        served in front of a server that is not started.
        """
        try:
            while not self._shutdown_requested.is_set():
                try:
                    conn, _ = self._listener.accept()
                except OSError:  # the poll timeout, or a failed handshake
                    continue
                with self._lock:
                    self._connections += 1
                    parked = self._idle > 0
                    if parked:
                        self._idle -= 1
                    else:
                        self._spawned += 1
                if parked:
                    self._handoff.put(conn)
                else:
                    threading.Thread(
                        target=self._connection_thread,
                        args=(conn,),
                        name=f"repro-http-{self._spawned}",
                        daemon=True,
                    ).start()
        finally:
            self._listener.close()
            with self._lock:
                self._shutdown_requested.set()  # on any way out: nobody parks now
                parked, self._idle = self._idle, 0
            for _ in range(parked):
                self._handoff.put(None)

    def begin_shutdown(self) -> None:
        """Stop the accept loop (within one poll) from any thread; idempotent.

        Only *accepting* stops: connection threads finish the request they have.
        """
        self._shutdown_requested.set()

    def close(self) -> None:
        """Stop accepting and gracefully close the repro server behind."""
        self.begin_shutdown()
        self.repro_server.close()

    # ------------------------------------------------------------------
    # Connection threads
    # ------------------------------------------------------------------
    def _connection_thread(self, conn: socket.socket | None) -> None:
        """Serve one connection after another, parked in between."""
        while conn is not None:
            try:
                self._serve_connection(conn)
            except OSError:  # timeout, reset, end of stream: the peer is gone
                pass
            finally:
                conn.close()
            with self._lock:
                if self._shutdown_requested.is_set():
                    return
                self._idle += 1
            conn = self._handoff.get()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Answer requests on one connection until it is, or must be, closed."""
        # Replies are single small writes: nothing for Nagle to batch.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(SOCKET_TIMEOUT_S)
        rest = b""
        while True:
            try:
                line, method, path, body, close, rest = _read_request(conn, rest)
            except _Reject as reject:
                status, message = reject.args
                body = _error_body(UsageError(message), status)
                self._send(conn, b"-", status, body, close=True)
                # Closing over unread bytes resets the connection, which can
                # take the reply off the wire before the peer reads it: end
                # our side and drain, briefly, until the peer ends its own.
                conn.shutdown(socket.SHUT_WR)
                conn.settimeout(_LINGER_S)
                deadline = time.monotonic() + _LINGER_S
                while conn.recv(_RECV_BYTES) and time.monotonic() < deadline:
                    pass
                return
            if (method, path) == ("POST", "/shutdown"):
                self._send(conn, line, 202, {"status": "draining"}, close=True)
                self.begin_shutdown()
                return
            close = close or self.shutdown_requested
            self._send(conn, line, *self._respond(method, path, body), close=close)
            if close:
                return

    def _respond(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        """Route one request; ``(status, JSON payload)``."""
        if method == "GET":
            if path == "/metrics":
                return 200, {**self.repro_server.metrics(), "http": self.info()}
            if path == "/healthz":
                uptime_s = self.repro_server.metrics_store.uptime_s
                return 200, {"status": "ok", "uptime_s": uptime_s}
            if path == "/readyz":
                readiness = self.repro_server.readiness()
                return (200 if readiness["ready"] else 503), readiness
        elif method == "POST":
            if path == "/solve":
                return self._solve(body)
        else:
            error = UsageError(f"method {method!r} is not supported")
            return 405, _error_body(error, 405)
        return 404, _error_body(ServerError(f"no route {path!r}"), 404)

    def _solve(self, raw: bytes) -> tuple[int, dict]:
        """Decode one solve request, run it through the queue, answer JSON."""
        try:
            body = json.loads(raw or b"{}")
            if not isinstance(body, dict) or "app" not in body:
                raise UsageError('POST /solve body must be JSON with an "app" key')
            app = _body_value("app", body.pop("app"), str, "a string")
            dim = body.pop("dim", None)
            mode = body.pop("mode", None)
            deadline_s = body.pop("deadline_s", None)
            if dim is not None:
                _body_value("dim", dim, int, "an integer")
            if mode is not None:
                _body_value("mode", mode, str, "a string")
            if deadline_s is not None:
                _body_value("deadline_s", deadline_s, (int, float), "a number")
                if not abs(deadline_s) < threading.TIMEOUT_MAX / 2:  # or NaN
                    raise UsageError(f"deadline_s must be finite, got {deadline_s!r}")
            policy = policy_from_body(body)
            clash = sorted(_RESERVED_KEYS.intersection(body))
            if clash:
                raise InvalidParameterError(
                    f"invalid arguments {clash} for application {app!r}: reserved names"
                )
        except (ValueError, RecursionError, UsageError) as error:
            return 400, _error_body(error, 400)
        if policy is not None:
            body["policy"] = policy
        ticket = None
        try:
            ticket = self.repro_server.submit(
                app, dim, mode=mode, deadline_s=deadline_s, **body
            )
            # The ticket's own deadline bounds the wait; the endpoint
            # timeout is only the backstop for deadline-less requests.
            if ticket.deadline_at is not None:
                result = ticket.result()
            else:
                result = ticket.result(timeout=self.request_timeout_s)
        except Exception as error:  # noqa: BLE001 - every failure answers JSON
            # ReproErrors map to their documented statuses; anything else
            # answers 500 instead of dropping the connection.  A pending
            # ticket (result timeout) is cancelled: no ghost work.
            if ticket is not None:
                ticket.cancel()
            status = error_status(error)
            return status, _error_body(error, status)
        return 200, result_payload(app, dim, result)

    def _send(
        self, conn: socket.socket, line: bytes, status: int, payload: dict, close: bool
    ) -> None:
        """Send one JSON response, head and body in one write.

        Sent on its own, the head leaves as a small first segment; a
        kept-alive peer's delayed ACK then holds the body ~40 ms (Nagle).
        """
        data = json.dumps(payload).encode("utf-8")
        second = int(time.time())
        if self._date[0] != second:  # formatted once per second, not per reply
            self._date = (second, formatdate(second, usegmt=True))
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Date: {self._date[1]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
        )
        if status == 429:  # tell well-behaved clients when to come back
            head += f"Retry-After: {RETRY_AFTER_S}\r\n"
        if close:
            head += "Connection: close\r\n"
        conn.sendall(head.encode("ascii") + b"\r\n" + data)
        if self._log is not None:
            self._log(f'"{line.decode("latin-1")}" {status} -')
