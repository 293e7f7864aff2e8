"""Wire-level tests of the HTTP/1.1 connection loop, over raw sockets.

``test_http.py`` checks routes and error mapping through well-behaved
clients; this module sends the bytes itself: keep-alive, pipelining,
byte-at-a-time delivery, every malformed request the loop must refuse with
a typed JSON body, arbitrary bytes, and the accounting of the connection
threads (reused, never leaked, one per concurrent keep-alive client).
"""

import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.server import ReproServer, ServerConfig, ServingEndpoint
from repro.server import http as serve_http

SOLVE_BODY = json.dumps({"app": "lcs", "dim": 8}).encode()


def request_bytes(method="POST", path="/solve", body=SOLVE_BODY, version="HTTP/1.1", headers=()):
    """One well-formed request as the bytes a client would send."""
    lines = [f"{method} {path} {version}", f"Content-Length: {len(body)}", *headers]
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


def connect(ep):
    return socket.create_connection(ep.address, timeout=10)


def read_response(reader):
    """Parse one response off ``reader``; ``None`` at end of stream."""
    status_line = reader.readline()
    if not status_line:
        return None
    version, status, _ = status_line.decode().split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return int(status), headers, json.loads(body) if body else None


def read_all(sock):
    """Every response until the server closes the connection."""
    with sock.makefile("rb") as reader:
        responses = []
        while (response := read_response(reader)) is not None:
            responses.append(response)
        return responses


def wait_until(predicate, timeout_s=5.0):
    end = time.monotonic() + timeout_s
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


def all_parked(ep):
    info = ep.info()
    return info["threads_idle"] == info["threads_spawned"]


class TestConnectionReuse:
    def test_five_requests_on_one_kept_alive_connection(self, endpoint):
        with connect(endpoint) as sock, sock.makefile("rb") as reader:
            for _ in range(5):
                sock.sendall(request_bytes())
                status, headers, body = read_response(reader)
                assert status == 200 and body["app"] == "lcs"
                assert "connection" not in headers and "date" in headers
        assert endpoint.info()["connections"] == 1

    def test_two_requests_pipelined_in_one_segment(self, endpoint):
        pipelined = request_bytes("GET", "/healthz", b"") + request_bytes(
            headers=("Connection: close",)
        )
        with connect(endpoint) as sock:
            sock.sendall(pipelined)
            first, second = read_all(sock)
        assert first[0] == 200 and first[2]["status"] == "ok"
        assert second[0] == 200 and second[2]["dim"] == 8

    def test_a_request_delivered_one_byte_per_send(self, endpoint):
        with connect(endpoint) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in request_bytes(headers=("Connection: close",)):
                sock.send(bytes([byte]))
            [(status, _, body)] = read_all(sock)
        assert status == 200 and len(body["grid_sha256"]) == 64

    def test_connection_close_is_echoed_and_honoured(self, endpoint):
        with connect(endpoint) as sock:
            sock.sendall(request_bytes(headers=("Connection: close",)))
            [(status, headers, _)] = read_all(sock)  # read_all ends at EOF
        assert status == 200 and headers["connection"] == "close"

    def test_http_1_0_closes_after_the_reply(self, endpoint):
        with connect(endpoint) as sock:
            sock.sendall(request_bytes("GET", "/healthz", b"", version="HTTP/1.0"))
            [(status, headers, _)] = read_all(sock)
        assert status == 200 and headers["connection"] == "close"

    def test_expect_100_continue_is_answered_before_the_body(self, endpoint):
        head, _, body = request_bytes(headers=("Expect: 100-continue",)).partition(
            b"\r\n\r\n"
        )
        with connect(endpoint) as sock, sock.makefile("rb") as reader:
            sock.sendall(head + b"\r\n\r\n")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, _, payload = read_response(reader)
        assert status == 200 and payload["dim"] == 8

    def test_bare_lf_line_endings_are_tolerated(self, endpoint):
        with connect(endpoint) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\n\n")
            [(status, _, body)] = read_all(sock)
        assert status == 200 and body["status"] == "ok"


MALFORMED = {
    "head past the bound": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (17 * 1024) + b"\r\n\r\n",
        431,
    ),
    "head past the bound, never terminated": (b"GET /" + b"a" * (80 * 1024), 431),
    # Only the head is sent: the refusal must not wait for the body.
    "declared body past the bound": (
        b"POST /solve HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
        413,
    ),
    "astronomic content-length": (
        b"POST /solve HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
        413,
    ),
    "negative content-length": (b"POST /solve HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    "non-numeric content-length": (b"POST /solve HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
    "malformed request line": (b"HELLO\r\n\r\n", 400),
    "non-ascii request line": (b"GET /\xff\xfe HTTP/1.1\r\n\r\n", 400),
    "unsupported version": (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
    "header without a colon": (b"GET /healthz HTTP/1.1\r\nnonsense\r\n\r\n", 400),
    "transfer-encoding": (
        b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        501,
    ),
    "unknown method": (request_bytes("DELETE", "/solve", b""), 405),
    "json nested past the recursion limit": (
        request_bytes(body=b"[" * 100_000, headers=("Connection: close",)),
        400,
    ),
}


class TestMalformedRequests:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_refused_typed_and_the_next_connection_is_served(self, endpoint, case):
        raw, expected = MALFORMED[case]
        with connect(endpoint) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            [(status, _, body)] = read_all(sock)
        assert status == expected
        assert body["error"]["status"] == expected and body["error"]["message"]
        with connect(endpoint) as sock:
            sock.sendall(request_bytes("GET", "/healthz", b"", version="HTTP/1.0"))
            assert read_all(sock)[0][0] == 200

    def test_a_peer_that_disconnects_mid_request_frees_its_thread(self, endpoint):
        for partial in (b"POST /sol", request_bytes()[:-3]):
            with connect(endpoint) as sock:
                sock.sendall(partial)
            wait_until(lambda: all_parked(endpoint))
        assert endpoint.info()["threads_spawned"] <= 2

    def test_a_stalled_peer_is_dropped_at_the_socket_timeout(self, endpoint, monkeypatch):
        monkeypatch.setattr(serve_http, "SOCKET_TIMEOUT_S", 0.2)
        with connect(endpoint) as sock:
            sock.sendall(request_bytes()[:-3])  # the rest never comes
            started = time.monotonic()
            assert sock.recv(1) == b""  # the server hung up, unanswered
            assert time.monotonic() - started < 5
        wait_until(lambda: all_parked(endpoint))


#: Header values a hostile or broken client might send.
header_value = st.one_of(
    st.sampled_from(["0", "21", "close", "keep-alive", "100-continue", "-1", "1e3", ""]),
    st.text(st.characters(codec="latin-1", exclude_characters="\r\n"), max_size=40),
)


class TestHostileBytes:
    """Whatever arrives, the loop answers typed (never 500) or hangs up, and
    the connection thread is back in the pool afterwards."""

    def check(self, endpoint, raw):
        with connect(endpoint) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            responses = read_all(sock)
        for status, _, body in responses:
            assert status in (200, 400, 404, 405, 413, 431, 501), (status, body)
        return responses

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(raw=st.binary(max_size=600))
    def test_arbitrary_bytes(self, endpoint, raw):
        self.check(endpoint, raw)
        assert endpoint.info()["threads_spawned"] <= 2

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        length=header_value,
        connection=header_value,
        expect=header_value,
        version=st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "HTTP/1.1 "]),
    )
    def test_valid_heads_with_mutated_header_values(
        self, endpoint, length, connection, expect, version
    ):
        head = (
            f"POST /solve {version}\r\nContent-Length: {length}\r\n"
            f"Connection: {connection}\r\nExpect: {expect}\r\n\r\n"
        ).encode("latin-1")
        responses = self.check(endpoint, head + SOLVE_BODY)
        if length == str(len(SOLVE_BODY)) and version in ("HTTP/1.1", "HTTP/1.0"):
            assert [status for status, _, _ in responses] == [200]
        assert endpoint.info()["threads_spawned"] <= 2

    def test_no_thread_stays_busy_after_the_batteries(self, endpoint):
        self.check(endpoint, b"\x00" * 64)
        wait_until(lambda: all_parked(endpoint))


class TestThreadAccounting:
    def test_200_sequential_close_requests_reuse_two_threads(self, endpoint):
        raw = request_bytes(headers=("Connection: close",))
        for _ in range(200):
            with connect(endpoint) as sock:
                sock.sendall(raw)
                assert read_all(sock)[0][0] == 200
        info = endpoint.info()
        assert info["connections"] == 200 and info["threads_spawned"] <= 2

    def test_a_thread_is_parked_before_its_peer_sees_the_close(self, serve_session):
        # A `Connection: close` client reconnects on end of stream; a thread
        # not yet counted parked then makes the accept loop spawn another.
        # Record the parked count at the instant the server closes each
        # accepted socket.
        idle_at_close = []
        server = ReproServer(serve_session, ServerConfig(adaptive="off"))
        ep = ServingEndpoint(server, port=0)
        listener = ep._listener

        class RecordingSocket(socket.socket):
            def close(self):
                idle_at_close.append(ep.info()["threads_idle"])
                super().close()

        class RecordingListener:
            def accept(self):
                conn, address = listener.accept()
                return RecordingSocket(fileno=conn.detach()), address

            def __getattr__(self, name):
                return getattr(listener, name)

        ep._listener = RecordingListener()
        thread = threading.Thread(target=ep.serve_forever, daemon=True)
        thread.start()
        try:
            for _ in range(3):
                with connect(ep) as sock:
                    sock.sendall(request_bytes("GET", "/healthz", b"", headers=("Connection: close",)))
                    assert read_all(sock)[0][0] == 200
            info = ep.info()
        finally:
            ep.begin_shutdown()
            thread.join(timeout=10)
            server.close()
        assert idle_at_close == [1, 1, 1]
        assert info["threads_spawned"] == 1

    def test_eight_concurrent_keep_alive_clients_get_eight_threads(self, endpoint):
        socks = [connect(endpoint) for _ in range(8)]
        try:
            for sock in socks:  # all eight are open before any is answered
                sock.sendall(request_bytes("GET", "/healthz", b""))
            for sock in socks:
                with sock.makefile("rb") as reader:
                    assert read_response(reader)[0] == 200
            info = endpoint.info()
            assert info["threads_spawned"] == 8 and info["threads_idle"] == 0
        finally:
            for sock in socks:
                sock.close()
        wait_until(lambda: endpoint.info()["threads_idle"] == 8)
        with connect(endpoint) as sock:  # and the ninth connection reuses one
            sock.sendall(request_bytes("GET", "/metrics", b"", version="HTTP/1.0"))
            [(status, _, metrics)] = read_all(sock)
        assert status == 200
        assert metrics["http"] == {"connections": 9, "threads_spawned": 8, "threads_idle": 7}

    def test_a_solve_runs_on_a_shard_thread_and_no_worker_thread_exists(self, serve_session):
        seen = []
        server = ReproServer(serve_session, ServerConfig(adaptive="off"))
        ep = ServingEndpoint(server, port=0)
        thread = threading.Thread(target=ep.serve_forever, daemon=True)
        thread.start()
        serve_session.attach_observer(
            lambda plan, mode, wall_s: seen.append(threading.current_thread().name)
        )
        try:
            with connect(ep) as sock:
                # A dimension no other test solves: the plan must really run.
                body = json.dumps({"app": "lcs", "dim": 23}).encode()
                sock.sendall(request_bytes(body=body, headers=("Connection: close",)))
                assert read_all(sock)[0][0] == 200
            names = [t.name for t in threading.enumerate()]
        finally:
            serve_session.attach_observer(None)
            ep.begin_shutdown()
            thread.join(timeout=10)
            server.close()
        assert seen == ["repro-shard-0"]
        assert not [name for name in names if name.startswith("repro-serve-worker")]
        # One thread between the connection and the session: the lane.
        assert {n.split("-")[1] for n in names if n.startswith("repro-")} == {"http", "shard"}
        assert [n for n in names if n.startswith("repro-shard")] == ["repro-shard-0"]

    def test_the_endpoint_threads_end_with_the_accept_loop(self, endpoint):
        with connect(endpoint) as sock:
            sock.sendall(request_bytes("GET", "/healthz", b"", version="HTTP/1.0"))
            read_all(sock)
        wait_until(lambda: all_parked(endpoint))
        endpoint.begin_shutdown()
        wait_until(
            lambda: not [t for t in threading.enumerate() if t.name.startswith("repro-http-")]
        )
