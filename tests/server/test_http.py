"""Tests for the HTTP/JSON endpoint (routes, error mapping, shutdown)."""

import http.client
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.exceptions import (
    ArtifactError,
    BackpressureError,
    DeadlineError,
    InvalidParameterError,
    ServerError,
    UnknownApplicationError,
    UsageError,
    WorkerCrashError,
)
from repro.server import (
    ReproServer,
    ServerConfig,
    ServingEndpoint,
    grid_digest,
    witness_digest,
)
from repro.server.http import error_status


def urlopen_json(request, timeout):
    """Send one request; return (status, decoded body).

    An error status raises :class:`urllib.error.HTTPError` as urllib does,
    but with its body read and its socket closed here: a test that only
    checks the code must not leave the connection to the collector.
    """
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            body = error.read()
        raise urllib.error.HTTPError(
            error.url, error.code, error.msg, error.hdrs, io.BytesIO(body)
        ) from None


def get_json(url, timeout=10):
    """GET one JSON payload."""
    return urlopen_json(url, timeout)[1]


def post_json(url, payload, timeout=60):
    """POST one JSON payload; return (status, body)."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    return urlopen_json(request, timeout)


class TestRoutes:
    def test_solve_answers_the_result_payload(self, endpoint, serve_session):
        status, body = post_json(endpoint.url + "/solve", {"app": "lcs", "dim": 48})
        assert status == 200
        reference = serve_session.solve("lcs", 48)
        assert body["value"] == reference.value
        assert body["checksum"] == reference.checksum
        assert len(body["grid_sha256"]) == 64
        assert body["app"] == "lcs" and body["dim"] == 48

    def test_solve_accepts_plan_overrides(self, endpoint, serve_session):
        status, body = post_json(
            endpoint.url + "/solve",
            {"app": "lcs", "dim": 48, "backend": "serial"},
        )
        assert status == 200
        assert body["checksum"] == serve_session.solve("lcs", 48).checksum

    def test_solve_accepts_the_tunables_a_plan_file_writes(self, endpoint, serve_session):
        pinned = serve_session.plan("lcs", 48).to_dict()["tunables"]
        pinned["cpu_tile"] = 6
        status, body = post_json(
            endpoint.url + "/solve",
            {"app": "lcs", "dim": 48, "backend": "hybrid", "tunables": pinned},
        )
        assert status == 200
        assert body["tunables"] == pinned
        assert body["checksum"] == serve_session.solve("lcs", 48).checksum

    def test_witness_bearing_app_answers_the_exact_path(
        self, endpoint, serve_session
    ):
        status, body = post_json(
            endpoint.url + "/solve", {"app": "viterbi", "dim": 32}
        )
        assert status == 200
        reference = serve_session.solve("viterbi", 32)
        # The served witness is byte-identical to in-process solving: the
        # JSON list round-trips the int64 path and the digest matches.
        assert body["witness"] == [int(x) for x in reference.witness]
        assert body["witness_sha256"] == witness_digest(reference)
        assert len(body["witness_sha256"]) == 64

    @pytest.mark.parametrize(
        "app, seed", [("lcs", [1]), ("viterbi", [1, 2]), ("stochastic-path", [3, 4])]
    )
    def test_a_list_valued_argument_is_served(self, endpoint, serve_session, app, seed):
        # A list is a valid seed; the request identity freezes it instead
        # of failing to hash it.
        status, body = post_json(
            endpoint.url + "/solve", {"app": app, "dim": 16, "seed": seed}
        )
        assert status == 200
        reference = serve_session.solve(app, 16, seed=seed)
        assert body["grid_sha256"] == grid_digest(reference)
        assert body.get("witness_sha256") == witness_digest(reference)

    def test_witness_free_app_answers_neither_witness_key(self, endpoint):
        status, body = post_json(endpoint.url + "/solve", {"app": "lcs", "dim": 48})
        assert status == 200
        assert "witness" not in body and "witness_sha256" not in body

    def test_only_a_simulate_answer_carries_a_price(self, endpoint, serve_session):
        _, functional = post_json(endpoint.url + "/solve", {"app": "lcs", "dim": 48})
        assert "rtime_s" not in functional and functional["wall_time_s"] > 0
        _, simulated = post_json(
            endpoint.url + "/solve", {"app": "lcs", "dim": 48, "mode": "simulate"}
        )
        assert simulated["rtime_s"] == serve_session.solve("lcs", 48, mode="simulate").rtime > 0
        assert "value" not in simulated and "checksum" not in simulated

    def test_metrics_and_healthz(self, endpoint):
        post_json(endpoint.url + "/solve", {"app": "lcs", "dim": 48})
        metrics = get_json(endpoint.url + "/metrics")
        assert metrics["requests"]["completed"] >= 1
        assert "histogram" in metrics["batches"]
        health = get_json(endpoint.url + "/healthz")
        assert health["status"] == "ok" and health["uptime_s"] >= 0


class TestKeepAlive:
    """HTTP/1.1 invites connection reuse; a reused connection must not stall."""

    def test_a_response_leaves_in_a_single_write(self, endpoint, monkeypatch):
        writes = []
        real_sendall = socket.socket.sendall

        def counting_sendall(self, data):
            if threading.current_thread().name.startswith("repro-http-"):
                writes.append(len(data))
            return real_sendall(self, data)

        monkeypatch.setattr(socket.socket, "sendall", counting_sendall, raising=False)
        assert get_json(endpoint.url + "/healthz")["status"] == "ok"
        assert len(writes) == 1  # headers + body: nothing for Nagle to hold back
        del writes[:]
        status, _ = post_json(endpoint.url + "/solve", {"app": "lcs", "dim": 16})
        assert status == 200 and len(writes) == 1

    def test_twenty_requests_on_one_connection_do_not_pay_delayed_acks(self, endpoint):
        host, port = endpoint.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        body = json.dumps({"app": "lcs", "dim": 16})
        try:
            connection.request("POST", "/solve", body=body)  # warm the plan
            assert connection.getresponse().read()
            started = time.perf_counter()
            for i in range(20):
                if i % 2:
                    connection.request("GET", "/healthz")
                else:
                    connection.request("POST", "/solve", body=body)
                response = connection.getresponse()
                assert response.status == 200 and response.read()
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        # Headers and body in two segments cost ~40 ms per request (800 ms
        # here); one segment costs the solve, a few ms.
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed * 1e3:.0f} ms"


class TestErrorMapping:
    def test_unknown_app_maps_to_400(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(endpoint.url + "/solve", {"app": "no-such-app", "dim": 8})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "UnknownApplicationError"

    def test_body_without_app_maps_to_400(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(endpoint.url + "/solve", {"dim": 8})
        assert excinfo.value.code == 400

    def test_malformed_override_maps_to_400_not_500(self, endpoint):
        for override in ({"workers": "two"}, {"backend": ["serial"]}, {"tunables": {"cpu_tile": 4}}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(endpoint.url + "/solve", {"app": "lcs", "dim": 48, **override})
            assert excinfo.value.code == 400, override
            assert json.loads(excinfo.value.read())["error"]["type"] == "UsageError"

    def test_names_the_registry_does_not_know_map_to_400_not_500(self, endpoint):
        for override in (
            {"engine": "fpga"},
            {"engine": "mp"},
            {"backend": "hybrid-mp"},
            {"backend": "hybrid", "engine": "hybrid"},
            {"backend": "compiled"},
            {"engine": "compiled"},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(endpoint.url + "/solve", {"app": "lcs", "dim": 48, **override})
            assert excinfo.value.code == 400, override
            error = json.loads(excinfo.value.read())["error"]
            assert error["type"] == "UnknownExecutorError"
            assert "mp-parallel, pipelined, serial" in error["message"]

    def test_unknown_route_maps_to_404(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(endpoint.url + "/nope")
        assert excinfo.value.code == 404

    @pytest.mark.parametrize(
        "body, error_type",
        [
            ({"app": "lcs", "dim": 12, "bogus": 1}, "InvalidParameterError"),
            # Spelled like a parameter of a function the overrides pass through.
            ({"app": "lcs", "dim": 12, "self": 1}, "InvalidParameterError"),
            ({"app": "lcs", "dim": 12, "name": "x"}, "InvalidParameterError"),
            ({"app": "lcs", "dim": "12"}, "UsageError"),
            ({"app": "lcs", "dim": -3}, "InvalidParameterError"),
            ({"app": "lcs", "dim": 12, "similarity": "x"}, "InvalidParameterError"),
            ({"app": ["lcs"], "dim": 12}, "UsageError"),
            ({"app": "lcs", "dim": 12, "mode": 7}, "UsageError"),
            ({"app": "lcs", "dim": 12, "mode": "warp"}, "InvalidParameterError"),
            ({"app": "lcs", "dim": 12, "deadline_s": 1e999}, "InvalidParameterError"),
            # A value the kernel refuses when it is built, after construction.
            ({"app": "lcs", "dim": 16, "seed": 1.5}, "InvalidParameterError"),
            ({"app": "lcs", "dim": 16, "seed": {"a": 1}}, "InvalidParameterError"),
            # A value the request identity cannot canonicalise.
            ({"app": "lcs", "dim": 16, "seed": float("nan")}, "InvalidParameterError"),
            ({"app": "lcs", "dim": 16, "similarity": float("inf")}, "InvalidParameterError"),
            # An iteration count is an integer, never truncated into one.
            ({"app": "nash-equilibrium", "dim": 16, "inner_iterations": 2.5}, "InvalidParameterError"),
            ({"app": "nash-equilibrium", "dim": 16, "inner_iterations": 2.0}, "InvalidParameterError"),
            ({"app": "nash-equilibrium", "dim": 16, "inner_iterations": True}, "InvalidParameterError"),
        ],
    )
    def test_a_client_mistake_maps_to_400_not_500(self, endpoint, body, error_type):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(endpoint.url + "/solve", body)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["type"] == error_type
        if "bogus" in body:  # the constructor's complaint names the argument
            assert "'bogus'" in error["message"]

    def test_a_reserved_body_key_answers_400_and_the_connection_serves_on(self, endpoint):
        host, port = endpoint.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for key in ("self", "name", "app_kwargs"):
                body = json.dumps({"app": "lcs", "dim": 12, key: 1})
                connection.request("POST", "/solve", body=body)
                response = connection.getresponse()
                assert response.status == 400, key
                assert repr(key) in json.loads(response.read())["error"]["message"]
            connection.request("POST", "/solve", body=json.dumps({"app": "lcs", "dim": 12}))
            response = connection.getresponse()
            assert response.status == 200 and response.read()
        finally:
            connection.close()

    def test_non_framework_error_maps_to_500_not_dropped_connection(
        self, endpoint, monkeypatch
    ):
        # A failure that is not the client's doing must still answer a JSON
        # error body, never drop the socket.
        def broken_submit(*args, **kwargs):
            raise RuntimeError("the server's own bug")

        monkeypatch.setattr(endpoint.repro_server, "submit", broken_submit)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(endpoint.url + "/solve", {"app": "lcs", "dim": 48})
        assert excinfo.value.code == 500
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "RuntimeError"

    def test_backpressure_maps_to_429(self, serve_session, blocked):
        # One request in flight fills capacity 1, so the next HTTP request
        # overflows.
        server = ReproServer(serve_session, ServerConfig(queue_capacity=1))
        ep = ServingEndpoint(server, port=0)
        thread = threading.Thread(target=ep.accept_forever, daemon=True)
        thread.start()
        try:
            with blocked(server):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post_json(ep.url + "/solve", {"app": "lcs", "dim": 48})
            assert excinfo.value.code == 429
            body = json.loads(excinfo.value.read())
            assert body["error"]["type"] == "BackpressureError"
        finally:
            ep.begin_shutdown()
            thread.join(timeout=10)
            server.close()


class TestFaultTolerantRoutes:
    def test_readyz_reports_readiness_and_counters(self, endpoint):
        body = get_json(endpoint.url + "/readyz")
        assert body["ready"] is True and body["running"] is True
        assert body["crashes"] == 0 and body["redispatches"] == 0
        assert set(body) == {
            "in_flight", "dropped_responses", "crashes", "redispatches",
            "faults_injected", "faults", "ready", "running",
        }

    @pytest.mark.parametrize(
        "error, status",
        [
            (DeadlineError("late"), 504),
            (BackpressureError("full"), 429),
            (UsageError("bad"), 400),
            (UnknownApplicationError("nope"), 400),
            (InvalidParameterError("bad"), 400),
            (ArtifactError("gone"), 409),
            (ServerError("shut down"), 503),
            (WorkerCrashError("worker died"), 503),
            (RuntimeError("bug"), 500),
        ],
    )
    def test_error_status_maps_each_error_class(self, error, status):
        assert error_status(error) == status

    def test_a_worker_crash_that_outlives_its_rerun_maps_to_503(
        self, endpoint, serve_session, monkeypatch
    ):
        def crashing(*args, **kwargs):
            raise WorkerCrashError("worker process 1 of the 2-worker team died")

        monkeypatch.setattr(serve_session, "solve_one", crashing)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(endpoint.url + "/solve", {"app": "lcs", "dim": 48})
        assert excinfo.value.code == 503
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "WorkerCrashError"
        supervisor = get_json(endpoint.url + "/metrics")["supervisor"]
        assert supervisor["crashes"] == 2 and supervisor["redispatches"] == 1

    def test_expired_deadline_maps_to_504(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(
                endpoint.url + "/solve",
                {"app": "lcs", "dim": 48, "deadline_s": 1e-6},
            )
        assert excinfo.value.code == 504
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "DeadlineError"

    def test_malformed_deadline_maps_to_400(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(
                endpoint.url + "/solve",
                {"app": "lcs", "dim": 48, "deadline_s": "soonish"},
            )
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("deadline_s", [0, -5, 0.0])
    def test_a_deadline_not_above_zero_maps_to_400(self, endpoint, deadline_s):
        # A client may tighten the operator's default deadline, never lift it.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(
                endpoint.url + "/solve",
                {"app": "lcs", "dim": 12, "deadline_s": deadline_s},
            )
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "InvalidParameterError"

    def test_429_carries_a_retry_after_header(self, serve_session, blocked):
        # Same overflow as the backpressure mapping test above.
        server = ReproServer(serve_session, ServerConfig(queue_capacity=1))
        ep = ServingEndpoint(server, port=0)
        thread = threading.Thread(target=ep.accept_forever, daemon=True)
        thread.start()
        try:
            with blocked(server):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post_json(ep.url + "/solve", {"app": "lcs", "dim": 48})
            assert excinfo.value.code == 429
            assert excinfo.value.headers.get("Retry-After") == "1"
        finally:
            ep.begin_shutdown()
            thread.join(timeout=10)
            server.close()


class TestShutdown:
    def test_post_shutdown_stops_the_accept_loop(self, serve_session):
        server = ReproServer(serve_session, ServerConfig(queue_capacity=8))
        ep = ServingEndpoint(server, port=0)
        thread = threading.Thread(target=ep.serve_forever, daemon=True)
        thread.start()
        request = urllib.request.Request(ep.url + "/shutdown", method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 202
        thread.join(timeout=10)
        assert not thread.is_alive() and ep.shutdown_requested
        server.close()
