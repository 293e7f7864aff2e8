"""Every serving limit an operator or client sets is finite seconds > 0.

One check (:func:`repro.server.service.finite_seconds`) guards each entry
point: ``ServerConfig``, ``ReproServer.submit`` and the ``POST /solve``
body, and the ``repro serve`` flags map a bad value to exit 2.  Without
it an infinite deadline overflowed ``Event.wait`` into an HTTP 500, and a
NaN one silently never fired or fired at once.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import EXIT_USAGE, build_parser
from repro.core.exceptions import InvalidParameterError, ServerError
from repro.server import ReproServer, ServerConfig
from repro.server.service import MAX_WAIT_S, finite_seconds

NAN, INF = float("nan"), float("inf")
#: Waits no limit may be set to: never-firing, overflowing, or not seconds.
BAD_WAITS = [NAN, INF, -INF, 1e300, threading.TIMEOUT_MAX, True]
#: ... plus the waits that are over before they start.
NOT_POSITIVE = [0.0, -1.0]


@pytest.mark.parametrize("seconds", [1, 0.5, 1e-9, MAX_WAIT_S / 2], ids=repr)
def test_finite_seconds_passes_a_wait_through_as_a_float(seconds):
    value = finite_seconds("limit", seconds)
    assert type(value) is float and value == seconds


def test_finite_seconds_names_the_limit_in_the_error_it_is_given():
    with pytest.raises(ServerError, match=r"^drain_s must be .* got inf$"):
        finite_seconds("drain_s", INF, ServerError)


@pytest.mark.parametrize(
    "kwargs", [{"default_deadline_s": v} for v in BAD_WAITS + NOT_POSITIVE], ids=repr
)
def test_server_config_refuses_a_wait_that_is_not_finite_seconds(kwargs):
    with pytest.raises(ServerError, match="finite number of seconds"):
        ServerConfig(**kwargs)


@pytest.mark.parametrize("deadline_s", BAD_WAITS + NOT_POSITIVE, ids=repr)
def test_submit_refuses_a_deadline_that_is_not_finite_seconds(serve_session, deadline_s):
    with ReproServer(serve_session, ServerConfig(queue_capacity=4)) as server:
        with pytest.raises(InvalidParameterError, match="finite number of seconds"):
            server.submit("lcs", 12, deadline_s=deadline_s)
        assert server.metrics()["requests"]["accepted"] == 0


@pytest.mark.parametrize(
    "deadline_s", ["NaN", "Infinity", "-Infinity", "1e300", "0", "-1", "true", '"5"']
)
def test_a_body_deadline_that_is_not_finite_seconds_answers_400(endpoint, deadline_s):
    body = b'{"app": "lcs", "dim": 12, "deadline_s": %s}' % deadline_s.encode()
    request = urllib.request.Request(endpoint.url + "/solve", data=body, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    with excinfo.value as response:  # closes the error's socket
        assert response.code == 400
        error = json.loads(response.read())["error"]
    assert error["type"] == "InvalidParameterError"
    assert "finite number of seconds" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--default-deadline", "inf"],
        ["--default-deadline", "nan"],
        ["--default-deadline", "-1"],
        ["--default-deadline=-inf"],
        ["--default-deadline", "1e300"],
    ],
    ids=" ".join,
)
def test_serve_flags_refuse_a_limit_that_is_not_finite_seconds(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["serve", *argv])
    assert exit_info.value.code == EXIT_USAGE
    assert "finite number of seconds" in capsys.readouterr().err


def test_a_zero_default_deadline_still_disables_it():
    args = build_parser().parse_args(["serve", "--default-deadline", "0"])
    assert args.default_deadline == 0.0


def test_serve_has_no_request_timeout_flag(capsys):
    # A served request is answered before submit returns: there is no
    # pending answer for a client-side timeout to give up on.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["serve", "--request-timeout", "5"])
    assert exit_info.value.code == EXIT_USAGE
    assert "--request-timeout" in capsys.readouterr().err
