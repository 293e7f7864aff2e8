"""Shared fixtures of the serving-layer tests.

One module-scoped session (tiny-space learned tuner on the single-GPU
system) backs every server, so the suite trains once and exercises the
thread-safety of *sharing* — which is exactly the serving contract.
"""

from __future__ import annotations

import threading

import pytest

from repro.server import ReproServer, ServerConfig, ServingEndpoint
from repro.session import Session


@pytest.fixture(scope="module")
def serve_session(quick_tuner_i3, i3):
    """A session over the shared tiny-space tuner, shared across tests."""
    with Session(system=i3, tuner=quick_tuner_i3) as session:
        yield session


@pytest.fixture()
def endpoint(serve_session):
    """A live endpoint on an ephemeral port, torn down after the test."""
    server = ReproServer(serve_session, ServerConfig(queue_capacity=32))
    ep = ServingEndpoint(server, port=0)
    thread = threading.Thread(target=ep.serve_forever, daemon=True)
    thread.start()
    yield ep
    ep.begin_shutdown()
    thread.join(timeout=10)
    server.close()
