"""Shared fixtures of the serving-layer tests.

One module-scoped session (tiny-space learned tuner on the single-GPU
system) backs every server, so the suite trains once and exercises the
thread-safety of *sharing* — which is exactly the serving contract.
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.server import ReproServer, ServerConfig, ServingEndpoint
from repro.session import Session


@contextlib.contextmanager
def _serving(server: ReproServer):
    """Bind ``server`` on an ephemeral port; shut both down on exit."""
    ep = ServingEndpoint(server, port=0)
    thread = threading.Thread(target=ep.serve_forever, daemon=True)
    thread.start()
    try:
        yield ep
    finally:
        ep.begin_shutdown()
        thread.join(timeout=10)
        server.close()


@pytest.fixture(scope="module")
def serve_session(quick_tuner_i3, i3):
    """A session over the shared tiny-space tuner, shared across tests."""
    with Session(system=i3, tuner=quick_tuner_i3) as session:
        yield session


@pytest.fixture()
def serving():
    """``with serving(server) as ep:`` — a live endpoint over any server."""
    return _serving


@pytest.fixture()
def endpoint(serve_session):
    """A live endpoint on an ephemeral port, torn down after the test."""
    with _serving(ReproServer(serve_session, ServerConfig(queue_capacity=32))) as ep:
        yield ep
