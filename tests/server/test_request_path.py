"""A served request is named once, planned once, and observed from its plan.

* an omitted ``dim`` is the application's default, filled in at admission:
  ``submit("lcs", None)`` and ``submit("lcs", 512)`` are one request, one
  batch and one ``/metrics`` label;
* the warm request path is pinned by call counts: the ``repro.*`` Python
  calls of one served ``lcs`` dim 12 request on the connection thread and
  the lane thread, one :func:`repro.cache.request_identity` per request,
  one :meth:`repro.session.Session.plan`, and none from the adaptive loop
  (it reads the ``expected_s`` of the plan the lane ran).
"""

import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.server import ReproServer, ServerConfig
from repro.session import Session

SRC = str(Path(repro.__file__).parent) + "/"

#: Upper bound on the ``repro.*`` Python calls of one warm served ``lcs``
#: dim 12 request (74 when pinned; 79 with a task object, a callback pair
#: and a monitor between the queue and the tickets; 100 when the request
#: was named three times, planned twice and its sweeper rebuilt on every
#: run).
MAX_PYTHON_CALLS = 90


class TestOneNameAtAdmission:
    def test_an_omitted_and_the_default_dim_are_one_batch_under_one_label(self):
        with Session() as session:
            server = ReproServer(session, ServerConfig(adaptive="off"))
            try:
                # Queued before the lane starts: the drain sees both at once.
                omitted = server.submit("lcs", None, seed=3)
                explicit = server.submit("lcs", 512, seed=3)
                server.start()
                first = omitted.result(timeout=60)
                second = explicit.result(timeout=60)
                metrics = server.metrics()
            finally:
                server.close()
        assert first is second
        assert omitted.signature == explicit.signature
        assert metrics["batches"]["count"] == 1
        assert metrics["batches"]["histogram"] == {"2": 1}
        assert list(metrics["signatures"]) == ["lcs[dim=512] mode=functional seed=3"]

    def test_the_lane_plans_by_the_admitted_identity(self):
        with Session() as session:
            with ReproServer(session, ServerConfig(adaptive="off")) as server:
                ticket = server.submit("lcs", None, seed=3)
                ticket.result(timeout=60)
            assert ticket.identity.dim == 512 and ticket.identity.mode is None
            assert ticket.identity in session._plans


class _CallCounter:
    """``repro.*`` calls of one request, on the calling and the lane thread.

    Installed with :func:`sys.setprofile` and :func:`threading.setprofile`
    before the server starts, so the lane thread is profiled from its first
    call.  The calling thread counts while :attr:`on` is set.  The lane's
    calls are cut into segments, one per batch it takes from the queue
    (``RequestQueue.next_batch``): the segment that executed the request
    (``ReproServer._execute``) is its share.
    """

    def __init__(self):
        self.on = False
        self.main = threading.main_thread()
        self.main_calls = []
        self.lane_segments = []

    def __call__(self, frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.startswith(SRC):
            return
        thread = threading.current_thread()
        code = frame.f_code
        caller = frame.f_back.f_code.co_filename if frame.f_back else ""
        call = (code.co_qualname, caller[len(SRC):] if caller.startswith(SRC) else caller)
        if thread is self.main:
            if self.on:
                self.main_calls.append(call)
        elif thread.name == "repro-shard-0":
            if code.co_qualname == "RequestQueue.next_batch":
                self.lane_segments.append([])
            if self.lane_segments:
                self.lane_segments[-1].append(call)

    def request_calls(self):
        """The calling thread's window plus the lane segment that served it."""
        (served,) = [
            segment for segment in self.lane_segments
            if ("ReproServer._execute", "server/service.py") in segment
        ][-1:]
        return self.main_calls + served


@pytest.fixture()
def counted_request():
    """The calls of one warm served ``lcs`` dim 12 request (adaptive loop on)."""
    counter = _CallCounter()
    session = Session()
    server = ReproServer(session, ServerConfig(adaptive="on"), own_session=True)
    threading.setprofile(counter)
    sys.setprofile(counter)
    try:
        server.start()
        for _ in range(3):  # warm: plan, problem, executor and sweeper kept
            server.solve("lcs", 12, timeout=60)
        counter.on = True
        server.solve("lcs", 12, timeout=60)
        counter.on = False
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        server.close()
    return counter.request_calls()


class TestWarmRequestCounts:
    def test_a_warm_request_makes_few_python_calls(self, counted_request):
        assert len(counted_request) <= MAX_PYTHON_CALLS, Counter(
            name for name, _ in counted_request
        ).most_common()

    def test_the_request_is_named_once(self, counted_request):
        names = Counter(name for name, _ in counted_request)
        assert names["request_identity"] == 1
        assert names["ServeRequest.__post_init__"] == 1

    def test_it_is_planned_once_and_never_by_the_adaptive_loop(self, counted_request):
        plans = [caller for name, caller in counted_request if name == "Session.plan"]
        assert plans == ["session.py"]
        names = Counter(name for name, _ in counted_request)
        assert names["AdaptiveController.observe"] == 1

    def test_a_warm_request_builds_no_sweeper(self, counted_request):
        names = Counter(name for name, _ in counted_request)
        assert names["TileSweeper.__init__"] == 0
        assert names["LCSKernel.make_row_evaluator"] == 0
