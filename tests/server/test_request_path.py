"""A served request is named once, planned once, and observed from its plan.

* an omitted ``dim`` is the application's default, filled in at admission:
  ``submit("lcs", None)`` and ``submit("lcs", 512)`` are one request under
  one ``/metrics`` label;
* the warm request path is pinned by call counts: the ``repro.*`` Python
  calls of one served ``lcs`` dim 12 request, all on the thread that
  submitted it, one :func:`repro.cache.request_identity` per request,
  one :meth:`repro.session.Session.plan`, none from the adaptive loop
  (it reads the ``expected_s`` of the plan the session ran), and one
  lookup of the server's per-signature table.
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
#: dim 12 request (68 when pinned, all on the submitting thread, with one
#: per-signature table; 69 when the adaptive loop kept a second table and
#: the detector a third; 74 with a
#: queue and a lane thread between admission and the solve; 79 with a task
#: object, a callback pair and a monitor between the queue and the tickets;
#: 100 when the request was named three times, planned twice and its
#: sweeper rebuilt on every run).
MAX_PYTHON_CALLS = 68


class TestOneNameAtAdmission:
    def test_an_omitted_and_the_default_dim_are_one_request_under_one_label(self):
        with Session() as session:
            with ReproServer(session, ServerConfig(adaptive="off")) as server:
                omitted = server.submit("lcs", None, seed=3)
                explicit = server.submit("lcs", 512, seed=3)
                first, second = omitted.result(), explicit.result()
                metrics = server.metrics()
        assert first.grid_sha256 == second.grid_sha256
        assert omitted.signature == explicit.signature
        assert list(metrics["signatures"]) == ["lcs[dim=512] mode=functional seed=3"]

    def test_the_session_plans_by_the_admitted_identity(self):
        with Session() as session:
            with ReproServer(session, ServerConfig(adaptive="off")) as server:
                ticket = server.submit("lcs", None, seed=3)
                ticket.result()
            assert ticket.identity.dim == 512 and ticket.identity.mode is None
            assert ticket.identity in session._plans


class _CallCounter:
    """``repro.*`` calls of one request, on the thread that submits it.

    Installed with :func:`sys.setprofile` and :func:`threading.setprofile`;
    calls count while :attr:`on` is set.  Any other thread's call is kept
    apart in :attr:`elsewhere`: a served request makes none.
    """

    def __init__(self):
        self.on = False
        self.main = threading.main_thread()
        self.calls = []
        self.elsewhere = []

    def __call__(self, frame, event, arg):
        if event != "call" or not self.on or not frame.f_code.co_filename.startswith(SRC):
            return
        code = frame.f_code
        caller = frame.f_back.f_code.co_filename if frame.f_back else ""
        call = (code.co_qualname, caller[len(SRC):] if caller.startswith(SRC) else caller)
        if threading.current_thread() is self.main:
            self.calls.append(call)
        else:
            self.elsewhere.append(call)


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
            server.solve("lcs", 12)
        counter.on = True
        server.solve("lcs", 12)
        counter.on = False
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        server.close()
    assert counter.elsewhere == []
    return counter.calls


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

    def test_it_looks_the_signature_table_up_once(self, counted_request):
        names = Counter(name for name, _ in counted_request)
        assert names["ObservationLog.record"] == 1
        assert names["SignatureStats.record"] == 2  # end-to-end and service time

    def test_a_warm_request_builds_no_sweeper(self, counted_request):
        names = Counter(name for name, _ in counted_request)
        assert names["TileSweeper.__init__"] == 0
        assert names["LCSKernel.make_row_evaluator"] == 0
