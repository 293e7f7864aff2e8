"""The whole-grid engine keeps each problem's sweeper between runs.

:class:`~repro.runtime.vectorized.VectorizedSerialExecutor` stores the
:class:`~repro.runtime.vectorized.TileSweeper` it built (evaluator tables
and rolling rows) on the problem as ``_cached_sweeper``.  What has to hold:

* it is checked out for the sweep, so two threads sweeping one problem
  never share its buffers (every grid stays bit-identical to serial);
* it references no problem, so a closed session's instances are freed by
  reference counting alone, without the cyclic collector;
* its arrays count in :attr:`~repro.core.pattern.WavefrontProblem.nbytes`,
  and pickling (how a problem reaches a spawned worker) drops it.
"""

import gc
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import ExecutionPolicy, Session
from repro.apps.registry import available_applications, get_application
from repro.runtime.vectorized import TileSweeper

VECTORIZED = ExecutionPolicy(backend="vectorized")
SERIAL = ExecutionPolicy(backend="serial")


def test_a_run_keeps_the_sweeper_and_pickling_drops_it():
    problem = get_application("lcs", dim=32).problem(32)
    with Session() as session:
        session.solve(problem, policy=VECTORIZED)
        kept = problem._cached_sweeper
        session.solve(problem, policy=VECTORIZED)
        assert problem._cached_sweeper is kept
    assert "_cached_sweeper" not in pickle.loads(pickle.dumps(problem)).__dict__


def test_a_closed_session_frees_its_problems_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        session = Session()
        for app in available_applications():
            session.solve(app, 24)
        held = [
            entry[1] if isinstance(entry, tuple) else entry
            for entry in session._problems._data.values()
        ]
        assert len(held) == len(available_applications())
        assert all("_cached_sweeper" in problem.__dict__ for problem in held)
        alive = [weakref.ref(problem) for problem in held]
        del held
        session.close()
        del session
        assert [ref().name for ref in alive if ref() is not None] == []
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "app, dim", [("nash-equilibrium", 48), ("stochastic-path", 64), ("lcs", 96)]
)
def test_two_sessions_sweeping_one_problem_never_share_a_sweeper(app, dim):
    problem = get_application(app, dim=dim).problem(dim)
    with Session() as session:
        expected = session.solve(problem, policy=SERIAL).grid.values.tobytes()
    rounds, mismatches, errors = 50, [], []
    start = threading.Barrier(2)

    def sweep(thread_id):
        try:
            with Session() as session:
                start.wait()
                for round_ in range(rounds):
                    grid = session.solve(problem, policy=VECTORIZED).grid.values
                    if grid.tobytes() != expected:
                        mismatches.append((thread_id, round_))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside every sweep
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and mismatches == []


def test_nbytes_counts_the_kept_sweepers_tables():
    problem = get_application("nash-equilibrium", dim=256).problem(256)
    data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(data)
        sweeper = TileSweeper(problem)
        after = tracemalloc.take_snapshot().filter_traces(data)
    finally:
        tracemalloc.stop()
    retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    del sweeper
    assert retained > 0
    unswept = problem.nbytes
    with Session() as session:
        session.solve(problem, policy=VECTORIZED)
    assert problem.nbytes - unswept >= retained
