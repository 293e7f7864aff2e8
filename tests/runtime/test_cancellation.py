"""A sweep stops at its deadline, on every engine, and leaves nothing behind.

The battery drives each engine through ``Session.solve_one`` with a
:class:`~repro.runtime.executor_base.Deadline` on a stub clock that reads
the number of steps swept so far — rows or diagonals in process, regions
finished on a worker team — so "within one step of the deadline" is a
count, not a race.  Each case asserts:

* :class:`~repro.core.exceptions.DeadlineError` comes within one step of
  the deadline (in process), or within the regions in flight (on a team);
* the session's run lock is free afterwards;
* the result cache holds nothing of the stopped solve, a team's arena is
  given back, and ``/dev/shm`` holds nothing once the session closes;
* the next solve of the same request is bit-identical to the serial sweep.
"""

import os
import threading
import time

import pytest

from repro import ExecutionPolicy, Session, TunableParams
from repro.core.exceptions import DeadlineError
from repro.runtime.executor_base import Deadline, paced
from repro.runtime.mp_parallel import WorkerTeam

#: The deadline, in steps.
AT = 5
WORKERS = 2


class StepClock:
    """A clock that reads the steps swept so far."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, steps=1):
        self.now += steps


def count_steps(kernel, clock):
    """Tick ``clock`` once per diagonal or row ``kernel`` evaluates in process."""
    diagonal = kernel.diagonal

    def counted_diagonal(*args):
        clock.tick()
        return diagonal(*args)

    kernel.diagonal = counted_diagonal
    for name in ("make_row_evaluator", "make_diagonal_evaluator"):
        make = getattr(kernel, name)

        def counted_make(dim, boundary, make=make):
            evaluate = make(dim, boundary)
            if evaluate is None:
                return None

            def counted(*args):
                clock.tick()
                return evaluate(*args)

            return counted

        setattr(kernel, name, counted_make)


def lock_is_free(lock) -> bool:
    """Whether another thread can take ``lock`` at once."""
    taken = []

    def probe():
        taken.append(lock.acquire(blocking=False))
        if taken[0]:
            lock.release()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return taken[0]


def shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


#: (case, app, dim, policy, steps in the whole sweep); the tiled engines
#: sweep 2 strips x 64 / 8 regions.
IN_PROCESS = [
    ("serial", "lcs", 24, ExecutionPolicy(backend="serial"), 47),
    ("vectorized-rows", "lcs", 48, ExecutionPolicy(backend="vectorized"), 48),
    ("vectorized-diagonals", "nash-equilibrium", 24, ExecutionPolicy(backend="vectorized"), 47),
    ("hybrid", "synthetic", 32, ExecutionPolicy(backend="hybrid", engine="vectorized"), 63),
]
ON_A_TEAM = [
    (backend, app, 64, ExecutionPolicy(
        backend=backend, workers=WORKERS, tunables=TunableParams(cpu_tile=8)
    ), 16)
    for backend in ("mp-parallel", "pipelined")
    for app in ("lcs", "nash-equilibrium")
]


@pytest.fixture()
def cached_session(tmp_path):
    before = shm_entries()
    session = Session(system="i7-2600K", cache_dir=tmp_path)
    yield session
    session.close()
    assert shm_entries() == before


def stopped_solve(session, request, clock):
    """Solve ``request`` against a deadline ``AT`` steps away; expect it stopped."""
    with pytest.raises(DeadlineError, match="deadline"):
        session.solve_one(request, deadline=Deadline(AT, clock=clock))


def assert_nothing_left(session, request, tiled):
    assert lock_is_free(session._run_lock)
    cache = session.result_cache.info()
    assert cache["memory"]["size"] == 0 and cache["pending"]["entries"] == 0
    assert cache["disk"]["entries"] == 0
    if tiled:
        assert all(team._dim is None for team in session.host._teams.values())
    again = session.solve_one(request)[1]
    with Session(system="i7-2600K") as plain:
        reference = plain.solve(request["app"], request["dim"], policy=ExecutionPolicy(backend="serial"))
    assert again.matches(reference)


@pytest.mark.parametrize(
    ("case", "app", "dim", "policy", "steps"), IN_PROCESS, ids=[c[0] for c in IN_PROCESS]
)
def test_an_in_process_sweep_stops_one_step_past_its_deadline(
    cached_session, case, app, dim, policy, steps
):
    request = {"app": app, "dim": dim, "policy": policy}
    cached_session.plan(app, dim, policy=policy)
    clock = StepClock()
    count_steps(cached_session._problem(app, dim, ()).kernel, clock)
    stopped_solve(cached_session, request, clock)
    # Steps 0 .. AT ran (the clock read at most AT before each), no more.
    assert clock.now == AT + 1 < steps
    assert_nothing_left(cached_session, request, tiled=False)


@pytest.mark.parametrize(
    ("backend", "app", "dim", "policy", "regions"), ON_A_TEAM,
    ids=[f"{c[0]}-{c[1]}" for c in ON_A_TEAM],
)
def test_a_team_sweep_stops_at_a_region_release_past_its_deadline(
    cached_session, monkeypatch, backend, app, dim, policy, regions
):
    request = {"app": app, "dim": dim, "policy": policy}
    clock = StepClock()
    completed = WorkerTeam.completed

    def counted(team):
        done = completed(team)
        clock.tick(len(done))
        return done

    monkeypatch.setattr(WorkerTeam, "completed", counted)
    stopped_solve(cached_session, request, clock)
    # Past the deadline nothing more is released: what was in flight ends.
    assert AT < clock.now <= AT + 2 * WORKERS < regions
    assert cached_session.cache_info()["teams"]["size"] == 1
    assert_nothing_left(cached_session, request, tiled=True)


def test_the_wait_for_the_run_lock_ends_at_the_deadline(cached_session):
    session = cached_session
    plan = session.plan("lcs", 8, policy=ExecutionPolicy(backend="vectorized"))
    outcome = []

    def late():
        try:
            session.run(plan, deadline=Deadline(time.perf_counter() + 0.1))
        except DeadlineError as error:
            outcome.append(error)

    session._run_lock.acquire()  # another run holds it throughout
    waiting = False
    try:
        thread = threading.Thread(target=late)
        thread.start()
        while thread.is_alive() and not waiting:
            waiting = session.run_waiters == 1
            thread.join(timeout=0.005)
        thread.join(timeout=10)
    finally:
        session._run_lock.release()
    assert not thread.is_alive()
    [error] = outcome
    assert "waited for its run" in str(error)
    assert waiting and session.run_waiters == 0


def test_without_a_deadline_the_steps_are_the_steps_themselves():
    steps = range(7)
    assert paced(steps, None) is steps
