"""Tests for ``scripts/check_perf.py --plan``: it gates the engine that fills the grid.

A saved plan names that engine in one of two ways: a whole-grid plan in
``backend`` (its ``engine`` is ``null``), a hybrid plan in ``engine``.  The
gate reads ``fill_engine(backend, engine)``, so both spellings are checked
against the same fresh bench walls.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import ExecutionPolicy, Session, TunableParams, save_plan

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_perf", REPO_ROOT / "scripts" / "check_perf.py"
)
check_perf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_perf)

#: Serial-normalised walls of one fresh bench: vectorized is 10x faster.
FRESH = {("lcs", "serial"): 1.0, ("lcs", "vectorized"): 0.1}


def saved_plan(tmp_path, policy=None) -> Path:
    path = tmp_path / "plan.json"
    with Session() as session:
        save_plan(session.plan("lcs", 96, policy=policy), path)
    return path


@pytest.mark.parametrize(
    "policy",
    [
        None,  # the default local plan
        ExecutionPolicy(backend="vectorized"),
        ExecutionPolicy(backend="hybrid", engine="vectorized", tunables=TunableParams(cpu_tile=4)),
    ],
    ids=["default", "whole-grid", "hybrid"],
)
def test_a_plan_filling_on_the_fastest_engine_passes(tmp_path, policy, capsys):
    assert check_perf.check_plan(FRESH, saved_plan(tmp_path, policy)) == []
    assert "plan engine vectorized" in capsys.readouterr().out


@pytest.mark.parametrize(
    "policy",
    [
        ExecutionPolicy(backend="serial"),
        ExecutionPolicy(backend="hybrid", engine="serial", tunables=TunableParams(cpu_tile=4)),
    ],
    ids=["whole-grid", "hybrid"],
)
def test_a_plan_filling_on_a_slow_engine_fails(tmp_path, policy):
    (failure,) = check_perf.check_plan(FRESH, saved_plan(tmp_path, policy))
    assert "sweeps on 'serial', 10.00x slower than 'vectorized'" in failure


def test_an_engine_that_was_not_benched_fails(tmp_path):
    (failure,) = check_perf.check_plan({("lcs", "serial"): 1.0}, saved_plan(tmp_path))
    assert "plan engine 'vectorized' of lcs was not benched" in failure
