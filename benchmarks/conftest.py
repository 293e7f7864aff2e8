"""Shared fixtures for the benchmark harness.

Every figure/table of the paper's evaluation has one bench module.  The
expensive ingredients — the exhaustive sweep of the synthetic application and
the trained tuners, one per Table 4 system — are computed once per benchmark
session here and shared.

By default the sweeps use the *reduced* parameter space (same structure as
Table 3, coarser grids) so the whole harness finishes in a few minutes.  Set
``REPRO_BENCH_FULL=1`` to sweep the full Table 3 space instead.

Each bench computes its figure once, asserts the paper's claim on it and
writes the regenerated table/series to ``benchmarks/results/``.
"""

from __future__ import annotations

import pytest

from repro.autotuner.exhaustive import ExhaustiveSearch
from repro.autotuner.tuner import AutoTuner
from repro.hardware import platforms

from benchmarks._common import bench_space


@pytest.fixture(scope="session")
def space():
    """The sweep's parameter space."""
    return bench_space()


@pytest.fixture(scope="session")
def systems():
    """The three Table 4 systems."""
    return list(platforms.ALL_SYSTEMS)


@pytest.fixture(scope="session")
def sweeps(space, systems):
    """Exhaustive-search results per system (the Figure 5-8 substrate)."""
    return {
        system.name: ExhaustiveSearch(system, space).sweep() for system in systems
    }


@pytest.fixture(scope="session")
def tuners(space, systems):
    """Trained autotuners per system (the Figure 9-11 substrate)."""
    return {system.name: AutoTuner(system, space=space).train() for system in systems}
