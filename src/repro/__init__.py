"""repro — reproduction of Mohanty & Cole, "Autotuning Wavefront Applications
for Multicore Multi-GPU Hybrid Architectures" (PMAM 2014).

The package provides:

* :mod:`repro.core` — the wavefront pattern abstraction, tunable-parameter
  model and the three-phase hybrid decomposition.
* :mod:`repro.hardware` — the simulated testbed: heterogeneous platform
  descriptions (Table 4 of the paper) and the analytic cost model that
  charges time for the operation counts the runtime reports.
* :mod:`repro.runtime` — the five executors (serial, vectorized,
  mp-parallel, pipelined and the hybrid three-phase CPU / GPU-band / CPU
  strategy), each with a *functional* and a *simulate* mode.
* :mod:`repro.apps` — the synthetic training application and the real
  evaluation applications (Nash equilibrium, biological sequence comparison,
  0/1 knapsack).
* :mod:`repro.ml` — from-scratch machine-learning substrate: REP trees, M5P
  model trees, linear SVM, linear regression and cross-validation.
* :mod:`repro.autotuner` — exhaustive search, training-set generation and the
  learned autotuner for the Table 4 systems; the rule and the measured
  tuner for the introspected ``local`` host.
* :mod:`repro.analysis` — helpers that regenerate the paper's figures
  (heatmaps, speedups, average-case aggregates, dispersion statistics).
* :mod:`repro.session` / :mod:`repro.facade` — the high-level
  :class:`~repro.session.Session` facade (plan/execute separation, batched
  serving) that the CLI and new code build on.
* :mod:`repro.server` — the concurrent serving subsystem over the session:
  bounded admission with backpressure, deadlines that stop the sweep,
  JSON metrics and a stdlib HTTP endpoint (the ``repro serve`` CLI verb;
  ``scripts/loadgen.py`` replays a committed request trace against it).

The supported entry point is the session::

    from repro import Session

    with Session(system="i7-2600K", tuner="learned") as session:
        plan = session.plan("lcs", 256)     # inspect / save / replay
        result = session.run(plan)

On ``system="local"`` (the default) the plan comes from a rule and nothing
is trained; ``import repro`` loads no training code, which is imported only
when a Table 4 system's learned tuner is built.  Everything below the
session (executors, tuners, registries) remains public for research use.
"""

from __future__ import annotations

from repro.version import __version__
from repro.core.params import InputParams, TunableParams
from repro.core.pattern import WavefrontProblem, WavefrontKernel
from repro.core.plan import ThreePhasePlan
from repro.hardware import platforms
from repro.hardware.system import SystemSpec
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.result import ExecutionResult
from repro.autotuner.protocol import PlanDecision, Tuner
from repro.facade.plan import ResolvedPlan, load_plan, save_plan
from repro.facade.policy import ExecutionPolicy
from repro.runtime.registry import EngineSpec
from repro.session import Session

__all__ = [
    "__version__",
    "InputParams",
    "TunableParams",
    "WavefrontProblem",
    "WavefrontKernel",
    "ThreePhasePlan",
    "SystemSpec",
    "platforms",
    "HybridExecutor",
    "ExecutionResult",
    "Session",
    "ResolvedPlan",
    "ExecutionPolicy",
    "EngineSpec",
    "PlanDecision",
    "Tuner",
    "save_plan",
    "load_plan",
]
