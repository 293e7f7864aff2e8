#!/usr/bin/env python
"""Quickstart: tune and run a wavefront application in a few lines.

The single public entry point is :class:`repro.Session` — one object that
plans, executes and serves, mirroring the paper's deployment scenario:

1. pick a target platform (one of the paper's Table 4 systems),
2. the session trains the autotuner on the synthetic application lazily,
   "in the factory", on the first planning call,
3. hand it a previously unseen wavefront application and get an
   inspectable, replayable plan back,
4. execute the plan — functionally on a small grid (checked against the
   serial sweep) and in simulate mode at the paper's problem scale —
   and finish with a batched-serving taste of ``solve_many``.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ExecutionPolicy, Session
from repro.hardware import platforms
from repro.utils.logging import configure_logging, get_logger

log = get_logger("examples.quickstart")


def main() -> None:
    """Run the end-to-end session workflow on the i7-2600K platform."""
    configure_logging()
    system = platforms.I7_2600K
    print(system.describe())

    with Session(system=system, tuner="learned") as session:
        # --------------------------------------------------------------
        # 1. Plan an unseen application: a small Nash-equilibrium problem.
        #    The first plan() call trains the autotuner on the synthetic
        #    sweep (reduced space by default so the example stays quick).
        # --------------------------------------------------------------
        print("\nPlanning (trains the autotuner on the synthetic application) ...")
        plan = session.plan("nash-equilibrium", 64)
        tuner = session.tuner  # the AutoTuner behind the session
        print(
            f"  held-out efficiency: mean {tuner.validation.mean_efficiency:.2%}, "
            f"min {tuner.validation.min_efficiency:.2%}"
        )
        print(f"  resolved plan: {plan.describe()}")

        # --------------------------------------------------------------
        # 2. Execute the plan functionally and verify against serial.
        # --------------------------------------------------------------
        tuned = session.run(plan)
        serial = session.solve(
            "nash-equilibrium", 64, policy=ExecutionPolicy(backend="serial")
        )
        assert tuned.matches(serial), "tuned execution must agree with the serial sweep"
        print(
            f"  functional run OK (matches serial); simulated rtime "
            f"{tuned.rtime:.4f}s vs serial {serial.rtime:.4f}s "
            f"({serial.rtime / tuned.rtime:.1f}x)"
        )

        # --------------------------------------------------------------
        # 3. The same workflow at paper scale, in simulate mode.
        # --------------------------------------------------------------
        big_plan = session.plan("synthetic", 2700, tsize=8000, dsize=1)
        predicted = session.run(big_plan, mode="simulate")
        serial_pred = tuner.cost_model.baseline_serial(big_plan.params)
        print(
            f"\nSynthetic 2700x2700, tsize=8000: tuned config = "
            f"{big_plan.tunables.describe()}\n"
            f"  predicted runtime {predicted.rtime:.1f}s vs serial {serial_pred:.1f}s "
            f"({serial_pred / predicted.rtime:.1f}x speedup)"
        )

        # --------------------------------------------------------------
        # 4. Batched serving: repeated requests hit the tuned-plan cache.
        # --------------------------------------------------------------
        results = session.solve_many([("nash-equilibrium", 64)] * 25)
        info = session.cache_info()
        print(
            f"\nServed {len(results)} repeated requests with "
            f"{info['requests']['plans_resolved']} tuner resolution(s) and "
            f"{info['plans']['hits']} plan-cache hits."
        )


if __name__ == "__main__":
    main()
