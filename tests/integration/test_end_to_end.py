"""End-to-end integration tests: the full Figure 4 workflow.

Train on the synthetic application, deploy on the previously unseen real
applications, check the paper's qualitative claims.
"""

import pytest

from repro.apps.nash import NASH_DSIZE, NASH_TSIZE, NashEquilibriumApp
from repro.apps.sequence import SW_DSIZE, SW_TSIZE
from repro.apps.knapsack import KnapsackApp
from repro.autotuner.persistence import load_tuner, save_tuner
from repro.session import Session
from repro.core.params import InputParams
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.serial import SerialExecutor


class TestDeploymentWorkflow:
    def test_nash_tuning_beats_serial_and_tracks_optimum(self, reduced_tuner_i7):
        """Figure 10/11: the tuned Nash configuration is close to the optimum."""
        nash = InputParams(dim=1900, tsize=NASH_TSIZE, dsize=NASH_DSIZE)
        speedup = reduced_tuner_i7.speedup_over_serial(nash)
        efficiency = reduced_tuner_i7.efficiency(nash)
        assert speedup > 2.0
        assert efficiency > 0.6

    def test_smith_waterman_maps_to_cpu_only(self, reduced_tuner_i7):
        """Section 4.2: band = -1 predicted for the fine-grained application."""
        for dim in (1100, 1900, 2700):
            sw = InputParams(dim=dim, tsize=SW_TSIZE, dsize=max(SW_DSIZE, 0) or 1)
            config = reduced_tuner_i7.tune(sw.with_(dsize=1))
            assert config.is_cpu_only

    def test_factory_trained_model_ships_and_reloads(self, reduced_tuner_i7, tmp_path):
        """Train "in the factory", save, reload, and deploy elsewhere."""
        path = save_tuner(reduced_tuner_i7.model, tmp_path / "i7-2600K.json")
        deployed = load_tuner(path)
        nash = {"dim": 1900.0, "tsize": NASH_TSIZE, "dsize": float(NASH_DSIZE)}
        assert deployed.predict(nash) == reduced_tuner_i7.model.predict(nash)

    def test_tuned_functional_execution_matches_serial(self, i3, quick_tuner_i3):
        """The tuned configuration must still compute the correct answer."""
        app = NashEquilibriumApp(dim=22)
        with Session(system=i3, tuner=quick_tuner_i3) as session:
            result = session.solve(app, mode="functional")
        serial = SerialExecutor(i3).execute(app.problem())
        assert result.matches(serial)

    def test_future_work_knapsack_runs_through_the_framework(self, i7_3820, trained_tuner_i7):
        """The knapsack extension executes under a hybrid configuration."""
        app = KnapsackApp(dim=24, seed=5)
        problem = app.problem()
        config = trained_tuner_i7.tune(problem)
        serial = SerialExecutor(i7_3820).execute(problem)
        hybrid = HybridExecutor(i7_3820).execute(problem, config.clipped(problem.dim))
        assert serial.matches(hybrid)


class TestHeadlineClaims:
    def test_average_autotuned_fraction_of_exhaustive(self, reduced_tuner_i7):
        """The paper reports ~98% of exhaustive-search performance on average.

        The reproduction's tuner must land in the same neighbourhood (>= 85%)
        on its held-out synthetic instances.
        """
        assert reduced_tuner_i7.validation.mean_efficiency >= 0.85

    def test_max_speedup_order_of_magnitude(self, reduced_tuner_i7):
        """Exhaustive best speedups reach O(10x)-O(20x) over serial (paper: up to 20x)."""
        results = reduced_tuner_i7.results
        best = max(results.best_speedup(p) for p in results.instances())
        assert 8.0 <= best <= 40.0

    def test_average_speedup_in_paper_range(self, reduced_tuner_i7):
        """Paper: average optimal speedup of ~7.8x across applications/systems."""
        results = reduced_tuner_i7.results
        import numpy as np

        mean = np.mean([results.best_speedup(p) for p in results.instances()])
        assert 3.0 <= mean <= 20.0
