"""Tests for the figure-regeneration helpers (heatmap, speedup, aggregate, dispersion)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.aggregate import average_case_table
from repro.analysis.dispersion import dispersion_stats, gaussian_kde
from repro.analysis.heatmap import build_heatmap
from repro.analysis.report import render_heatmap
from repro.analysis.speedup import autotune_speedup_summary, scheme_speedup_summary
from repro.autotuner.exhaustive import SearchRecord, SearchResults
from repro.core.exceptions import SearchError
from repro.core.params import InputParams, TunableParams
from repro.utils.tables import format_table


class TestHeatmap:
    def test_band_heatmap_shape_and_values(self, tiny_results_i7, tiny_space):
        hm = build_heatmap(tiny_results_i7, dsize=1, quantity="band")
        assert hm.values.shape == (len(hm.dims), len(hm.tsizes))
        assert set(hm.dims) == set(tiny_space.dims)
        assert np.all(hm.values >= -1)

    def test_cell_matches_best_record(self, tiny_results_i7):
        hm = build_heatmap(tiny_results_i7, dsize=1, quantity="band")
        params = InputParams(dim=hm.dims[0], tsize=hm.tsizes[0], dsize=1)
        assert hm.values[0, 0] == tiny_results_i7.best(params).tunables.band

    def test_halo_heatmap(self, tiny_results_i7):
        hm = build_heatmap(tiny_results_i7, dsize=1, quantity="halo")
        assert np.all(hm.values >= -1)

    def test_threshold_helper(self, tiny_results_i7):
        hm = build_heatmap(tiny_results_i7, dsize=1, quantity="band")
        threshold = hm.gpu_threshold_tsize(hm.dims[-1])
        assert threshold is None or threshold in hm.tsizes

    def test_unknown_dsize_and_quantity(self, tiny_results_i7):
        with pytest.raises(SearchError):
            build_heatmap(tiny_results_i7, dsize=3)
        with pytest.raises(SearchError):
            build_heatmap(tiny_results_i7, dsize=1, quantity="speed")

    def test_render_heatmap_text(self, tiny_results_i7):
        hm = build_heatmap(tiny_results_i7, dsize=1)
        text = render_heatmap(hm)
        assert "Figure 5" in text and "dim" in text


class TestSpeedupSummaries:
    def test_scheme_speedups_positive(self, i7_2600k, tiny_results_i7):
        summary = scheme_speedup_summary(i7_2600k, tiny_results_i7)
        assert summary.vs_serial >= 1.0
        assert summary.max_vs_serial >= summary.vs_serial
        assert summary.n_instances == len(tiny_results_i7.instances())

    def test_autotune_speedups(self, reduced_tuner_i7):
        instances = reduced_tuner_i7.results.instances()[:4]
        summary = autotune_speedup_summary(reduced_tuner_i7, instances)
        assert summary.exhaustive_speedup > 0
        assert 0.0 < summary.achieved_fraction <= 1.5

    def test_empty_instance_list_rejected(self, reduced_tuner_i7, i7_2600k, tiny_results_i7):
        with pytest.raises(SearchError):
            autotune_speedup_summary(reduced_tuner_i7, [])
        with pytest.raises(SearchError):
            scheme_speedup_summary(i7_2600k, tiny_results_i7, instances=[])


class TestAverageCase:
    def test_rows_cover_selected_dsize(self, tiny_results_i7):
        rows = average_case_table(tiny_results_i7, dsize=1)
        assert rows
        assert all(r.dsize == 1 for r in rows)
        for row in rows:
            assert row.best_rtime <= row.avg_rtime or np.isnan(row.avg_rtime)
            assert row.n_configurations > 0 or row.n_excluded > 0

    def test_rows_sorted(self, tiny_results_i7):
        rows = average_case_table(tiny_results_i7, dsize=1)
        keys = [(r.dim, r.tsize) for r in rows]
        assert keys == sorted(keys)


class TestDispersion:
    def test_quartiles_ordered(self, tiny_results_i7):
        params = tiny_results_i7.instances()[0]
        stats = dispersion_stats(tiny_results_i7, params)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        assert stats.n_points > 1
        assert stats.density_x.shape == stats.density_y.shape

    def test_best_to_median_gap_in_unit_range(self, tiny_results_i7):
        params = tiny_results_i7.instances()[-1]
        stats = dispersion_stats(tiny_results_i7, params)
        assert 0.0 <= stats.best_to_median_gap <= 1.0

    def test_unknown_instance_rejected(self, tiny_results_i7):
        with pytest.raises(SearchError):
            dispersion_stats(tiny_results_i7, InputParams(dim=9999, tsize=1, dsize=1))

    def test_all_equal_runtimes_take_the_flat_branch(self):
        params = InputParams(dim=64, tsize=10, dsize=1)
        results = SearchResults(system="i3-540")
        for tile in range(1, 6):
            results.add(SearchRecord(params, TunableParams(cpu_tile=tile), 0.25))
        stats = dispersion_stats(results, params, density_points=16)
        assert np.array_equal(stats.density_x, np.full(16, 0.25))
        assert np.array_equal(stats.density_y, np.ones(16))
        assert stats.minimum == stats.median == stats.maximum == 0.25


def _density_grid(samples):
    return np.linspace(samples.min(), samples.max(), 64)


def _normwise(actual, expected):
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


@st.composite
def _runtimes(draw, min_relative_spread, max_n=200):
    """Positive non-constant samples: ``base + step * k`` for integers ``k``.

    Half of the draws are near-constant: every sample is ``base`` but one
    or two, the many-ties shape a configuration space with a flat base has.
    """
    n = draw(st.integers(2, max_n))
    base = draw(st.floats(1e-4, 1e3))
    step = base * draw(st.floats(min_relative_spread, 1.0))
    if draw(st.booleans()):
        ks = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            ks[i] = draw(st.integers(1, 3))
    else:
        ks = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n))
    samples = base + step * np.array(ks, dtype=np.float64)
    if np.ptp(samples) == 0:
        samples[0] += step
    return samples


class TestGaussianKDE:
    """The NumPy port of ``scipy.stats.gaussian_kde`` used by Figure 8."""

    @settings(max_examples=200, deadline=None)
    @given(samples=_runtimes(min_relative_spread=1e-2))
    def test_matches_scipy(self, samples):
        stats = pytest.importorskip("scipy.stats")
        xs = _density_grid(samples)
        expected = stats.gaussian_kde(samples)(xs)
        assert _normwise(gaussian_kde(samples, xs), expected) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(samples=_runtimes(min_relative_spread=1e-8, max_n=24))
    def test_matches_exact_density_when_samples_crowd_together(self, samples):
        # scipy scales each point by the bandwidth before subtracting, which
        # costs it about 1e-16 / relative spread (x n ** 0.7 with many ties);
        # the port subtracts first, so it is held to an exact density instead.
        mp = pytest.importorskip("mpmath")
        xs = _density_grid(samples)
        with mp.workdps(40):
            values = [mp.mpf(float(v)) for v in samples]
            n = len(values)
            mean = mp.fsum(values) / n
            bandwidth = mp.sqrt(mp.fsum((v - mean) ** 2 for v in values) / (n - 1))
            bandwidth *= mp.mpf(n) ** (mp.mpf(-1) / 5)
            norm = n * bandwidth * mp.sqrt(2 * mp.pi)
            expected = np.array([
                float(mp.fsum(mp.exp(-((mp.mpf(float(x)) - v) / bandwidth) ** 2 / 2) for v in values) / norm)
                for x in xs
            ])
        assert _normwise(gaussian_kde(samples, xs), expected) <= 1e-12


class TestReportHelpers:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], [3, 4.0]], title="demo")
        assert "demo" in text and "2.500" in text
