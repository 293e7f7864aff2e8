"""Tests for the figure-regeneration helpers (heatmap, speedup, aggregate, dispersion)."""

import numpy as np
import pytest

from repro.analysis.aggregate import average_case_table
from repro.analysis.dispersion import dispersion_stats
from repro.analysis.heatmap import build_heatmap
from repro.analysis.report import render_heatmap, render_table
from repro.analysis.speedup import autotune_speedup_summary, scheme_speedup_summary
from repro.core.exceptions import SearchError
from repro.core.params import InputParams


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


class TestReportHelpers:
    def test_render_table(self):
        text = render_table(["a", "b"], [[1, 2.5], [3, 4.0]], title="demo")
        assert "demo" in text and "2.500" in text
