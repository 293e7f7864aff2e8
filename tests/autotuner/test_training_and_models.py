"""Tests for training-set generation and the learned per-parameter models."""

import pytest

from repro.autotuner.models import LearnedTuner
from repro.autotuner.training import (
    INPUT_FEATURES,
    TrainingSetBuilder,
    summarise_training_set,
)
from repro.core.exceptions import SearchError
from repro.core.params import InputParams, TunableParams


class TestTrainingSetBuilder:
    def test_best_five_per_sampled_instance(self, tiny_results_i7):
        builder = TrainingSetBuilder(best_per_instance=5, instance_stride=2)
        training = builder.build(tiny_results_i7)
        assert len(training.train_instances) >= 1
        assert len(training) <= 5 * len(training.train_instances)
        assert len(training) >= len(training.train_instances)

    def test_split_avoids_dsize_aliasing(self, tiny_results_i7):
        builder = TrainingSetBuilder(instance_stride=2)
        train, holdout = builder.split_instances(tiny_results_i7)
        assert train and holdout
        assert set(train).isdisjoint(holdout)
        assert set(train) | set(holdout) == set(tiny_results_i7.instances())

    def test_records_carry_labels(self, tiny_training):
        record = tiny_training.records[0]
        assert {"use_parallel", "best_uses_gpu", "speedup", "serial_rtime"} <= set(record)

    def test_datasets_extracted(self, tiny_training):
        gate = tiny_training.gate_dataset()
        assert gate.feature_names == list(INPUT_FEATURES)
        cpu = tiny_training.dataset("cpu_tile")
        assert cpu.n_samples == len(tiny_training)

    def test_gpu_dataset_filters_cpu_best_instances(self, reduced_tuner_i7):
        # The tiny space has no GPU-favouring instance on any system; the
        # reduced one does.
        training = reduced_tuner_i7.training
        assert training.has_gpu_records()
        ds = training.gpu_dataset("band", ("dim", "tsize", "dsize"))
        assert (ds.y >= 0).all()

    def test_summary_statistics(self, tiny_training):
        summary = summarise_training_set(tiny_training)
        assert summary["n_records"] == len(tiny_training)
        assert 0.0 <= summary["fraction_gpu"] <= 1.0
        assert summary["max_speedup"] >= summary["mean_speedup"] > 0

    def test_builder_validation(self):
        with pytest.raises(SearchError):
            TrainingSetBuilder(best_per_instance=0)
        with pytest.raises(SearchError):
            TrainingSetBuilder(instance_stride=0)
        with pytest.raises(SearchError):
            TrainingSetBuilder(parallel_margin=0.0)


class TestLearnedTuner:
    def test_fit_and_predict_valid_config(self, tiny_training, i7_2600k):
        tuner = LearnedTuner(
            system_name=i7_2600k.name, supports_gpu=True, supports_dual_gpu=True
        ).fit(tiny_training)
        config = tuner.predict({"dim": 128, "tsize": 500, "dsize": 1})
        assert isinstance(config, TunableParams)
        assert config.band <= 127

    def test_fine_grained_instances_avoid_gpu(self, reduced_tuner_i7):
        """The Smith-Waterman scale (tsize=0.5) must map to a CPU-only config."""
        config = reduced_tuner_i7.model.predict({"dim": 2700, "tsize": 0.5, "dsize": 0})
        assert config.is_cpu_only

    def test_coarse_grained_instances_use_gpu(self, reduced_tuner_i7):
        config = reduced_tuner_i7.model.predict({"dim": 2700, "tsize": 8000, "dsize": 1})
        assert config.uses_gpu
        assert config.band > 1000

    def test_single_gpu_system_never_predicts_dual(self, tiny_results_i3, i3):
        training = TrainingSetBuilder().build(tiny_results_i3)
        tuner = LearnedTuner(
            system_name=i3.name, supports_gpu=True, supports_dual_gpu=False
        ).fit(training)
        for tsize in (10, 500, 5000):
            config = tuner.predict({"dim": 128, "tsize": tsize, "dsize": 1})
            assert config.gpu_count <= 1

    def test_model_tree_text_available(self, reduced_tuner_i7):
        text = reduced_tuner_i7.model.model_tree_text("band")
        assert "LM" in text
        with pytest.raises(SearchError):
            reduced_tuner_i7.model.model_tree_text("warp")

    def test_unfitted_predict_rejected(self):
        with pytest.raises(Exception):
            LearnedTuner(system_name="x").predict({"dim": 10, "tsize": 1, "dsize": 0})

    def test_serialisation_roundtrip(self, reduced_tuner_i7):
        data = reduced_tuner_i7.model.to_dict()
        clone = LearnedTuner.from_dict(data)
        for features in ({"dim": 1900, "tsize": 750, "dsize": 4}, {"dim": 700, "tsize": 10, "dsize": 1}):
            assert clone.predict(features) == reduced_tuner_i7.model.predict(features)
