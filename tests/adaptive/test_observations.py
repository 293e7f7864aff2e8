"""Tests for the streaming observation layer: stats, signatures, LRU log.

The load-bearing contracts:

* :class:`SignatureStats` tracks count/mean/variance exactly (Welford)
  and survives N threads hammering it — totals equal the sequential run;
* :func:`observation_signature` is the *same* key the server queue
  coalesces on, so observations and batches describe identical traffic
  classes;
* :class:`ObservationLog` is bounded: an adversarial stream of distinct
  signatures evicts LRU-style instead of growing without bound.
"""

import math
import threading

import numpy as np
import pytest

from repro.adaptive.observations import (
    ObservationLog,
    SignatureStats,
    observation_signature,
    percentile,
    signature_label,
)
from repro.facade.policy import ExecutionPolicy
from repro.server.queue import request_signature


class TestObservationSignature:
    def test_matches_the_server_coalescing_key(self):
        for app, dim, mode, kwargs in [
            ("lcs", 48, "functional", {}),
            ("edit-distance", 40, None, {"policy": ExecutionPolicy(workers=2)}),
            ("matrix-chain", 32, "simulate", {"policy": ExecutionPolicy(backend="serial")}),
        ]:
            assert observation_signature(app, dim, mode, kwargs) == (
                request_signature(app, dim, mode, kwargs)
            )

    def test_kwargs_order_does_not_matter(self):
        a = observation_signature("lcs", 48, "functional", {"a": 1, "b": 2})
        b = observation_signature("lcs", 48, "functional", {"b": 2, "a": 1})
        assert a == b

    def test_unhashable_override_values_are_tolerated(self):
        sig = observation_signature("lcs", 48, None, {"weights": [1, 2, 3]})
        assert hash(sig) == hash(sig)  # usable as a dict key

    def test_label_is_compact_and_complete(self):
        sig = observation_signature("lcs", 48, "functional", {"workers": 2})
        label = signature_label(sig)
        assert label.startswith("lcs[dim=48]")
        assert "mode=functional" in label
        assert "workers=2" in label
        # mode-less signatures omit the mode clause entirely
        assert signature_label(observation_signature("lcs", 48, None, {})) == (
            "lcs[dim=48]"
        )


class TestSignatureStats:
    def test_moments_match_numpy(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.001, 0.05, size=200)
        stats = SignatureStats(reservoir_size=256)
        for value in samples:
            stats.record(float(value))
        assert stats.count == len(samples)
        assert stats.mean == pytest.approx(float(np.mean(samples)), rel=1e-9)
        assert stats.std == pytest.approx(float(np.std(samples, ddof=1)), rel=1e-9)
        assert stats.min_s == float(np.min(samples))
        assert stats.max_s == float(np.max(samples))

    def test_batch_count_folds_multiple_observations(self):
        stats = SignatureStats()
        stats.record(0.01, count=4)
        stats.record(0.03, count=1)
        assert stats.count == 5
        assert stats.mean == pytest.approx((4 * 0.01 + 0.03) / 5)

    def test_threaded_totals_match_sequential(self):
        sequences = {t: [0.001 * (t + 1) + 0.0001 * i for i in range(200)] for t in range(6)}
        stats = SignatureStats(reservoir_size=16)

        def hammer(thread_id):
            for value in sequences[thread_id]:
                stats.record(value)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in sequences]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        flat = [v for seq in sequences.values() for v in seq]
        assert stats.count == len(flat)
        assert stats.min_s == min(flat)
        assert stats.max_s == max(flat)
        assert stats.mean == pytest.approx(sum(flat) / len(flat), rel=1e-6)

    def test_snapshot_is_json_safe_and_in_milliseconds(self):
        stats = SignatureStats()
        stats.record(0.01)
        stats.record(0.02)
        snap = stats.snapshot()
        assert snap["count"] == 2
        assert snap["mean_ms"] == pytest.approx(15.0)
        assert snap["min_ms"] == pytest.approx(10.0)
        assert snap["max_ms"] == pytest.approx(20.0)
        assert snap["expected_ms"] is None
        assert snap["p50_ms"] > 0 and snap["p95_ms"] > 0

    def test_empty_snapshot_is_zeroed(self):
        snap = SignatureStats().snapshot()
        assert snap["count"] == 0
        assert snap["min_ms"] == 0.0 and snap["max_ms"] == 0.0
        assert not math.isinf(snap["min_ms"])


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 3.0  # round(0.5*3) = 2
        assert percentile([], 95) == 0.0


class TestObservationLog:
    def test_counts_every_folded_request(self):
        log = ObservationLog(maxsize=8)
        sig = observation_signature("lcs", 48, "functional", {})
        log.record(sig, 0.01, count=3)
        log.record(sig, 0.02)
        assert log.observations == 4
        assert log.stats_for(sig).count == 4

    def test_lru_eviction_is_bounded(self):
        log = ObservationLog(maxsize=2)
        sigs = [observation_signature("lcs", d, None, {}) for d in (8, 16, 32)]
        for sig in sigs:
            log.record(sig, 0.01)
        assert len(log) == 2
        assert log.evictions == 1
        assert log.stats_for(sigs[0]) is None  # oldest evicted
        assert log.stats_for(sigs[2]) is not None

    def test_update_refreshes_recency(self):
        log = ObservationLog(maxsize=2)
        a = observation_signature("lcs", 8, None, {})
        b = observation_signature("lcs", 16, None, {})
        c = observation_signature("lcs", 32, None, {})
        log.record(a, 0.01)
        log.record(b, 0.01)
        log.record(a, 0.01)  # refresh a; b becomes LRU
        log.record(c, 0.01)
        assert log.stats_for(b) is None
        assert log.stats_for(a) is not None

    def test_snapshot_totals_cover_everything_despite_limit(self):
        log = ObservationLog(maxsize=8)
        for d in (8, 16, 32):
            log.record(observation_signature("lcs", d, None, {}), 0.01)
        snap = log.snapshot(limit=1)
        assert snap["observations"] == 3
        assert snap["tracked_signatures"] == 3
        assert len(snap["signatures"]) == 1  # limited rendering only

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ObservationLog(maxsize=0)
