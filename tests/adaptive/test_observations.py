"""Tests for the streaming observation layer: stats, signatures, LRU log.

The load-bearing contracts:

* :class:`SignatureStats` tracks count/mean/variance exactly (Welford)
  and survives N threads hammering it — totals equal the sequential run;
* signatures are the server's request labels
  (:func:`repro.cache.request_identity`), so observations and ``/metrics``
  describe identical traffic classes;
* :class:`ObservationLog` is bounded: an adversarial stream of distinct
  signatures evicts LRU-style instead of growing without bound, and an
  evicted entry takes everything known about its signature with it.
"""

import math
import threading

import numpy as np
import pytest

from repro.adaptive.drift import DriftState
from repro.adaptive.observations import ObservationLog, SignatureStats, percentile
from repro.cache import request_identity
from repro.facade.policy import ExecutionPolicy
from repro.server import ServeRequest


def sig(app, dim, mode=None, **app_kwargs):
    """The signature the server admits a request under."""
    return request_identity(app, dim, app_kwargs, None, mode)


class TestObservationSignature:
    def test_matches_the_server_request_label(self):
        for app, dim, mode, kwargs in [
            ("lcs", 48, "functional", {}),
            ("edit-distance", 40, None, {"policy": ExecutionPolicy(workers=2)}),
            ("matrix-chain", 32, "simulate", {"policy": ExecutionPolicy(backend="serial")}),
        ]:
            policy = kwargs.get("policy")
            ticket = ServeRequest(
                app=app, dim=dim, mode=mode, plan_kwargs=kwargs, enqueued_at=0.0
            )
            assert request_identity(app, dim, {}, policy, mode) == ticket.signature

    def test_kwargs_order_does_not_matter(self):
        a = request_identity("lcs", 48, {"a": 1, "b": 2}, mode="functional")
        b = request_identity("lcs", 48, {"b": 2, "a": 1}, mode="functional")
        assert a == b

    def test_unhashable_override_values_are_tolerated(self):
        signature = sig("lcs", 48, weights=[1, 2, 3])
        assert hash(signature) == hash(sig("lcs", 48, weights=(1, 2, 3)))

    def test_label_is_compact_and_complete(self):
        label = request_identity(
            "lcs", 48, {"seed": [1]}, ExecutionPolicy(workers=2), "functional"
        ).label
        assert label == "lcs[dim=48] mode=functional seed=[1],workers=2"
        # mode-less signatures omit the mode clause entirely
        assert sig("lcs", 48).label == "lcs[dim=48]"


class TestSignatureStats:
    def test_moments_match_numpy(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.001, 0.05, size=200)
        stats = SignatureStats(reservoir_size=256)
        for value in samples:
            stats.record(float(value))
        assert stats.count == len(samples)
        assert stats.mean == pytest.approx(float(np.mean(samples)), rel=1e-9)
        assert stats.snapshot()["std_ms"] == pytest.approx(1e3 * float(np.std(samples, ddof=1)), rel=1e-9)
        assert stats.min_s == float(np.min(samples))
        assert stats.max_s == float(np.max(samples))

    def test_repeated_observations_fold_into_one_mean(self):
        stats = SignatureStats()
        for latency_s in [0.01] * 4 + [0.03]:
            stats.record(latency_s)
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


def tracked(log):
    """End-to-end summaries of everything the table still holds."""
    return {entry.signature.label: entry.latency.snapshot() for entry in log.entries()}


class TestObservationLog:
    def test_counts_every_folded_request_on_one_entry(self):
        log = ObservationLog(maxsize=8)
        signature = sig("lcs", 48, "functional")
        entries = {id(log.record(signature, latency_s)) for latency_s in (0.01, 0.01, 0.01, 0.02)}
        assert len(entries) == 1
        assert tracked(log)[signature.label]["count"] == 4

    def test_lru_eviction_is_bounded(self):
        log = ObservationLog(maxsize=2)
        sigs = [sig("lcs", d) for d in (8, 16, 32)]
        for signature in sigs:
            log.record(signature, 0.01)
        assert len(log.entries()) == 2
        assert sigs[0].label not in tracked(log)  # oldest evicted
        assert sigs[2].label in tracked(log)

    def test_update_refreshes_recency(self):
        log = ObservationLog(maxsize=2)
        a, b, c = (sig("lcs", d) for d in (8, 16, 32))
        log.record(a, 0.01)
        log.record(b, 0.01)
        log.record(a, 0.01)  # refresh a; b becomes LRU
        log.record(c, 0.01)
        assert b.label not in tracked(log)
        assert a.label in tracked(log)

    def test_entries_list_the_most_recently_updated_first(self):
        log = ObservationLog(maxsize=8)
        for d in (8, 16, 32, 8):
            log.record(sig("lcs", d), 0.01)
        assert [entry.signature.dim for entry in log.entries()] == [8, 32, 16]

    def test_an_evicted_entry_leaves_with_its_loop_state(self):
        log = ObservationLog(maxsize=1)
        first = log.record(sig("lcs", 8), 0.01)
        first.service, first.drift = SignatureStats(), DriftState()
        log.record(sig("lcs", 16), 0.01)
        again = log.record(sig("lcs", 8), 0.01)
        assert again is not first
        assert again.service is None and again.drift is None
        assert again.latency.count == 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ObservationLog(maxsize=0)
