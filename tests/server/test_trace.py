"""Trace generation, record/replay round-trips and the cache-efficacy path.

A trace must be a *contract*: the same seed always generates the same
request stream, a saved trace replays bit-exactly, and anything that would
silently change the workload (stale format, foreign file, malformed
entries) is a typed :class:`~repro.core.exceptions.CacheError` that the CLI
maps to exit code 3.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import EXIT_ARTIFACT, main
from repro.core.exceptions import CacheError, UsageError
from repro.server import (
    HTTPTarget,
    LoadgenConfig,
    ReproServer,
    RequestTrace,
    ServerConfig,
    build_reference,
    build_schedule,
    generate_trace,
    load_trace,
    parse_mix,
    run_loadgen,
    save_trace,
    zipf_weights,
)
from repro.server.trace import TRACE_FORMAT_VERSION
from repro.session import Session

MIX = (("lcs", 20), ("edit-distance", 18), ("matrix-chain", 16))

COMMITTED_TRACE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "traces" / "cache_smoke_trace.json"
)

#: SHA-256 of the committed trace's 60 ``app:dim`` lines.  The chaos and
#: adaptive fault plans count request ordinals in this order, so a change
#: here silently moves every committed fault onto another request.
COMMITTED_SEQUENCE_SHA256 = (
    "52d790880fbfdac1deb19bc9078a81dc0048ea0d3f53a89c4b46c4544a80fa59"
)


class TestGeneration:
    def test_same_seed_generates_the_same_trace(self):
        first = generate_trace(MIX, 50, seed=9, zipf_s=1.3)
        second = generate_trace(MIX, 50, seed=9, zipf_s=1.3)
        assert first.entries == second.entries
        assert first.meta == second.meta
        assert len(first) == 50

    def test_zipf_weights_are_rank_monotone(self):
        weights = zipf_weights(6, 1.1)
        assert weights.sum() == pytest.approx(1.0)
        assert all(weights[i] > weights[i + 1] for i in range(5))
        flat = zipf_weights(6, 0.0)
        assert np.allclose(flat, 1 / 6)

    def test_skew_concentrates_on_the_head(self):
        trace = generate_trace(MIX, 400, seed=1, zipf_s=1.5)
        apps = [entry["app"] for entry in trace.entries]
        head = apps.count(MIX[0][0])
        tail = apps.count(MIX[-1][0])
        assert head > tail, "rank 1 must dominate rank 3 under Zipf skew"
        assert set(apps) == {app for app, _ in MIX}, "the tail stays present"

    def test_entries_carry_app_and_dim_only(self):
        trace = generate_trace(MIX, 10, seed=0)
        assert all(set(entry) == {"app", "dim"} for entry in trace.entries)
        assert set(trace.meta) == {"seed", "zipf_s", "mix", "requests"}
        assert trace.distinct_mix() and set(trace.distinct_mix()) <= set(MIX)

    def test_bad_arguments_are_usage_errors(self):
        with pytest.raises(UsageError):
            generate_trace(MIX, 0, seed=1)
        for skew in (-1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(UsageError, match="finite and >= 0"):
                generate_trace(MIX, 10, seed=1, zipf_s=skew)


class TestCommittedTrace:
    def test_committed_trace_is_current_with_the_pinned_sequence(self):
        trace = load_trace(COMMITTED_TRACE)  # a stale format raises here
        lines = "\n".join(f"{app}:{dim}" for app, dim in trace.schedule())
        assert hashlib.sha256(lines.encode()).hexdigest() == COMMITTED_SEQUENCE_SHA256
        assert len(trace) == trace.meta["requests"] == 60

    def test_committed_trace_regenerates_from_its_meta(self):
        trace = load_trace(COMMITTED_TRACE)
        meta = trace.meta
        again = generate_trace(
            parse_mix(",".join(meta["mix"])), meta["requests"], meta["seed"],
            zipf_s=meta["zipf_s"],
        )
        assert again.entries == trace.entries and again.meta == meta


class TestRoundTrip:
    def test_save_load_is_identity(self, tmp_path):
        trace = generate_trace(MIX, 40, seed=13, zipf_s=0.7)
        path = save_trace(trace, tmp_path / "trace.json")
        loaded = load_trace(path)
        assert loaded.entries == trace.entries
        assert loaded.meta == trace.meta
        assert loaded.schedule() == trace.schedule()

    def test_missing_file_raises_cache_error(self, tmp_path):
        with pytest.raises(CacheError):
            load_trace(tmp_path / "nope.json")

    def test_non_json_raises_cache_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        with pytest.raises(CacheError):
            load_trace(path)

    def test_foreign_json_raises_cache_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format_version": 1, "results": {}}))
        with pytest.raises(CacheError):
            load_trace(path)

    def test_stale_format_version_raises_cache_error(self, tmp_path):
        trace = generate_trace(MIX, 5, seed=1)
        path = save_trace(trace, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        payload["format_version"] = TRACE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheError):
            load_trace(path)

    def test_malformed_entries_raise_cache_error(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": TRACE_FORMAT_VERSION,
                    "kind": "request-trace",
                    "meta": {},
                    "entries": [{"app": "lcs", "dim": "not-an-int"}],
                }
            )
        )
        with pytest.raises(CacheError):
            load_trace(path)

    def test_cli_maps_stale_trace_to_exit_3(self, endpoint, tmp_path):
        trace = generate_trace(MIX, 5, seed=1)
        path = save_trace(trace, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        code = main(
            [
                "loadgen",
                "--url",
                endpoint.url,
                "--system",
                "i3-540",
                "--space",
                "tiny",
                "--trace",
                str(path),
                "--out",
                str(tmp_path / "artifact.json"),
            ]
        )
        assert code == EXIT_ARTIFACT

    def test_cli_rejects_record_and_replay_together(self, endpoint, tmp_path):
        code = main(
            [
                "loadgen",
                "--url",
                endpoint.url,
                "--trace",
                str(tmp_path / "a.json"),
                "--trace-out",
                str(tmp_path / "b.json"),
            ]
        )
        assert code == 2


class TestSchedule:
    def test_round_robin_schedule_matches_the_mix_cycle(self):
        config = LoadgenConfig(mix=MIX, requests=7)
        assert build_schedule(config) == [MIX[i % len(MIX)] for i in range(7)]

    def test_trace_overrides_the_config(self):
        trace = generate_trace(MIX, 9, seed=3)
        config = LoadgenConfig(mix=(("lcs", 999),), requests=2)
        schedule = build_schedule(config, trace)
        assert len(schedule) == 9
        assert schedule == trace.schedule()


class TestCacheEfficacy:
    def test_cold_then_warm_replay_reaches_full_hit_rate(self, serving, tmp_path):
        """The CI cache gate's scenario in miniature: restart between replays."""
        trace = generate_trace(MIX, 30, seed=21, zipf_s=1.2)
        config = LoadgenConfig(mix=trace.distinct_mix(), requests=len(trace))
        with Session(system="i3-540") as reference_session:
            reference = build_reference(reference_session, trace.distinct_mix())

        def replay():
            session = Session(system="i3-540", cache_dir=tmp_path / "cache")
            with serving(ReproServer(session, ServerConfig(), own_session=True)) as ep:
                return run_loadgen(HTTPTarget(ep.url), config, reference, trace=trace)

        cold = replay()
        warm = replay()
        for artifact in (cold, warm):
            assert artifact["results"]["failed"] == 0
            assert artifact["results"]["mismatches"] == 0
            assert artifact["results"]["completed"] == len(trace)
            assert artifact["results"]["witness_verified"] == len(trace)
            assert artifact["meta"]["trace"] == trace.meta
        assert cold["cache"]["misses"] == len(trace.distinct_mix())
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hit_rate"] == pytest.approx(1.0)
        assert warm["cache"]["disk_hits"] >= 1, "the warm run starts from disk"


class TestRequestTrace:
    def test_describe_mentions_the_shape(self):
        trace = generate_trace(MIX, 12, seed=5)
        text = trace.describe()
        assert "12 requests" in text and "seed=5" in text
        assert isinstance(trace, RequestTrace)
