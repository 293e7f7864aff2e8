"""Tests for ``scripts/loadgen.py``, the trace-replay client the serving gates read.

A replay must be a contract: the committed trace keeps its pinned request
sequence, anything that would silently change the workload (missing file,
stale format, foreign file, malformed entries) stops the script with exit
code 3, every answer is checked against the serial engine, and 429 / 504 /
other statuses are counted as distinct outcomes.
"""

import hashlib
import importlib.util
import json
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.server import ReproServer, ServerConfig, grid_digest, witness_digest
from repro.session import Session

REPO_ROOT = Path(__file__).resolve().parents[2]
LOADGEN_SCRIPT = REPO_ROOT / "scripts" / "loadgen.py"
COMMITTED_TRACE = REPO_ROOT / "benchmarks" / "traces" / "cache_smoke_trace.json"

_spec = importlib.util.spec_from_file_location("loadgen", LOADGEN_SCRIPT)
loadgen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loadgen)

#: SHA-256 of the committed trace's 60 ``app:dim`` lines.  The chaos and
#: adaptive fault plans count request ordinals in this order, so a change
#: here silently moves every committed fault onto another request.
COMMITTED_SEQUENCE_SHA256 = (
    "52d790880fbfdac1deb19bc9078a81dc0048ea0d3f53a89c4b46c4544a80fa59"
)

MIX = [("lcs", 20), ("edit-distance", 18), ("matrix-chain", 16)]


def write_trace(path, schedule, **meta):
    """Write ``schedule`` as a current trace file; return its path."""
    payload = {
        "format_version": loadgen.TRACE_FORMAT_VERSION,
        "kind": loadgen.TRACE_KIND,
        "meta": meta,
        "entries": [{"app": app, "dim": dim} for app, dim in schedule],
    }
    path.write_text(json.dumps(payload))
    return path


class TestTraceFile:
    def test_committed_trace_is_current_with_the_pinned_sequence(self):
        schedule, meta = loadgen.load_trace(COMMITTED_TRACE)  # a stale format raises here
        lines = "\n".join(f"{app}:{dim}" for app, dim in schedule)
        assert hashlib.sha256(lines.encode()).hexdigest() == COMMITTED_SEQUENCE_SHA256
        assert len(schedule) == meta["requests"] == 60
        assert (meta["seed"], meta["zipf_s"]) == (42, 1.1)

    def test_round_trip_keeps_schedule_and_meta(self, tmp_path):
        path = write_trace(tmp_path / "trace.json", MIX * 2, seed=3, note="hand-written")
        schedule, meta = loadgen.load_trace(path)
        assert schedule == MIX * 2
        assert meta == {"seed": 3, "note": "hand-written"}

    def test_missing_file_is_a_trace_error(self, tmp_path):
        with pytest.raises(loadgen.TraceError, match="does not exist"):
            loadgen.load_trace(tmp_path / "nope.json")

    def test_non_json_is_a_trace_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        with pytest.raises(loadgen.TraceError, match="not readable JSON"):
            loadgen.load_trace(path)

    def test_foreign_json_is_a_trace_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format_version": 2, "results": {}}))
        with pytest.raises(loadgen.TraceError, match="not a request trace"):
            loadgen.load_trace(path)

    def test_stale_format_version_is_a_trace_error(self, tmp_path):
        path = write_trace(tmp_path / "trace.json", MIX)
        payload = json.loads(path.read_text())
        payload["format_version"] = loadgen.TRACE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(loadgen.TraceError, match="format version"):
            loadgen.load_trace(path)

    @pytest.mark.parametrize(
        "entries",
        [[], [{"app": "lcs", "dim": "48"}], [{"app": "lcs", "dim": True}], [["lcs", 48]]],
    )
    def test_empty_or_malformed_entries_are_a_trace_error(self, tmp_path, entries):
        path = write_trace(tmp_path / "trace.json", [])
        payload = json.loads(path.read_text())
        payload["entries"] = entries
        path.write_text(json.dumps(payload))
        with pytest.raises(loadgen.TraceError):
            loadgen.load_trace(path)

    def test_main_exits_3_on_a_bad_trace_before_any_request(self, tmp_path, capsys):
        # The URL is never contacted: the trace is read first.
        code = loadgen.main([
            "--url", "http://127.0.0.1:9", "--trace", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "artifact.json"),
        ])
        assert code == loadgen.EXIT_TRACE
        assert "does not exist" in capsys.readouterr().err
        assert not (tmp_path / "artifact.json").exists()


@pytest.fixture()
def replay_artifact(endpoint):
    """One closed-loop HTTP replay of 24 requests, every answer verified."""
    schedule = [("lcs", 48), ("edit-distance", 40)] * 12
    return loadgen.replay(
        loadgen.HTTPTarget(endpoint.url), schedule, {"seed": 7}, loadgen.build_reference(schedule)
    )


class TestClosedLoop:
    def test_all_requests_complete_and_verify(self, replay_artifact):
        results = replay_artifact["results"]
        assert results["completed"] == 24
        assert results["failed"] == 0 and results["mismatches"] == 0
        assert results["witness_verified"] == 24
        assert results["throughput_rps"] > 0
        assert results["latency_ms"]["samples"] == 24

    def test_artifact_is_json_safe(self, replay_artifact):
        payload = json.loads(json.dumps(replay_artifact))
        assert payload["format_version"] == 8
        assert payload["meta"]["requests"] == 24
        assert payload["meta"]["trace"] == {"seed": 7}
        assert payload["meta"]["mix"] == ["lcs:48", "edit-distance:40"]
        assert payload["server_metrics"]["requests"]["completed"] >= 24
        assert "reference" not in payload
        assert "skipped_verification" not in payload["results"]

    def test_fresh_artifact_passes_the_serve_gate(self, replay_artifact, tmp_path):
        artifact = tmp_path / "fresh.json"
        artifact.write_text(json.dumps(replay_artifact))
        process = subprocess.run(
            [
                sys.executable, str(REPO_ROOT / "scripts" / "gates.py"), "serve",
                "--fresh", str(artifact), "--min-completed", "20",
            ],
            capture_output=True,
            text=True,
        )
        assert process.returncode == 0, process.stdout + process.stderr
        assert "serve check OK" in process.stdout


def closed_port() -> int:
    """A localhost port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestHTTPTarget:
    def test_answer_is_status_200_and_the_decoded_payload(self, endpoint):
        status, payload = loadgen.HTTPTarget(endpoint.url).solve("lcs", 16)
        assert status == 200
        expected = loadgen.build_reference([("lcs", 16)])[("lcs", 16)]
        assert {key: payload.get(key) for key in expected} == expected

    def test_http_error_returns_the_status_and_the_server_message(self, endpoint):
        status, payload = loadgen.HTTPTarget(endpoint.url).solve("no-such-app", 16)
        assert status == 400
        assert isinstance(payload, str) and "no-such-app" in payload

    def test_trailing_slash_of_the_url_is_dropped(self, endpoint):
        target = loadgen.HTTPTarget(endpoint.url + "/")
        assert target.url == endpoint.url
        assert target.solve("lcs", 16)[0] == 200
        assert "requests" in target.metrics()

    def test_transport_failure_raises(self):
        with pytest.raises(OSError):
            loadgen.HTTPTarget(f"http://127.0.0.1:{closed_port()}").solve("lcs", 16)


class TestMain:
    def test_writes_a_verified_artifact(self, endpoint, capsys, tmp_path):
        trace = write_trace(tmp_path / "trace.json", [("lcs", 48), ("viterbi", 40)] * 6, seed=1)
        out = tmp_path / "loadgen.json"
        code = loadgen.main([
            "--url", endpoint.url, "--trace", str(trace), "--clients", "3",
            "--out", str(out),
        ])
        assert code == loadgen.EXIT_OK
        assert "0 mismatches" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["results"]["completed"] == 12
        assert payload["results"]["mismatches"] == 0
        assert payload["results"]["witness_verified"] == 12
        assert payload["meta"]["clients"] == 3 and payload["meta"]["trace"] == {"seed": 1}

    def test_unreachable_target_exits_1_with_every_request_failed(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace.json", [("lcs", 12)] * 3)
        out = tmp_path / "loadgen.json"
        code = loadgen.main([
            "--url", f"http://127.0.0.1:{closed_port()}", "--trace", str(trace),
            "--out", str(out),
        ])
        assert code == loadgen.EXIT_FAILED
        assert "ERROR" in capsys.readouterr().out
        results = json.loads(out.read_text())["results"]
        assert results["failed"] == 3 and results["completed"] == 0

    @pytest.mark.parametrize("flag, value", [("--clients", "0"), ("--retries", "-1")])
    def test_out_of_range_counts_are_usage_errors(self, flag, value, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            loadgen.main([
                "--url", "http://127.0.0.1:9", "--trace", str(COMMITTED_TRACE),
                "--out", str(tmp_path / "a.json"), flag, value,
            ])
        assert exit_info.value.code == 2


#: The digests the stub's reference expects for its one signature.
EXPECTED = {"grid_sha256": "ab" * 32, "checksum": 7.0, "witness_sha256": None}


class StubTarget:
    """A scriptable target: returns (or raises) the queued outcomes, then answers."""

    url = "http://stub"

    def __init__(self, outcomes=(), answer=EXPECTED):
        self.outcomes = list(outcomes)
        self.answer = answer
        self.calls = 0

    def solve(self, app, dim):
        self.calls += 1
        if self.outcomes:
            outcome = self.outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return 200, {"app": app, "dim": dim, **self.answer}

    def metrics(self):
        return {}


def run(target, requests=1, retries=3):
    """``requests`` requests of ``lcs:48`` against ``target``; return the results."""
    return loadgen.replay(
        target, [("lcs", 48)] * requests, {}, {("lcs", 48): dict(EXPECTED)},
        clients=1, retries=retries,
    )["results"]


class TestVerification:
    """Every answer is compared to the reference digests; none passes unseen."""

    def test_matching_answer_is_witness_verified(self):
        results = run(StubTarget())
        assert results["completed"] == results["witness_verified"] == 1
        assert results["mismatches"] == 0

    @pytest.mark.parametrize(
        "key, wrong",
        [("grid_sha256", "cd" * 32), ("checksum", 8.0), ("witness_sha256", "ef" * 32)],
    )
    def test_any_differing_digest_is_a_mismatch(self, key, wrong):
        results = run(StubTarget(answer={**EXPECTED, key: wrong}))
        assert results["completed"] == 1
        assert results["mismatches"] == 1 and results["witness_verified"] == 0
        assert "does not match the reference" in results["errors"][0]

    def test_reference_matches_a_tuned_session_bit_for_bit(self, serve_session):
        schedule = [("lcs", 16), ("viterbi", 12), ("lcs", 16)]
        reference = loadgen.build_reference(schedule)
        assert list(reference) == [("lcs", 16), ("viterbi", 12)]
        for (app, dim), expected in reference.items():
            tuned = serve_session.solve(app, dim)
            assert expected == {
                "grid_sha256": grid_digest(tuned),
                "checksum": tuned.checksum,
                "witness_sha256": witness_digest(tuned),
            }


class TestClientRetries:
    """Backpressure is retried with backoff; deadline misses are terminal."""

    @pytest.fixture(autouse=True)
    def short_backoff(self, monkeypatch):
        monkeypatch.setattr(loadgen, "RETRY_BASE_S", 0.001)

    def test_backpressure_is_retried_until_it_clears(self):
        target = StubTarget([(429, "queue full")] * 2)
        results = run(target, retries=3)
        assert results["completed"] == 1
        assert results["retries"] == 2
        assert results["rejected"] == 0
        assert target.calls == 3

    def test_retry_budget_exhaustion_counts_rejected(self):
        target = StubTarget([(429, "queue full")] * 10)
        results = run(target, retries=2)
        assert results["completed"] == 0
        assert results["rejected"] == 1
        assert results["retries"] == 2
        assert target.calls == 3  # first attempt + the retry budget

    def test_deadline_expiry_is_terminal_not_retried(self):
        target = StubTarget([(504, "missed its deadline")])
        results = run(target, retries=5)
        assert results["deadline_expired"] == 1
        assert results["retries"] == 0
        assert target.calls == 1  # never retried
        assert results["errors"] == ["lcs[dim=48] -> HTTP 504: missed its deadline"]

    def test_backoff_doubles_up_to_its_cap(self, monkeypatch):
        delays = []
        monkeypatch.setattr(loadgen, "RETRY_CAP_S", 0.004)
        monkeypatch.setattr(loadgen.random, "random", lambda: 0.0)
        monkeypatch.setattr(loadgen.time, "sleep", delays.append)
        results = run(StubTarget([(429, "queue full")] * 4), retries=4)
        assert results["completed"] == 1 and results["retries"] == 4
        assert delays == [0.001, 0.002, 0.004, 0.004]

    def test_other_errors_fail_without_retry(self):
        target = StubTarget([(500, "boom"), ConnectionError("reset")])
        results = run(target, requests=2)
        assert results["failed"] == 2 and results["retries"] == 0
        assert len(results["errors"]) == 2


class TestReplay:
    def test_each_request_is_issued_once_across_clients(self):
        issued = []

        class Recording(StubTarget):
            def solve(self, app, dim):
                issued.append((app, dim))
                return super().solve(app, dim)

        schedule = [("lcs", 48)] * 3
        artifact = loadgen.replay(
            Recording(), schedule, {}, {("lcs", 48): dict(EXPECTED)}, clients=8
        )
        assert issued == schedule
        assert artifact["results"]["completed"] == artifact["results"]["witness_verified"] == 3
        assert artifact["meta"]["clients"] == 8

    def test_metrics_failures_are_recorded_not_raised(self):
        class NoMetrics(StubTarget):
            def metrics(self):
                raise ConnectionError("metrics down")

        artifact = loadgen.replay(
            NoMetrics(), [("lcs", 48)], {}, {("lcs", 48): dict(EXPECTED)}, clients=1
        )
        assert artifact["results"]["completed"] == 1
        assert artifact["server_metrics"] == {"error": "metrics down"}
        assert artifact["cache"] is None and artifact["adaptive"] is None


class TestDeltas:
    """The server's counters are cumulative; an artifact keeps this run's share."""

    def test_cache_delta_isolates_this_run(self):
        before = {"lookups": 10, "memory_hits": 4, "disk_hits": 2, "coalesced": 0, "misses": 4}
        after = {"lookups": 30, "memory_hits": 20, "disk_hits": 6, "coalesced": 0, "misses": 4}
        delta = loadgen.cache_delta(before, after)
        assert delta == {
            "lookups": 20, "memory_hits": 16, "disk_hits": 4, "coalesced": 0,
            "misses": 0, "hit_rate": 1.0,
        }
        assert loadgen.cache_delta(None, after)["misses"] == 4
        assert loadgen.cache_delta(before, None) is None  # cache off

    def test_adaptive_delta_isolates_this_run(self):
        before = {"observations": 100, "drift": {"events": 2}, "errors": 0, "mode": "on"}
        after = {"observations": 160, "drift": {"events": 3}, "errors": 0, "mode": "on"}
        delta = loadgen.adaptive_delta(before, after)
        assert delta == {"observations": 60, "drift_events": 1, "errors": 0, "mode": "on"}
        # cold start: no before snapshot means the run owns every counter
        assert loadgen.adaptive_delta(None, after)["observations"] == 160
        # adaptive off: no section, no delta
        assert loadgen.adaptive_delta(before, None) is None


class TestCacheEfficacy:
    def test_cold_then_warm_replay_reaches_full_hit_rate(self, serving, tmp_path):
        """The CI cache gate's scenario in miniature: restart between replays."""
        schedule = [MIX[0]] * 5 + [MIX[1], MIX[0], MIX[2], MIX[0], MIX[1]] * 5
        meta = {"seed": 21, "requests": len(schedule)}
        reference = loadgen.build_reference(schedule)

        def replay():
            session = Session(system="i3-540", cache_dir=tmp_path / "cache")
            with serving(ReproServer(session, ServerConfig(), own_session=True)) as ep:
                return loadgen.replay(loadgen.HTTPTarget(ep.url), schedule, meta, reference)

        cold = replay()
        warm = replay()
        for artifact in (cold, warm):
            assert artifact["results"]["failed"] == 0
            assert artifact["results"]["mismatches"] == 0
            assert artifact["results"]["completed"] == len(schedule)
            assert artifact["results"]["witness_verified"] == len(schedule)
            assert artifact["meta"]["trace"] == meta
        assert cold["cache"]["misses"] == len(MIX)
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hit_rate"] == pytest.approx(1.0)
        assert warm["cache"]["disk_hits"] >= 1, "the warm run starts from disk"
