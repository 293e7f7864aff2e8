"""Tests for the load generator, its ``loadgen`` verb and the serve gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.exceptions import UsageError
from repro.server import loadgen
from repro.server import (
    HTTPTarget,
    LoadgenConfig,
    build_reference,
    parse_mix,
    run_loadgen,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

MIX = parse_mix("lcs:48,edit-distance:40")


class TestParseMix:
    def test_round_trip(self):
        assert parse_mix("lcs:48, edit-distance:40") == (
            ("lcs", 48),
            ("edit-distance", 40),
        )

    def test_malformed_entries_raise_usage_error(self):
        with pytest.raises(UsageError):
            parse_mix("lcs")
        with pytest.raises(UsageError):
            parse_mix("lcs:abc")
        with pytest.raises(UsageError):
            parse_mix(",")


class TestLoadgenConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            LoadgenConfig(mix=MIX, requests=0)
        with pytest.raises(UsageError):
            LoadgenConfig(mix=MIX, clients=0)
        with pytest.raises(UsageError):
            LoadgenConfig(mix=MIX, retries=-1)


@pytest.fixture()
def loadgen_artifact(endpoint, serve_session):
    """One closed-loop HTTP run, every answer verified."""
    return run_loadgen(
        HTTPTarget(endpoint.url),
        LoadgenConfig(mix=MIX, requests=24, clients=4),
        build_reference(serve_session, MIX),
    )


class TestClosedLoop:
    def test_all_requests_complete_and_verify(self, loadgen_artifact):
        results = loadgen_artifact["results"]
        assert results["completed"] == 24
        assert results["failed"] == 0 and results["mismatches"] == 0
        assert results["witness_verified"] == 24
        assert results["throughput_rps"] > 0
        assert results["latency_ms"]["samples"] == 24

    def test_artifact_is_json_safe(self, loadgen_artifact):
        payload = json.loads(json.dumps(loadgen_artifact))
        assert payload["format_version"] == 8
        assert payload["meta"]["requests"] == 24 and payload["meta"]["trace"] is None
        assert payload["server_metrics"]["requests"]["completed"] >= 24
        assert "reference" not in payload
        assert "skipped_verification" not in payload["results"]

    def test_fresh_artifact_passes_the_serve_gate(self, loadgen_artifact, tmp_path):
        artifact = tmp_path / "fresh.json"
        artifact.write_text(json.dumps(loadgen_artifact))
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


class TestLoadgenVerb:
    def test_writes_verified_artifact(self, endpoint, capsys, tmp_path):
        out = tmp_path / "loadgen.json"
        code = main(
            [
                "loadgen",
                "--url", endpoint.url,
                "--system", "i3-540",
                "--space", "tiny",
                "--mix", "lcs:48,edit-distance:40",
                "--requests", "12",
                "--clients", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "0 mismatches" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["results"]["completed"] == 12
        assert payload["results"]["mismatches"] == 0
        assert payload["results"]["witness_verified"] == 12


#: The digests the stub's reference expects for its one mix entry.
EXPECTED = {"grid_sha256": "ab" * 32, "checksum": 7.0, "witness_sha256": None}


class StubTarget:
    """A scriptable target: raises the queued errors, then answers."""

    url = "http://stub"

    def __init__(self, errors=(), answer=EXPECTED):
        self.errors = list(errors)
        self.answer = answer
        self.calls = 0

    def solve(self, app, dim):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return {"app": app, "dim": dim, **self.answer}

    def metrics(self):
        return {}


class HTTPStatusError(Exception):
    """An exception carrying an HTTP ``status``, like HTTPTarget raises."""

    def __init__(self, status, message="status error"):
        super().__init__(message)
        self.status = status


def run_one(target, **config_kwargs):
    """One request against ``target``; return the artifact's results."""
    config = LoadgenConfig(mix=parse_mix("lcs:48"), requests=1, clients=1, **config_kwargs)
    return run_loadgen(target, config, {("lcs", 48): dict(EXPECTED)})["results"]


class TestVerification:
    """Every answer is compared to the reference digests; none passes unseen."""

    def test_matching_answer_is_witness_verified(self):
        results = run_one(StubTarget())
        assert results["completed"] == results["witness_verified"] == 1
        assert results["mismatches"] == 0

    @pytest.mark.parametrize(
        "key, wrong",
        [("grid_sha256", "cd" * 32), ("checksum", 8.0), ("witness_sha256", "ef" * 32)],
    )
    def test_any_differing_digest_is_a_mismatch(self, key, wrong):
        results = run_one(StubTarget(answer={**EXPECTED, key: wrong}))
        assert results["completed"] == 1
        assert results["mismatches"] == 1 and results["witness_verified"] == 0


class TestClientRetries:
    """Backpressure is retried with backoff; deadline misses are terminal."""

    @pytest.fixture(autouse=True)
    def short_backoff(self, monkeypatch):
        monkeypatch.setattr(loadgen, "RETRY_BASE_S", 0.001)

    def test_backpressure_is_retried_until_it_clears(self):
        target = StubTarget([HTTPStatusError(429)] * 2)
        results = run_one(target, retries=3)
        assert results["completed"] == 1
        assert results["retries"] == 2
        assert results["rejected"] == 0
        assert target.calls == 3

    def test_retry_budget_exhaustion_counts_rejected(self):
        target = StubTarget([HTTPStatusError(429)] * 10)
        results = run_one(target, retries=2)
        assert results["completed"] == 0
        assert results["rejected"] == 1
        assert results["retries"] == 2
        assert target.calls == 3  # first attempt + the retry budget

    def test_deadline_expiry_is_terminal_not_retried(self):
        target = StubTarget([HTTPStatusError(504)])
        results = run_one(target, retries=5)
        assert results["deadline_expired"] == 1
        assert results["retries"] == 0
        assert target.calls == 1  # never retried

    def test_other_errors_fail_without_retry(self):
        target = StubTarget([HTTPStatusError(500), ConnectionError("reset")])
        config = LoadgenConfig(mix=parse_mix("lcs:48"), requests=2, clients=1)
        results = run_loadgen(target, config, {("lcs", 48): dict(EXPECTED)})["results"]
        assert results["failed"] == 2 and results["retries"] == 0
        assert len(results["errors"]) == 2
