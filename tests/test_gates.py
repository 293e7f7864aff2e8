"""Tests for ``scripts/gates.py``, the four counter-based serving gates.

Each gate passes one synthetic artifact shaped like a healthy CI run and
fails, with its own message, on every rule a broken run can break.  The
synthetic runs replay the committed trace and name the committed chaos
plan, so these tests also catch a baseline that drifts from its trace.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GATES_SCRIPT = REPO_ROOT / "scripts" / "gates.py"

_spec = importlib.util.spec_from_file_location("gates", GATES_SCRIPT)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

TRACE_META = json.loads(
    (REPO_ROOT / "benchmarks" / "traces" / "cache_smoke_trace.json").read_text()
)["meta"]
CHAOS_PLAN = json.loads(
    (REPO_ROOT / "benchmarks" / "results" / "chaos_baseline.json").read_text()
)["chaos"]["plan"]


def artifact(completed=60, expired=0, trace=True, **sections):
    """A loadgen artifact of a healthy 60-request run."""
    metrics = {
        "uptime_s": 1.0,
        "requests": {"completed": completed, "deadline_expired": expired},
        "queue": {},
        "batches": {"histogram": {"1": completed}},
        "latency_ms": {},
        "throughput_rps": 60.0,
    }
    if "supervisor" in sections:
        metrics["supervisor"] = sections.pop("supervisor")
    if "caches" in sections:
        metrics["caches"] = sections.pop("caches")
    return {
        "format_version": 6,
        "meta": {"requests": 60, "trace": dict(TRACE_META) if trace else None},
        "results": {
            "completed": completed,
            "rejected": 0,
            "failed": 0,
            "deadline_expired": expired,
            "retries": 0,
            "mismatches": 0,
            "witness_verified": completed,
            "wall_s": 1.0,
            "throughput_rps": 60.0,
            "latency_ms": {
                "p50": 2.0, "p90": 3.0, "p95": 3.5, "p99": 4.0,
                "mean": 2.2, "max": 5.0, "samples": completed,
            },
            "errors": [],
        },
        "cache": sections.get("cache"),
        "adaptive": sections.get("adaptive"),
        "server_metrics": metrics,
    }


def cache_delta(misses):
    """One run's result-cache counters: 20 lookups, ``misses`` of them fresh."""
    return {
        "lookups": 20, "memory_hits": 20 - misses, "disk_hits": 0,
        "coalesced": 0, "misses": misses, "hit_rate": (20 - misses) / 20,
    }


#: The session caches of a cache-backed server after a replay: no instance data.
NO_INSTANCE_DATA = {"plans": {"size": 4}, "problems": {"size": 0, "bytes": 0}}


def adaptive_delta(drift_events):
    """One ``--adaptive on`` run's adaptive counters over 60 observations."""
    return {"observations": 60, "drift_events": drift_events, "errors": 0, "mode": "on"}


def passing(gate):
    """Flag -> artifact of one healthy run of ``gate``; the last is mutated."""
    if gate == "serve":
        return {"fresh": artifact(trace=False)}
    if gate == "cache":
        return {
            "cold": artifact(cache=cache_delta(4), caches=NO_INSTANCE_DATA),
            "warm": artifact(cache=cache_delta(0), caches=NO_INSTANCE_DATA),
        }
    if gate == "chaos":
        supervisor = {
            "faults_injected": 4, "restarts": 2, "redispatches": 2,
            "state": "healthy",
            "faults": {
                "plan": CHAOS_PLAN, "scheduled": 4, "injected": 4,
                "by_kind": {"kill": 2, "slow": 1, "drop": 1},
            },
        }
        return {"fresh": artifact(completed=56, expired=4, supervisor=supervisor)}
    return {
        "stable": artifact(adaptive=adaptive_delta(0)),
        "drifted": artifact(adaptive=adaptive_delta(1)),
    }


def run_gate(gate, artifacts, tmp_path, capsys):
    """Write ``artifacts`` and run ``gates.py <gate>``; return (code, output)."""
    argv = [gate]
    for flag, payload in artifacts.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(json.dumps(payload))
        argv += [f"--{flag}", str(path)]
    code = gates.main(argv)
    return code, capsys.readouterr().out


def run_mutated(gate, mutate, tmp_path, capsys):
    """Run ``gate`` with its last artifact changed by ``mutate``."""
    artifacts = passing(gate)
    mutate(artifacts[list(artifacts)[-1]])
    return run_gate(gate, artifacts, tmp_path, capsys)


ALL_GATES = ("serve", "cache", "chaos", "adaptive")
REPLAY_GATES = ("cache", "chaos", "adaptive")


@pytest.mark.parametrize("gate", ALL_GATES)
def test_healthy_run_passes(gate, tmp_path, capsys):
    code, output = run_gate(gate, passing(gate), tmp_path, capsys)
    assert code == 0, output
    assert f"{gate} check OK" in output


def _mismatch(a):
    a["results"]["mismatches"] = 1


def _failed(a):
    a["results"]["failed"] = 1


def _unverified(a):
    a["results"]["witness_verified"] -= 1


@pytest.mark.parametrize("gate", ALL_GATES)
@pytest.mark.parametrize(
    "mutate, message",
    [
        (_mismatch, "1 answers did not match in-process solving"),
        (_failed, "1 requests failed"),
        (_unverified, "without full (grid, witness) verification"),
    ],
    ids=["mismatch", "failed", "witness-unverified"],
)
def test_correctness_rules_fail_every_gate(gate, mutate, message, tmp_path, capsys):
    code, output = run_mutated(gate, mutate, tmp_path, capsys)
    assert code == 1 and f"{gate} check FAILED" in output
    assert message in output


@pytest.mark.parametrize("gate", REPLAY_GATES)
def test_a_different_trace_seed_fails(gate, tmp_path, capsys):
    def reseed(a):
        a["meta"]["trace"]["seed"] = 43

    code, output = run_mutated(gate, reseed, tmp_path, capsys)
    assert code == 1
    assert "trace seed is 43, the committed trace has 42" in output


def _faults(a):
    return a["server_metrics"]["supervisor"]["faults"]


def _set(path, value):
    """A mutation setting the nested key ``path`` of an artifact to ``value``."""

    def mutate(a):
        target = a
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


SUPERVISOR = ("server_metrics", "supervisor")
PROBLEMS = ("server_metrics", "caches", "problems")


@pytest.mark.parametrize(
    "gate, mutate, message",
    [
        ("serve", _set(("results", "deadline_expired"), 2), "2 requests missed their deadline"),
        ("serve", _set(("server_metrics", "batches"), {}), "batches.histogram missing"),
        ("cache", _set(("cache",), cache_delta(1)), "warm replay solved 1 requests fresh"),
        ("cache", _set(("cache",), cache_delta(3)), "below the committed floor"),
        ("cache", _set(("results", "latency_ms", "p50"), 9.0), "warm p50 is 4.50x the cold p50"),
        ("cache", _set(PROBLEMS + ("bytes",), 4096), "warm: the server still holds 4096 bytes"),
        ("cache", _set(("server_metrics", "caches"), {}),
         "warm: server_metrics.caches.problems.bytes missing"),
        ("cache", _set(("server_metrics",), {"error": "timed out"}),
         "warm: server_metrics missing or unreadable"),
        ("chaos", lambda a: _faults(a).update(plan="kill@7"), "does not match the committed plan"),
        ("chaos", lambda a: _faults(a).update(injected=3), "only 3 of 4 scheduled faults"),
        ("chaos", _set(SUPERVISOR + ("restarts",), 9), "9 shard restarts outside the budget band"),
        ("chaos", _set(SUPERVISOR + ("restarts",), 1), "1 shard restarts outside the budget band"),
        ("chaos", _set(("meta", "requests"), 61), "only 60 of 61 requests resolved"),
        ("adaptive", _set(("adaptive", "mode"), "shadow"), "the gate expects on"),
        ("adaptive", _set(("adaptive", "observations"), 59), "the loop is missing traffic"),
        ("adaptive", _set(("adaptive", "drift_events"), 0), "the injected slowdown went undetected"),
    ],
    ids=[
        "serve-deadline", "serve-shape", "cache-warm-miss", "cache-hit-rate",
        "cache-p50-ratio", "cache-instance-bytes", "cache-no-problems-section",
        "cache-metrics-errored", "chaos-plan", "chaos-faults-injected",
        "chaos-restarts-above", "chaos-restarts-below", "chaos-untyped",
        "adaptive-mode", "adaptive-observations", "adaptive-no-drift",
    ],
)
def test_gate_rule_fails_with_its_message(gate, mutate, message, tmp_path, capsys):
    code, output = run_mutated(gate, mutate, tmp_path, capsys)
    assert code == 1 and f"{gate} check FAILED" in output
    assert message in output


def test_instance_data_held_after_the_cold_replay_fails(tmp_path, capsys):
    artifacts = passing("cache")
    artifacts["cold"]["server_metrics"]["caches"] = {"problems": {"size": 1, "bytes": 512}}
    code, output = run_gate("cache", artifacts, tmp_path, capsys)
    assert code == 1
    assert "cold: the server still holds 512 bytes of instance data" in output


def test_a_cold_artifact_without_server_metrics_fails(tmp_path, capsys):
    artifacts = passing("cache")
    del artifacts["cold"]["server_metrics"]
    code, output = run_gate("cache", artifacts, tmp_path, capsys)
    assert code == 1
    assert "cold: server_metrics missing or unreadable: None" in output


def test_a_stable_run_drift_event_fails(tmp_path, capsys):
    artifacts = passing("adaptive")
    artifacts["stable"]["adaptive"]["drift_events"] = 1
    code, output = run_gate("adaptive", artifacts, tmp_path, capsys)
    assert code == 1
    assert "stable replay latched 1 drift events" in output


def test_script_runs_from_any_directory(tmp_path):
    """CI runs the script without PYTHONPATH; baselines resolve from the repo."""
    artifacts = passing("chaos")
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(artifacts["fresh"]))
    process = subprocess.run(
        [sys.executable, str(GATES_SCRIPT), "chaos", "--fresh", str(path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    assert "chaos check OK" in process.stdout
