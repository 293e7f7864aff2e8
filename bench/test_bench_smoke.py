"""Smoke test of the benchmark harness (collected by the tier-1 run).

``run.py --smoke`` drives all five workloads at toy operation counts; the
tests assert that every metric ``BENCHMARK.json`` names comes out with a
finite value and its unit (or an explicit ``skipped`` entry), that no
operation failed, and that the verifier really counts a wrong grid digest
and a dropped witness as failed operations.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import Verifier, load_spec  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(out_dir: Path, *extra: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out_dir), *extra]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    return done


def _check(result: dict, section: str) -> None:
    assert result["deprecation_warnings"] == 0
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "numba"):
        assert key in result["fingerprint"]
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    for workload, record in result["workloads"].items():
        assert record["correct"], (workload, record["problems"])
        assert record["failed_share"] == 0 and record["attempted"] >= 1
        assert record["ops"]["timed_ops"] >= 1
        for entry in SPEC[section]:
            metric = record["metrics"].get(entry["name"])
            if metric is None:
                assert record["skipped"], f"{workload}: {entry['name']} missing, not skipped"
                continue
            assert math.isfinite(metric["value"]), (workload, entry["name"])
            assert metric["unit"] == entry["unit"], (workload, entry["name"])


def test_smoke_reports_every_end_to_end_metric(tmp_path):
    _run(tmp_path, "--seed", "11", "--trace", "0")
    result = json.loads((tmp_path / "result_all_seed11_trace0.json").read_text())
    _check(result, "end_to_end")
    for record in result["workloads"].values():
        assert all(record["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_smoke_reports_every_per_layer_metric(tmp_path):
    _run(tmp_path, "--seed", "11", "--trace", "1")
    result = json.loads((tmp_path / "result_all_seed11_trace1.json").read_text())
    _check(result, "per_layer")
    for workload, record in result["workloads"].items():
        assert not record["skipped"], (workload, record["skipped"])
        assert "trace.overhead_share" in record["metrics"]
        assert record["metrics"]["runtime.shm_leaked"]["value"] == 0
        spans = [json.loads(line) for line in
                 (tmp_path / f"trace_{workload}.jsonl").read_text().splitlines()]
        assert spans and {"id", "parent", "request", "workload", "layer", "name",
                          "t0_ns", "t1_ns"} == set(spans[0])
    assert result["workloads"]["paper-hybrid"]["metrics"]["runtime.band_cells"]["value"] > 0
    assert result["workloads"]["direct-tiled"]["metrics"]["runtime.tiles_executed"]["value"] > 0


def test_single_workload_ends_with_the_contract_object(tmp_path):
    done = _run(tmp_path, "--workload", "direct-sweep", "--seed", "5", "--trace", "0")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert sorted(last["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_verifier_counts_flipped_digest_and_dropped_witness():
    key = ("viterbi", 16, (("seed", 1),))
    verifier = Verifier({key: ("a" * 64, "b" * 64)})
    assert verifier.check(key, "a" * 64, "b" * 64)
    assert not verifier.check(key, "c" + "a" * 63, "b" * 64)  # flipped grid digest
    assert not verifier.check(key, "a" * 64, None)  # dropped witness
    verifier.error(key, "HTTP 500")
    assert (verifier.attempted, verifier.failed) == (4, 3)
