"""Tests for the command-line interface.

Every verb is a thin adapter over :class:`repro.session.Session`; these
tests smoke each verb end to end and pin the central error -> exit-code
mapping of :func:`repro.cli.main` (usage errors 2, missing artifacts 3).
"""

import json

import pytest

from repro.cli import EXIT_ARTIFACT, EXIT_USAGE, build_parser, main


class TestParser:
    def test_systems_command_parses(self):
        args = build_parser().parse_args(["systems"])
        assert args.command == "systems"

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.system == "i7-2600K" and args.app == "synthetic" and args.dim == 1900

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--app", "lcs"])
        assert args.command == "run" and args.tuner == "learned" and args.mode == "functional"

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.kind == "heatmap" and args.system == "i7-2600K"

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--system", "cray-1"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_systems_lists_all_three(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        for name in ("i3-540", "i7-2600K", "i7-3820"):
            assert name in out

    def test_report_tiny_prints_heatmap(self, capsys):
        assert main(["report", "--system", "i3-540", "--space", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5 heatmap" in out and "band" in out

    def test_tune_tiny_prints_configuration(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "tune",
                "--system",
                "i3-540",
                "--space",
                "tiny",
                "--app",
                "synthetic",
                "--dim",
                "256",
                "--tsize",
                "500",
                "--save-model",
                str(model_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tuned configuration" in out and "speedup" in out
        assert model_path.exists()

        # Reload the saved model instead of retraining.
        code = main(
            [
                "tune",
                "--system",
                "i3-540",
                "--space",
                "tiny",
                "--app",
                "nash-equilibrium",
                "--dim",
                "512",
                "--load-model",
                str(model_path),
            ]
        )
        assert code == 0
        assert "loaded trained models" in capsys.readouterr().out


class TestRun:
    def test_run_executes_and_verifies(self, capsys):
        code = main(
            [
                "run",
                "--system",
                "i3-540",
                "--space",
                "tiny",
                "--app",
                "lcs",
                "--dim",
                "32",
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "executed:" in out
        assert "serial verification: OK" in out

    def test_run_plan_out_then_replay(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        code = main(
            [
                "run",
                "--system",
                "i3-540",
                "--space",
                "tiny",
                "--app",
                "lcs",
                "--dim",
                "32",
                "--plan-out",
                str(plan_path),
            ]
        )
        assert code == 0
        assert plan_path.exists()
        first = capsys.readouterr().out
        assert "wrote plan to" in first

        code = main(
            ["run", "--system", "i3-540", "--replay", str(plan_path), "--verify"]
        )
        assert code == 0
        replayed = capsys.readouterr().out
        assert "replaying plan" in replayed
        assert "serial verification: OK" in replayed

    def test_run_pinned_backend_bypasses_tuner(self, capsys):
        code = main(
            [
                "run",
                "--system",
                "i3-540",
                "--app",
                "lcs",
                "--dim",
                "32",
                "--backend",
                "vectorized",
            ]
        )
        assert code == 0
        assert "via manual" in capsys.readouterr().out

    def test_run_tiled_backend_without_a_tile_verifies(self, capsys):
        code = main(
            ["run", "--app", "lcs", "--dim", "96", "--backend", "pipelined",
             "--workers", "2", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pipelined(CPU-only(cpu_tile=64), workers=2)" in out
        assert "serial verification: OK" in out

    def test_run_retired_backend_alias_is_usage_error(self, capsys):
        for backend in ("hybrid-mp", "compiled"):
            code = main(["run", "--app", "lcs", "--dim", "32", "--backend", backend])
            assert code == EXIT_USAGE, backend
            assert "known: hybrid, mp-parallel" in capsys.readouterr().err

    def test_run_replayed_plan_with_a_retired_engine_is_usage_error(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert main(
            ["run", "--app", "lcs", "--dim", "32", "--backend", "hybrid",
             "--plan-out", str(plan_path)]
        ) == 0
        payload = json.loads(plan_path.read_text())
        payload["engine"] = "mp"
        plan_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["run", "--replay", str(plan_path)]) == EXIT_USAGE
        assert "unknown executor 'mp'" in capsys.readouterr().err

    def test_run_without_app_is_usage_error(self, capsys):
        assert main(["run", "--system", "i3-540"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_run_replay_missing_plan_is_artifact_error(self, tmp_path, capsys):
        code = main(["run", "--replay", str(tmp_path / "missing_plan.json")])
        assert code == EXIT_ARTIFACT
        assert "error:" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_reports_package_version(self, capsys):
        from repro.version import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestBench:
    def test_bench_parses_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.dim == 256 and args.apps == "all" and args.executors == "all"

    def test_bench_writes_json_and_verifies(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--dim",
                "24",
                "--apps",
                "synthetic,lcs",
                "--executors",
                "serial,vectorized",
                "--repeats",
                "1",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "vectorized" in printed and "vs serial" in printed
        payload = json.loads(out_path.read_text())
        assert payload["meta"]["dim"] == 24
        records = payload["results"]
        assert len(records) == 4  # 2 apps x 2 executors
        by_pair = {(r["application"], r["executor"]): r for r in records}
        for app_name in ("synthetic", "lcs"):
            assert by_pair[(app_name, "vectorized")]["matches_serial"] is True
            assert by_pair[(app_name, "vectorized")]["speedup_vs_serial"] > 0

    def test_bench_rejects_unknown_names(self, capsys):
        assert main(["bench", "--apps", "raytracer", "--dim", "16"]) == EXIT_USAGE
        assert "unknown applications" in capsys.readouterr().err
        assert main(["bench", "--executors", "quantum", "--dim", "16"]) == EXIT_USAGE
        assert "unknown executors" in capsys.readouterr().err

    def test_bench_rejects_bad_repeats(self, capsys):
        assert main(["bench", "--repeats", "0", "--dim", "16"]) == EXIT_USAGE


class TestProfile:
    def test_profile_parses_defaults(self):
        args = build_parser().parse_args(["profile", "--quick"])
        assert args.quick and args.command == "profile"

    def test_profile_then_tune_local_end_to_end(self, capsys, tmp_path):
        profile_path = tmp_path / "profile.json"
        model_path = tmp_path / "tuner.json"
        report_path = tmp_path / "report.txt"
        code = main(
            [
                "profile",
                "--quick",
                "--apps",
                "lcs",
                "--dims",
                "32,48",
                "--repeats",
                "1",
                "--out",
                str(profile_path),
                "--model-out",
                str(model_path),
                "--report-out",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured records" in out and "predicted-vs-measured" in out
        assert profile_path.exists() and model_path.exists() and report_path.exists()

        from repro.autotuner.persistence import load_tuner

        assert load_tuner(model_path).fitted

        code = main(
            [
                "tune",
                "--system",
                "local",
                "--app",
                "lcs",
                "--dim",
                "48",
                "--profile-file",
                str(profile_path),
                "--load-model",
                str(model_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tuned plan" in out and "measured serial reference" in out

        # The measured report re-renders from the same artifacts.
        code = main(
            [
                "report",
                "--kind",
                "measured",
                "--profile-file",
                str(profile_path),
                "--model-file",
                str(model_path),
                "--out",
                str(tmp_path / "report2.txt"),
            ]
        )
        assert code == 0
        assert "Measured profile" in capsys.readouterr().out

    def test_tune_local_without_artifacts_maps_to_artifact_exit(self, tmp_path, capsys):
        code = main(
            [
                "tune",
                "--system",
                "local",
                "--app",
                "lcs",
                "--dim",
                "48",
                "--profile-file",
                str(tmp_path / "missing.json"),
                "--load-model",
                str(tmp_path / "missing_model.json"),
            ]
        )
        assert code == EXIT_ARTIFACT
        assert "repro profile" in capsys.readouterr().err


class TestServeVerb:
    def test_serve_parses_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve" and args.port == 8077
        assert args.queue_size == 64 and args.max_batch == 8
        assert args.system == "local" and args.space == "tiny"

    def test_serve_end_to_end_over_http(self, tmp_path):
        """serve binds, answers solve/metrics, drains on POST /shutdown."""
        import json as json_module
        import threading
        import time
        import urllib.request

        ready = tmp_path / "serve.addr"
        metrics_out = tmp_path / "metrics.json"
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(
                    [
                        "serve",
                        "--system", "i3-540",
                        "--space", "tiny",
                        "--port", "0",
                        "--ready-file", str(ready),
                        "--metrics-out", str(metrics_out),
                    ]
                )
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.time() + 60
        while time.time() < deadline and not ready.exists():
            time.sleep(0.05)
        assert ready.exists(), "serve never wrote its ready file"
        url = "http://" + ready.read_text().strip()

        request = urllib.request.Request(
            url + "/solve",
            data=json_module.dumps({"app": "lcs", "dim": 48}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            body = json_module.loads(response.read())
        assert body["value"] is not None and len(body["grid_sha256"]) == 64

        shutdown = urllib.request.Request(url + "/shutdown", method="POST")
        with urllib.request.urlopen(shutdown, timeout=10) as response:
            assert response.status == 202
        thread.join(timeout=60)
        assert not thread.is_alive() and codes == [0]
        metrics = json_module.loads(metrics_out.read_text())
        assert metrics["requests"]["completed"] >= 1
        assert metrics["requests"]["in_flight"] == 0


class TestLoadgenVerb:
    def test_loadgen_parses_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.command == "loadgen" and args.url is None
        assert args.requests == 60 and args.clients == 4 and args.rate is None

    def test_loadgen_in_process_writes_verified_artifact(self, capsys, tmp_path):
        out = tmp_path / "loadgen.json"
        code = main(
            [
                "loadgen",
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
        assert payload["reference"]["mean_solve_ms"] > 0

    def test_loadgen_bad_mix_is_usage_error(self, capsys):
        code = main(["loadgen", "--mix", "lcs", "--system", "i3-540"])
        assert code == EXIT_USAGE
        assert "app:dim" in capsys.readouterr().err

    def test_loadgen_simulate_mode_requires_no_verify(self, capsys):
        # Simulate results carry no grids, so silent "verification" would be
        # vacuous; the CLI demands the explicit opt-out instead.
        code = main(
            ["loadgen", "--mode", "simulate", "--system", "i3-540", "--space", "tiny"]
        )
        assert code == EXIT_USAGE
        assert "--no-verify" in capsys.readouterr().err
