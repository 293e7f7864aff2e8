"""Tests for the command-line interface.

Every verb is a thin adapter over :class:`repro.session.Session`; these
tests smoke each verb end to end and pin the central error -> exit-code
mapping of :func:`repro.cli.main` (usage errors 2, missing artifacts 3).
"""

import argparse
import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.cli import EXIT_ARTIFACT, EXIT_USAGE, build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Verb options exempt from the CI rule below: deployment settings.
DEPLOYMENT_OPTIONS = {("serve", "--host")}


def ci_verb_options() -> dict[str, set[str]]:
    """Verb -> the options some ``python -m repro <verb>`` command of ci.yml passes."""
    spec = importlib.util.spec_from_file_location("reach", REPO_ROOT / "scripts" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    used: dict[str, set[str]] = {}
    for scripts in reach.ci_jobs().values():
        for script in scripts:
            joined = script.replace("\\\n", " ")
            for verb, rest in re.findall(r"python -m repro (\w+)([^\n]*)", joined):
                used.setdefault(verb, set()).update(re.findall(r"--[\w-]+", rest))
    return used


def test_every_verb_option_runs_in_a_ci_job():
    """A CLI option that no CI job runs either gets a CI step or leaves."""
    used = ci_verb_options()
    verbs = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    missing = [
        (verb, option)
        for verb, parser in verbs.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in [max(action.option_strings, key=len)]
        if (verb, option) not in DEPLOYMENT_OPTIONS and option not in used.get(verb, ())
    ]
    assert missing == []


class TestParser:
    def test_systems_command_parses(self):
        args = build_parser().parse_args(["systems"])
        assert args.command == "systems"

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.system == "i7-2600K" and args.app == "synthetic" and args.dim == 1900

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--app", "lcs"])
        assert args.command == "run" and args.mode == "functional"

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

    @pytest.mark.parametrize(("mode", "clock"), [("functional", "wall="), ("simulate", "rtime=")])
    def test_run_prints_the_clock_of_its_mode(self, capsys, mode, clock):
        code = main(
            ["run", "--system", "i7-2600K", "--app", "synthetic", "--dim", "64",
             "--backend", "hybrid", "--mode", mode]
        )
        assert code == 0
        executed = [line for line in capsys.readouterr().out.splitlines() if "executed:" in line]
        assert executed == [executed[0]] and f"mode={mode}, {clock}" in executed[0]
        assert ("rtime=" in executed[0]) == (mode == "simulate")

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
                "--report-out",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured records" in out and "predicted-vs-measured" in out
        # The profile and its report, nothing else.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json", "report.txt"]

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
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tuned plan" in out and "measured serial reference" in out
        assert "workers=" not in out  # a whole-grid engine, one worker

        # The measured report re-renders from the same profile, printed
        # directly; a file is written only when asked for.
        code = main(["report", "--kind", "measured", "--profile-file", str(profile_path)])
        assert code == 0
        assert "Measured profile" in capsys.readouterr().out
        assert len(list(tmp_path.iterdir())) == 2
        code = main(
            [
                "report",
                "--kind",
                "measured",
                "--profile-file",
                str(profile_path),
                "--out",
                str(tmp_path / "report2.txt"),
            ]
        )
        assert code == 0
        assert "Measured profile" in capsys.readouterr().out
        assert (tmp_path / "report2.txt").read_text() == report_path.read_text()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--dims", "x"],
            ["--dims", "1"],
            ["--budget-s", "nan"],
            ["--budget-s", "inf"],
            ["--budget-s", "0"],
            ["--apps", "nope"],
            ["--repeats", "0"],
        ],
    )
    def test_a_bad_grid_flag_is_a_usage_error_before_anything_runs(self, flags, tmp_path, capsys):
        code = main(
            ["profile", "--quick", *flags, "--out", str(tmp_path / "p.json"),
             "--report-out", str(tmp_path / "r.txt")]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--save-model", "--load-model"])
    def test_tune_local_with_a_model_file_is_a_usage_error(self, flag, tmp_path, capsys):
        code = main(
            ["tune", "--system", "local", "--app", "lcs", "--dim", "48",
             flag, str(tmp_path / "model.json")]
        )
        assert code == EXIT_USAGE
        assert "--system local plans from the measured profile" in capsys.readouterr().err

    def test_a_v2_profile_is_refused_with_the_artifact_exit(self, tmp_path, capsys):
        # The parent format: tiled rows with a worker count and a tile.
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({
            "format_version": 2,
            "system": "local",
            "host": {},
            "records": [
                {"app": "lcs", "backend": backend, "workers": 1, "dim": 48,
                 "tsize": 0.5, "dsize": 0, "cpu_tile": tile, "wall_s": wall, "repeats": 1}
                for backend, tile, wall in (("serial", 1, 0.004), ("mp-parallel", 32, 0.001))
            ],
        }))
        for argv in (
            ["tune", "--system", "local", "--app", "lcs", "--dim", "48", "--profile-file", str(path)],
            ["report", "--kind", "measured", "--profile-file", str(path)],
        ):
            assert main(argv) == EXIT_ARTIFACT
            assert "re-run `repro profile`" in capsys.readouterr().err

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
            ]
        )
        assert code == EXIT_ARTIFACT
        assert "repro profile" in capsys.readouterr().err


class TestServeVerb:
    def test_serve_parses_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve" and args.port == 8077
        assert args.queue_size == 64 and not hasattr(args, "max_batch")
        assert args.system == "local" and args.adaptive == "on"

    def test_serve_refuses_the_retired_max_batch_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--max-batch", "8"])
        assert exit_info.value.code == EXIT_USAGE
        assert "--max-batch" in capsys.readouterr().err

    @pytest.mark.parametrize("retired", ["live", "shadow"])
    def test_serve_refuses_a_retired_adaptive_mode(self, retired, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--adaptive", retired])
        assert exit_info.value.code == EXIT_USAGE
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err

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


class TestReportAdaptive:
    def report(self, tmp_path, payload):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(payload))
        return main(["report", "--kind", "adaptive", "--metrics-file", str(path)])

    @pytest.mark.parametrize(
        "payload", [[], [1], "text", 3, {"server_metrics": [1]}, {"server_metrics": "x"}]
    )
    def test_malformed_metrics_file_is_artifact_error(self, payload, tmp_path, capsys):
        assert self.report(tmp_path, payload) == EXIT_ARTIFACT
        assert "metrics file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload", [{}, {"adaptive": None}, {"server_metrics": None, "adaptive": None}]
    )
    def test_metrics_without_an_adaptive_section_report_off(self, payload, tmp_path, capsys):
        assert self.report(tmp_path, payload) == 0
        assert "adaptive tuning: off" in capsys.readouterr().out

    def test_missing_metrics_file_names_both_writers(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["report", "--kind", "adaptive", "--metrics-file", str(missing)])
        assert code == EXIT_ARTIFACT
        err = capsys.readouterr().err
        assert "serve --metrics-out" in err and "scripts/loadgen.py" in err
