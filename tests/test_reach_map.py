"""The committed execution map (``reach.json``) and its collector.

The static checks keep the map in step with ``src/``: every function has an
entry, no entry names a function that is gone, and a function that nothing
but ``tests/`` reaches carries a keep reason from the closed set.  The
collector test traces a toy package through the same hook ``scripts/reach.py``
installs and checks that a call in the process, in a thread, in a forked
``multiprocessing`` child and in a ``subprocess`` Python child are all
recorded, a decorated function under its own name, and an uncalled one not.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("reach", REPO_ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MAP = json.loads((REPO_ROOT / "reach.json").read_text(encoding="utf-8"))


class TestCommittedMap:
    def test_every_function_has_an_entry_and_every_entry_a_function(self):
        live = set(reach.source_functions())
        mapped = set(MAP["functions"])
        assert sorted(live - mapped) == [], "run python scripts/reach.py"
        assert sorted(mapped - live) == [], "run python scripts/reach.py"

    def test_labels_are_declared_reachers(self):
        declared = set(MAP["reachers"])
        for key, entry in MAP["functions"].items():
            assert set(entry["reached_by"]) <= declared, key

    def test_test_only_and_unreached_functions_have_a_keep_reason(self):
        loose = [
            key for key, entry in MAP["functions"].items()
            if set(entry["reached_by"]) <= {"tests"} and "keep" not in entry
        ]
        assert loose == [], "delete them, give them a caller, or record a keep reason"

    def test_keep_reasons_come_from_the_closed_set(self):
        for key, entry in MAP["functions"].items():
            if "keep" in entry:
                reason, _, detail = entry["keep"].partition(":")
                assert reason in reach.KEEP_REASONS and detail.strip(), (key, entry["keep"])

    def test_keep_reasons_are_the_closed_set(self):
        assert set(reach.KEEP_REASONS) == {"safety", "oracle", "protocol", "cli", "api", "debug"}

    def test_keep_and_test_files_only_on_functions_nothing_but_tests_reaches(self):
        for key, entry in MAP["functions"].items():
            if "keep" in entry or "tests" in entry:
                assert entry["reached_by"] in ([], ["tests"]), key

    def test_test_only_entries_name_test_files_that_exist(self):
        for key, entry in MAP["functions"].items():
            for path in entry.get("tests", []):
                assert path.startswith("tests/") and (REPO_ROOT / path).is_file(), (key, path)

    def test_the_file_is_sorted_json_written_by_the_script(self):
        text = (REPO_ROOT / "reach.json").read_text(encoding="utf-8")
        assert text == json.dumps(MAP, indent=1, sort_keys=True) + "\n"
        assert MAP["command"] == "python scripts/reach.py"

    def test_reachers_are_the_runs_the_script_makes(self, tmp_path):
        table = reach.runs(tmp_path)
        assert {label: described for label, (described, _) in table.items()} == MAP["reachers"]

    def test_fork_children_were_traced(self):
        for name in ("_worker_main", "_sweep"):
            reached_by = MAP["functions"][f"src/repro/runtime/mp_parallel.py::{name}"]["reached_by"]
            assert "bench" in reached_by and "tests" in reached_by, name

    def test_serve_subprocesses_were_traced(self):
        reached_by = MAP["functions"]["src/repro/server/service.py::ReproServer.submit"]["reached_by"]
        assert "ci:serve-smoke" in reached_by


TOY = '''\
import functools


def in_process():
    return 1


def in_thread():
    return 2


def in_fork():
    return 3


def in_subprocess():
    return 4


def never():
    return 5


@functools.lru_cache(maxsize=None)
def decorated():
    return 6
'''

PROGRAM = '''\
import multiprocessing
import subprocess
import sys
import threading

sys.path.insert(0, {src!r})
from reachtoy import mod

mod.in_process()
thread = threading.Thread(target=mod.in_thread)
thread.start()
thread.join(30)
child = multiprocessing.get_context("fork").Process(target=mod.in_fork)
child.start()
child.join(30)
assert child.exitcode == 0
code = "import sys; sys.path.insert(0, {src!r}); from reachtoy import mod; mod.in_subprocess()"
subprocess.run([sys.executable, "-c", code], check=True, timeout=30)
mod.decorated()
'''


def test_collector_records_every_kind_of_call_and_nothing_else(tmp_path):
    package = tmp_path / "src" / "reachtoy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    program = tmp_path / "drive.py"
    program.write_text(PROGRAM.format(src=str(tmp_path / "src")))
    hook = reach.install_hook(tmp_path / "hook")
    dumps = tmp_path / "dumps"
    env = reach.traced_env(hook, dumps, mark="src/reachtoy/")
    subprocess.run([sys.executable, str(program)], env=env, check=True, timeout=60)

    reached = reach.read_dumps(dumps, root=tmp_path, mark="src/reachtoy/")
    toy = {key.split("::")[1] for key in reached if key.startswith("src/reachtoy/mod.py::")}
    assert toy == {"in_process", "in_thread", "in_fork", "in_subprocess", "decorated"}


def _toy_package(tmp_path, name="reachtoy", source=TOY):
    package = tmp_path / "src" / name
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(source)
    return package


def _raw_rows(dumps):
    return [row for dump in sorted(dumps.glob("*.json")) for row in json.loads(dump.read_text())]


def test_dump_rows_hold_marked_calls_and_their_context_only(tmp_path):
    _toy_package(tmp_path)
    _toy_package(tmp_path, "elsewhere", "def unmarked():\n    return 0\n")
    hook = reach.install_hook(tmp_path / "hook")
    dumps = tmp_path / "dumps"
    env = dict(reach.traced_env(hook, dumps, mark="src/reachtoy/"), REPRO_REACH_CONTEXT="tests/test_toy.py")
    code = (f"import sys; sys.path.insert(0, {str(tmp_path / 'src')!r}); "
            "from reachtoy import mod; from elsewhere import mod as other; mod.in_process(); other.unmarked()")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    rows = _raw_rows(dumps)
    assert rows, "no dump written"
    # File, first line, name and context: no pid, no time, nothing outside the mark.
    assert all(len(row) == 4 and "src/reachtoy/" in row[0] for row in rows)
    assert {row[3] for row in rows} == {"tests/test_toy.py"}
    assert [4, "in_process"] in [row[1:3] for row in rows]


def test_a_process_that_calls_nothing_marked_writes_no_dump(tmp_path):
    hook = reach.install_hook(tmp_path / "hook")
    dumps = tmp_path / "dumps"
    env = reach.traced_env(hook, dumps, mark="src/reachtoy/")
    subprocess.run([sys.executable, "-c", "import json; json.dumps([1])"], env=env, check=True, timeout=60)
    assert list(dumps.iterdir()) == []


def test_the_hook_is_inert_without_a_dump_dir(tmp_path):
    hook = reach.install_hook(tmp_path / "hook")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_REACH_")}
    env["PYTHONPATH"] = str(hook)
    code = "import sys, sitecustomize; print(sitecustomize.__file__); print(sys.gettrace())"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                         capture_output=True, text=True).stdout.split()
    assert out == [str(hook / "sitecustomize.py"), "None"]


def test_the_python_shim_keeps_the_hook_first_when_a_command_sets_pythonpath(tmp_path):
    hook = reach.install_hook(tmp_path / "hook")
    env = reach.traced_env(hook, tmp_path / "dumps")
    script = "PYTHONPATH=src python -c 'import sitecustomize, sys; print(sitecustomize.__file__, sys.path[1])'"
    out = subprocess.run(["bash", "-c", script], cwd=REPO_ROOT, env=env, check=True, timeout=60,
                         capture_output=True, text=True).stdout.split()
    assert out == [str(hook / "sitecustomize.py"), str(hook)]


def test_the_pytest_plugin_tags_each_call_with_its_test_file(tmp_path):
    _toy_package(tmp_path)
    suite = tmp_path / "toytests"
    suite.mkdir()
    for name, call in (("test_a.py", "in_process"), ("test_b.py", "in_thread")):
        (suite / name).write_text(
            f"import sys\nsys.path.insert(0, {str(tmp_path / 'src')!r})\nfrom reachtoy import mod\n\n\n"
            f"def test_call():\n    mod.{call}()\n"
        )
    hook = reach.install_hook(tmp_path / "hook")
    dumps = tmp_path / "dumps"
    env = reach.traced_env(hook, dumps, mark="src/reachtoy/")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "reach_pytest", "-p", "no:cacheprovider", "toytests"]
    subprocess.run(command, cwd=tmp_path, env=env, check=True, timeout=120, capture_output=True)

    reached = reach.read_dumps(dumps, root=tmp_path, mark="src/reachtoy/")
    assert reached["src/reachtoy/mod.py::in_process"] == {"toytests/test_a.py"}
    assert reached["src/reachtoy/mod.py::in_thread"] == {"toytests/test_b.py"}
    assert "src/reachtoy/mod.py::never" not in reached


def test_install_hook_writes_the_tracer_the_plugin_and_an_executable_shim(tmp_path):
    hook = reach.install_hook(tmp_path / "hook")
    assert (hook / "sitecustomize.py").read_text() == reach.HOOK
    assert (hook / "reach_pytest.py").read_text() == reach.PLUGIN
    assert os.access(hook / "python", os.X_OK)


def test_traced_env_puts_the_hook_first_and_pins_the_hash_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "inherited")
    monkeypatch.setenv("REPRO_REACH_CONTEXT", "tests/stale.py")
    hook, out = tmp_path / "hook", tmp_path / "dumps"
    env = reach.traced_env(hook, out, mark="src/x/")
    assert env["PYTHONPATH"].split(os.pathsep) == [str(hook), str(REPO_ROOT / "src"), "inherited"]
    assert env["PATH"].split(os.pathsep)[0] == str(hook)
    assert (env["PYTHONHASHSEED"], env["REPRO_REACH_DIR"], env["REPRO_REACH_MARK"]) == ("0", str(out), "src/x/")
    assert "REPRO_REACH_CONTEXT" not in env
    assert out.is_dir()


#: (source, expected ``function_index``): one row per shape of ``def``.
SHAPES = {
    "module-function": ("def f():\n    pass\n", {(1, "f"): "f"}),
    "method": ("class A:\n    def m(self):\n        pass\n", {(2, "m"): "A.m"}),
    "nested-class": (
        "class A:\n    class B:\n        def m(self):\n            pass\n", {(3, "m"): "A.B.m"},
    ),
    "nested-function": (
        "def f():\n    def g():\n        pass\n", {(1, "f"): "f", (2, "g"): "f.<locals>.g"},
    ),
    "class-in-function": (
        "def f():\n    class C:\n        def m(self):\n            pass\n",
        {(1, "f"): "f", (3, "m"): "f.<locals>.C.m"},
    ),
    "async": ("class A:\n    async def run(self):\n        pass\n", {(2, "run"): "A.run"}),
    "property-accessors": (
        "class A:\n"
        "    @property\n    def x(self):\n        pass\n\n"
        "    @x.setter\n    def x(self, v):\n        pass\n\n"
        "    @x.deleter\n    def x(self):\n        pass\n",
        {(2, "x"): "A.x", (6, "x"): "A.x.setter", (10, "x"): "A.x.deleter"},
    ),
    "redefinition": (
        "def f():\n    pass\n\n\ndef f():\n    pass\n\n\ndef f():\n    pass\n",
        {(1, "f"): "f", (5, "f"): "f#2", (9, "f"): "f#3"},
    ),
    "conditional": (
        "if X:\n    def f():\n        pass\nelse:\n    def f():\n        pass\n",
        {(2, "f"): "f", (5, "f"): "f#2"},
    ),
    "stacked-decorators": (
        "@a\n@b(1,\n   2)\ndef f():\n    pass\n", {(1, "f"): "f"},
    ),
    "lambda": ("g = lambda: 0\n", {}),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_function_index_keys_each_shape_of_def(tmp_path, shape):
    source, expected = SHAPES[shape]
    path = tmp_path / "shapes.py"
    path.write_text(source)
    assert reach.function_index(path) == expected


def test_source_functions_are_repo_relative_and_file_ordered(tmp_path):
    for rel, body in (("src/pkg/b.py", "def b():\n    pass\n"), ("src/pkg/a/c.py", "def c():\n    pass\n"),
                      ("src/other/d.py", "def d():\n    pass\n")):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(body)
    assert reach.source_functions(tmp_path, "src/pkg/") == ["src/pkg/a/c.py::c", "src/pkg/b.py::b"]


def test_every_src_function_has_a_distinct_key():
    keys = reach.source_functions()
    assert len(keys) == len(set(keys))


def _write_dump(dumps, rows, name):
    dumps.mkdir(exist_ok=True)
    (dumps / f"{name}.json").write_text(json.dumps(rows))


class TestReadDumps:
    def test_rows_are_keyed_by_the_path_after_the_mark(self, tmp_path):
        _toy_package(tmp_path)
        _write_dump(tmp_path / "dumps", [["/another/checkout/src/reachtoy/mod.py", 4, "in_process", "ctx"]], "1")
        reached = reach.read_dumps(tmp_path / "dumps", root=tmp_path, mark="src/reachtoy/")
        assert reached == {"src/reachtoy/mod.py::in_process": {"ctx"}}

    def test_rows_that_are_not_a_def_are_dropped(self, tmp_path):
        _toy_package(tmp_path)
        rows = [[str(tmp_path / "src/reachtoy/mod.py"), 1, "<module>", ""],
                [str(tmp_path / "src/reachtoy/mod.py"), 5, "in_process", ""]]  # a stale line
        _write_dump(tmp_path / "dumps", rows, "1")
        assert reach.read_dumps(tmp_path / "dumps", root=tmp_path, mark="src/reachtoy/") == {}

    def test_rows_of_files_that_are_gone_are_dropped(self, tmp_path):
        _toy_package(tmp_path)
        _write_dump(tmp_path / "dumps", [[str(tmp_path / "src/reachtoy/gone.py"), 1, "f", ""]], "1")
        assert reach.read_dumps(tmp_path / "dumps", root=tmp_path, mark="src/reachtoy/") == {}

    def test_contexts_are_merged_across_dumps(self, tmp_path):
        _toy_package(tmp_path)
        path = str(tmp_path / "src/reachtoy/mod.py")
        _write_dump(tmp_path / "dumps", [[path, 4, "in_process", "tests/a.py"]], "1")
        _write_dump(tmp_path / "dumps", [[path, 4, "in_process", "tests/b.py"], [path, 8, "in_thread", ""]], "2")
        reached = reach.read_dumps(tmp_path / "dumps", root=tmp_path, mark="src/reachtoy/")
        assert reached == {"src/reachtoy/mod.py::in_process": {"tests/a.py", "tests/b.py"},
                           "src/reachtoy/mod.py::in_thread": {""}}


WORKFLOW = """\
name: CI
on:
  push:
jobs:
  tests:
    steps:
      - run: pip install -r requirements-dev.txt
      - run: PYTHONPATH=src python -m pytest -x -q
  smoke:
    name: a smoke job
    steps:
      - uses: actions/checkout@v4
      - name: Install
        run: pip install -r requirements.txt
      - name: Inline
        run: python -m repro --version
      - name: Block
        run: |
          python - <<'EOF'
          print("indented heredoc")
          EOF
      - name: Only on failure
        if: failure()
        run: cat /tmp/serve.log
"""


class TestCiJobs:
    def test_keeps_the_run_scripts_of_jobs_that_run_no_pytest(self, tmp_path):
        path = tmp_path / "ci.yml"
        path.write_text(WORKFLOW)
        assert reach.ci_jobs(path) == {
            "smoke": ["python -m repro --version", "python - <<'EOF'\nprint(\"indented heredoc\")\nEOF\n"],
        }

    def test_the_workflow_has_six_traced_jobs(self):
        assert sorted(reach.ci_jobs()) == [
            "adaptive-smoke", "cache-smoke", "chaos-smoke", "docs", "perf-smoke", "serve-smoke",
        ]

    def test_heredocs_of_the_workflow_lose_their_yaml_indent(self):
        script = "\n".join(reach.ci_jobs()["perf-smoke"])
        assert "\nfrom repro.autotuner.measured import" in script
        assert "\nEOF\n" in script


class TestRuns:
    def test_ci_jobs_write_into_the_work_dir_instead_of_tmp(self, tmp_path):
        for label, (_, commands) in reach.runs(tmp_path).items():
            if label.startswith("ci:"):
                (shell, flag, _, script), = commands
                assert (shell, flag) == ("bash", "-e")
                assert "/tmp/" not in script.replace(str(tmp_path), "")
                assert (tmp_path / f"ci-{label[3:]}").is_dir()

    def test_pytest_runs_load_the_plugin_and_pin_hypothesis(self, tmp_path):
        table = reach.runs(tmp_path)
        for label, target in (("tests", "tests"), ("paper", "benchmarks")):
            (command,) = table[label][1]
            assert command[-1] == target
            assert "reach_pytest" in command and "--hypothesis-seed=0" in command

    def test_every_example_runs(self, tmp_path):
        commands = reach.runs(tmp_path)["example"][1]
        examples = sorted(p.relative_to(REPO_ROOT).as_posix() for p in (REPO_ROOT / "examples").glob("*.py"))
        assert [command[1] for command in commands] == examples and examples


class TestBuildMap:
    KEY = "src/repro/session.py::Session.solve"

    def test_labels_are_sorted_and_test_files_listed(self):
        reached = {"tests": {self.KEY: {"tests/b.py", "tests/a.py", ""}}, "bench": {}}
        document = reach.build_map(reached, {"tests": "t", "bench": "b"}, {})
        assert document["functions"][self.KEY] == {"reached_by": ["tests"], "tests": ["tests/a.py", "tests/b.py"]}
        assert document["reachers"] == {"tests": "t", "bench": "b"}
        assert list(document["functions"]) == reach.source_functions()

    def test_keep_reasons_are_carried_over(self):
        previous = {"functions": {self.KEY: {"reached_by": [], "keep": "api: a documented entry point"}}}
        document = reach.build_map({"tests": {}}, {"tests": "t"}, previous)
        assert document["functions"][self.KEY] == {"reached_by": [], "keep": "api: a documented entry point"}

    def test_a_production_reacher_drops_the_keep_reason_and_test_files(self):
        previous = {"functions": {self.KEY: {"reached_by": ["tests"], "keep": "api: a documented entry point"}}}
        reached = {"tests": {self.KEY: {"tests/a.py"}}, "bench": {self.KEY: {""}}}
        document = reach.build_map(reached, {"tests": "t", "bench": "b"}, previous)
        assert document["functions"][self.KEY] == {"reached_by": ["bench", "tests"]}

    def test_summary_counts_each_label_and_lists_loose_functions(self):
        document = {
            "reachers": {"tests": "t", "bench": "b"},
            "functions": {
                "src/repro/a.py::f": {"reached_by": ["bench", "tests"]},
                "src/repro/a.py::g": {"reached_by": ["tests"], "tests": ["tests/x.py"]},
                "src/repro/a.py::h": {"reached_by": [], "keep": "debug: a __repr__"},
                "src/repro/a.py::i": {"reached_by": []},
            },
        }
        assert reach.summary(document) == [
            "4 functions under src/repro",
            "  tests                      2",
            "  bench                      1",
            "2 functions reached by nothing but tests, with no keep reason:",
            "  tests  src/repro/a.py::g",
            "  none   src/repro/a.py::i",
        ]


def test_qualnames_come_from_the_ast_not_line_numbers(tmp_path):
    source = tmp_path / "shapes.py"
    source.write_text(textwrap.dedent('''\
        class A:
            @property
            def x(self):
                return 1

            @x.setter
            def x(self, value):
                pass

            def outer(self):
                def inner():
                    pass
                return inner
        '''))
    names = reach.function_index(source)
    assert sorted(names.values()) == ["A.outer", "A.outer.<locals>.inner", "A.x", "A.x.setter"]
    assert names[(2, "x")] == "A.x"  # a decorated def starts at its first decorator
