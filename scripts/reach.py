#!/usr/bin/env python
"""Execution map of ``src/repro``: which runs reach each function.

    python scripts/reach.py      # every run; rewrites reach.json

Each run executes with a call tracer installed in every Python process it
starts.  The tracer lives in a ``sitecustomize.py`` written to a temp dir
that goes first on ``PYTHONPATH`` (a ``python`` shim in that dir puts it
there even for commands that set ``PYTHONPATH=src`` themselves),
so ``repro serve`` subprocesses and the forked worker-team processes are
traced as well as the parent.  It records ``call`` events only: the tracer
returns ``None``, so no frame is line-traced.  The runs, one reacher label
each:

* ``tests``    ``pytest tests/``; a function only tests reach lists the test
  files that reached it;
* ``paper``    ``pytest benchmarks/`` (the paper's figures and tables);
* ``bench``    ``bench/run.py --smoke --trace 1`` (all five workloads);
* ``ci:<job>`` the commands of each non-pytest job in ``.github/workflows/ci.yml``,
  with ``/tmp`` moved into a temp dir;
* ``example``  every ``examples/*.py``.

Functions are keyed ``<repo-relative file>::<qualname>``, the qualname taken
from the ``ast`` (a decorated function's code starts at its first
decorator), never from line numbers, so the map survives edits elsewhere in
a file.  ``reach.json`` holds, per function, the labels that reached it and,
for one nothing but ``tests`` reaches, either the test files or a ``keep``
reason from :data:`KEEP_REASONS`.  Keep reasons are written by hand and
carried over when the map is regenerated.  Runs use ``PYTHONHASHSEED=0`` and
``--hypothesis-seed=0``; the file is sorted JSON with no pids or times.
About 6 minutes on a 2-vCPU host; exits 1 when a run failed (the map is
written all the same).
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MAP_PATH = REPO_ROOT / "reach.json"
CI_PATH = REPO_ROOT / ".github" / "workflows" / "ci.yml"
SRC_MARK = "src/repro/"

#: Why a function that nothing but ``tests`` reaches stays.
KEEP_REASONS = {
    "safety": "fault handling, input checks or recovery state (the simplicity guide's list)",
    "oracle": "a reference implementation tests compare against",
    "protocol": "an abstract method or Protocol stub",
    "cli": "reached through a CLI option no CI job runs (named)",
    "api": "a user extension point documented in docs/",
    "debug": "a __repr__",
}

#: The tracer every traced Python process imports at start-up.
HOOK = '''\
"""Call tracer for scripts/reach.py; inert unless REPRO_REACH_DIR is set."""
import atexit
import json
import os
import sys
import threading

context = os.environ.get("REPRO_REACH_CONTEXT", "")
_DIR = os.environ.get("REPRO_REACH_DIR")
_MARK = os.environ.get("REPRO_REACH_MARK", "src/repro/")
_seen = set()
_done = []


def _tracer(frame, event, arg, _mark=_MARK, _add=_seen.add):
    # Defaults, not globals: module globals are None during interpreter shutdown.
    code = frame.f_code
    if _mark in code.co_filename:
        _add((code, context))


def dump():
    """Write this process's calls once: at exit, or at a forked child's end."""
    if _done or not _seen:
        return
    _done.append(True)
    # copy() holds the GIL throughout; threads still tracing cannot resize it under us.
    rows = sorted({(c.co_filename, c.co_firstlineno, c.co_name, ctx) for c, ctx in _seen.copy()})
    name = os.path.join(_DIR, "%d-%s.json" % (os.getpid(), os.urandom(4).hex()))
    with open(name, "w") as handle:
        json.dump(rows, handle)


def _rearm(_):
    # Process._bootstrap clears the finalizer registry after the fork and the
    # child leaves through os._exit, so atexit never runs there: register the
    # dump as a Finalize, which _bootstrap's exit function does run.
    import multiprocessing.util
    del _done[:]
    multiprocessing.util.Finalize(None, dump, exitpriority=0)


if _DIR:
    import multiprocessing.util

    sys.settrace(_tracer)
    threading.settrace(_tracer)
    atexit.register(dump)
    multiprocessing.util.register_after_fork(dump, _rearm)
'''

#: pytest plugin: attribute each call to the test file running it.
PLUGIN = '''\
"""Tags every traced call with the test file being collected or run."""
import os

import sitecustomize


def _tag(path):
    rel = os.path.relpath(str(path), os.getcwd())
    sitecustomize.context = rel
    os.environ["REPRO_REACH_CONTEXT"] = rel


def pytest_collectstart(collector):
    if getattr(collector, "path", None) is not None and str(collector.path).endswith(".py"):
        _tag(collector.path)


def pytest_runtest_setup(item):
    _tag(item.path)
'''


def install_hook(directory: Path) -> Path:
    """Write the tracer, the pytest plugin and the ``python`` shim into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    (directory / "reach_pytest.py").write_text(PLUGIN, encoding="utf-8")
    shim = f'#!/bin/sh\nPYTHONPATH="{directory}${{PYTHONPATH:+:$PYTHONPATH}}" exec "{sys.executable}" "$@"\n'
    (directory / "python").write_text(shim, encoding="utf-8")
    (directory / "python").chmod(0o755)
    return directory


def traced_env(hook: Path, out: Path, mark: str = SRC_MARK) -> dict[str, str]:
    """The environment of one traced run writing its call dumps to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.pop("REPRO_REACH_CONTEXT", None)
    path = [str(hook), str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env.update(
        PYTHONPATH=os.pathsep.join(path),
        PATH=os.pathsep.join([str(hook), env.get("PATH", "")]),
        PYTHONHASHSEED="0",
        REPRO_REACH_DIR=str(out),
        REPRO_REACH_MARK=mark,
    )
    return env


class _Index(ast.NodeVisitor):
    def __init__(self) -> None:
        self.stack: list[str] = []
        self.names: dict[tuple[int, str], str] = {}

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qualname = ".".join([*self.stack, node.name])
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter"):
                qualname += f".{decorator.attr}"
        taken = set(self.names.values())
        if qualname in taken:
            qualname += f"#{sum(1 for q in taken if q.split('#')[0] == qualname) + 1}"
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.names[(first, node.name)] = qualname
        self.stack += [node.name, "<locals>"]
        self.generic_visit(node)
        del self.stack[-2:]

    visit_AsyncFunctionDef = visit_FunctionDef


def function_index(path: Path) -> dict[tuple[int, str], str]:
    """``(first line incl. decorators, name) -> qualname`` for every def in a file."""
    index = _Index()
    index.visit(ast.parse(path.read_text(encoding="utf-8")))
    return index.names


def source_functions(root: Path = REPO_ROOT, mark: str = SRC_MARK) -> list[str]:
    """The key of every function under ``root/mark``, file by file."""
    return [
        f"{path.relative_to(root).as_posix()}::{qualname}"
        for path in sorted((root / mark).rglob("*.py"))
        for qualname in function_index(path).values()
    ]


def read_dumps(out: Path, root: Path = REPO_ROOT, mark: str = SRC_MARK) -> dict[str, set[str]]:
    """The dumps of one run: function key -> the contexts (test files) that called it."""
    indexes: dict[str, dict] = {}
    reached: dict[str, set[str]] = {}
    for dump in sorted(out.glob("*.json")):
        for filename, line, name, context in json.loads(dump.read_text(encoding="utf-8")):
            rel = mark + filename.rsplit(mark, 1)[1]
            if rel not in indexes:
                source = root / rel
                indexes[rel] = function_index(source) if source.exists() else {}
            qualname = indexes[rel].get((line, name))
            if qualname is not None:
                reached.setdefault(f"{rel}::{qualname}", set()).add(context)
    return reached


def ci_jobs(path: Path = CI_PATH) -> dict[str, list[str]]:
    """Job name -> its ``run:`` scripts, minus installs, failure-only steps and pytest jobs."""
    jobs: dict[str, list[dict]] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    in_jobs, job, i = False, None, 0
    while i < len(lines):
        line = lines[i]
        indent = len(line) - len(line.lstrip())
        stripped = line.strip()
        i += 1
        if line.startswith("jobs:"):
            in_jobs = True
        elif in_jobs and indent == 2 and re.fullmatch(r"[\w-]+:", stripped):
            job = stripped[:-1]
            jobs[job] = []
        elif job and stripped.startswith("- "):
            jobs[job].append({"run": "", "if": False})
            stripped = stripped[2:]
            indent += 2
        if not job or not jobs[job]:
            continue
        step = jobs[job][-1]
        if stripped.startswith("if:"):
            step["if"] = True
        elif stripped.startswith("run:"):
            inline = stripped[4:].strip()
            if inline not in ("|", ">"):
                step["run"] = inline
                continue
            block = []
            while i < len(lines) and (not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent):
                block.append(lines[i])
                i += 1
            step["run"] = textwrap.dedent("\n".join(block)).strip() + "\n"
    return {
        name: [s["run"] for s in steps if s["run"] and not s["if"] and not s["run"].startswith("pip ")]
        for name, steps in jobs.items()
        if not any("pytest" in s["run"] for s in steps)
    }


def runs(work: Path) -> dict[str, tuple[str, list[list[str]]]]:
    """Label -> (what it runs, the commands), in run order."""
    python = sys.executable
    pytest = [python, "-m", "pytest", "-q", "-p", "reach_pytest", "-p", "no:cacheprovider",
              "--hypothesis-seed=0"]
    table = {
        "tests": ("pytest tests/", [pytest + ["tests"]]),
        "paper": ("pytest benchmarks/", [pytest + ["benchmarks"]]),
        "bench": ("bench/run.py --smoke --trace 1",
                  [[python, "bench/run.py", "--smoke", "--trace", "1", "--out", str(work / "bench")]]),
    }
    for job, scripts in ci_jobs().items():
        tmp = work / f"ci-{job}"
        tmp.mkdir(parents=True, exist_ok=True)
        # One shell for the whole job: a step's background `repro serve` is
        # shut down by a later step.
        script = "\n".join(scripts).replace("/tmp/", f"{tmp}/")
        table[f"ci:{job}"] = (f"ci.yml job {job}", [["bash", "-e", "-c", script]])
    examples = sorted(p.relative_to(REPO_ROOT).as_posix() for p in (REPO_ROOT / "examples").glob("*.py"))
    table["example"] = ("examples/*.py", [[python, example] for example in examples])
    return table


def run_traced(label: str, commands: list[list[str]], hook: Path, out: Path) -> tuple[bool, float]:
    """Run one label's commands in order under the tracer; (all passed, seconds)."""
    env = traced_env(hook, out)
    started = time.monotonic()
    ok = True
    for command in commands:
        # Own session, so a background `repro serve` a job leaves behind dies with it.
        process = subprocess.Popen(command, cwd=REPO_ROOT, env=env, start_new_session=True,
                                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        output, _ = process.communicate()
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if process.returncode != 0:
            ok = False
            print(f"  {label}: exit {process.returncode}: {' '.join(command)[:200]}")
            print(textwrap.indent(output[-3000:], "    | "))
    return ok, time.monotonic() - started


def build_map(reached: dict[str, dict[str, set[str]]], described: dict[str, str],
              previous: dict) -> dict:
    """The ``reach.json`` document from each label's reached functions."""
    kept = {key: entry["keep"] for key, entry in previous.get("functions", {}).items() if "keep" in entry}
    functions = {}
    for key in source_functions():
        labels = sorted(label for label, hits in reached.items() if key in hits)
        entry: dict = {"reached_by": labels}
        if labels in ([], ["tests"]):
            if labels:
                entry["tests"] = sorted(c for c in reached["tests"][key] if c)
            if key in kept:
                entry["keep"] = kept[key]
        functions[key] = entry
    return {"command": "python scripts/reach.py", "reachers": described, "functions": functions}


def summary(document: dict) -> list[str]:
    """Counts per label, then every function with no reacher but tests and no keep reason."""
    functions = document["functions"]
    lines = [f"{len(functions)} functions under src/repro"]
    for label in document["reachers"]:
        lines.append(f"  {label:<22} {sum(label in e['reached_by'] for e in functions.values()):>5}")
    loose = [(k, e) for k, e in functions.items() if e["reached_by"] in ([], ["tests"]) and "keep" not in e]
    lines.append(f"{len(loose)} functions reached by nothing but tests, with no keep reason:")
    lines += [f"  {'tests' if e['reached_by'] else 'none '}  {k}" for k, e in loose]
    return lines


def main() -> int:
    """Run every traced suite and rewrite ``reach.json``."""
    work = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        hook = install_hook(work / "hook")
        table = runs(work)
        reached, failed = {}, []
        for label, (_, commands) in table.items():
            out = work / "dumps" / label.replace(":", "-")
            ok, seconds = run_traced(label, commands, hook, out)
            reached[label] = read_dumps(out)
            print(f"{label:<22} {len(reached[label]):>5} functions  {seconds:6.1f} s  {'ok' if ok else 'FAILED'}",
                  flush=True)
            if not ok:
                failed.append(label)
        previous = json.loads(MAP_PATH.read_text(encoding="utf-8")) if MAP_PATH.exists() else {}
        document = build_map(reached, {label: described for label, (described, _) in table.items()}, previous)
        print("\n".join(summary(document)))
        MAP_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {MAP_PATH.relative_to(REPO_ROOT)}" + (f" (failed runs: {failed})" if failed else ""))
        return 1 if failed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
