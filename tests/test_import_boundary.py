"""The serving process loads neither the paper's training stack, its pricing nor scipy.

``python -m repro serve`` enters through :mod:`repro.cli`.  Serving uses
neither the Figure 5-8 analysis modules nor scipy, and on its default
``local`` system it plans by rule, so the learned tuner's training modules
(``repro.ml``, the sweep, the training set, the model files) have nothing
to do there either.  A functional run is measured, never priced, so the
cost model, its calibration and the measured tuner stay unloaded too; no
runtime module imports the cost model at all.  The subprocess test runs the ``serve`` verb itself in
a fresh interpreter, answers one ``/solve``, shuts it down and checks which
modules it loaded.  A second fresh interpreter imports only
:mod:`repro.cli` and :mod:`repro.server` and checks that no HTTP client
(``urllib.request``, ``http.client``, ``ssl``) came with them: the load
client is ``scripts/loadgen.py``, outside the package.  Both assert module
sets only, never a wall-clock time, so a slow host cannot make them flake.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

_SERVE_PATH = textwrap.dedent(
    """
    import json, os, sys, tempfile, threading, time, urllib.request

    import repro.cli

    ready = os.path.join(tempfile.mkdtemp(), "serve.addr")
    codes = []
    thread = threading.Thread(
        target=lambda: codes.append(
            repro.cli.main(["serve", "--port", "0", "--ready-file", ready])
        ),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 120
    while not os.path.exists(ready) and time.monotonic() < deadline:
        time.sleep(0.02)
    url = "http://" + open(ready).read().strip()
    request = urllib.request.Request(
        url + "/solve",
        data=json.dumps({"app": "lcs", "dim": 16}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        assert response.status == 200, response.status
    urllib.request.urlopen(urllib.request.Request(url + "/shutdown", method="POST"), timeout=30)
    thread.join(timeout=60)
    assert codes == [0], codes
    print(json.dumps(sorted(sys.modules)))
    """
)

#: Modules that exist only to train the learned tuner or to re-rank plans.
TRAINING_ONLY = {
    "repro.ml",
    *(f"repro.autotuner.{name}" for name in (
        "tuner", "models", "training", "exhaustive", "baselines", "persistence",
        "search_space",
    )),
    "repro.adaptive.shadow",
}

#: The simulated clock: simulate mode and the tuners price plans with it.
PRICING_ONLY = {"repro.hardware.costmodel", "repro.hardware.calibration", "repro.autotuner.measured"}


def _forbidden(name: str) -> bool:
    return (
        name == "scipy"
        or name.startswith(("scipy.", "repro.analysis", "repro.ml."))
        or name in TRAINING_ONLY
        or name in PRICING_ONLY
    )


def test_serve_construction_path_loads_no_training_pricing_analysis_or_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    process = subprocess.run(
        [sys.executable, "-c", _SERVE_PATH],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    modules = json.loads(process.stdout.strip().splitlines()[-1])
    assert "repro.server.http" in modules  # the path really ran
    assert [m for m in modules if _forbidden(m)] == []


#: The HTTP client stack: the load client outside ``src/`` needs it, serving does not.
HTTP_CLIENT = ("urllib.request", "http.client", "ssl")


def test_serving_process_loads_no_http_client():
    # The serve-path test above imports urllib.request itself, so it cannot
    # carry this check: this interpreter imports the serving modules only.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    process = subprocess.run(
        [
            sys.executable, "-c",
            "import json, sys; import repro.cli, repro.server; "
            "print(json.dumps(sorted(sys.modules)))",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    modules = set(json.loads(process.stdout.strip().splitlines()[-1]))
    assert "repro.server.http" in modules
    assert [name for name in HTTP_CLIENT if name in modules] == []


def _imported_modules(tree: ast.AST) -> set[str]:
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def _imported_roots(tree: ast.AST) -> set[str]:
    return {name.split(".")[0] for name in _imported_modules(tree)}


def test_no_module_under_src_imports_scipy():
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if "scipy" in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_no_runtime_module_imports_the_cost_model():
    runtime = sorted((SRC / "repro" / "runtime").rglob("*.py"))
    assert len(runtime) > 10
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in runtime
        if "repro.hardware.costmodel"
        in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
