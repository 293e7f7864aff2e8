"""The serving process does not load the figure-analysis stack or scipy.

``python -m repro serve`` enters through :mod:`repro.cli`.  Serving uses
neither the Figure 5-8 analysis modules nor scipy, and importing them would
cost most of the process's start-up time and memory.  The subprocess test
replays the ``serve`` verb's construction path in a fresh interpreter and
checks which modules it loaded.  It asserts module sets only, never a
wall-clock time, so a slow host cannot make it flake.
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
    import json, sys, threading, urllib.request

    import repro.cli
    from repro.core.parameter_space import ParameterSpace
    from repro.server import ReproServer, ServerConfig, ServingEndpoint
    from repro.session import Session

    session = Session(system="local", tuner="learned", space=ParameterSpace.tiny())
    session.tuner
    server = ReproServer(session, ServerConfig(), own_session=True)
    endpoint = ServingEndpoint(server, port=0)
    thread = threading.Thread(target=endpoint.serve_forever, daemon=True)
    thread.start()
    try:
        request = urllib.request.Request(
            endpoint.url + "/solve",
            data=json.dumps({"app": "lcs", "dim": 16}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            assert response.status == 200, response.status
    finally:
        endpoint.begin_shutdown()
        thread.join(timeout=30)
        server.close()
    print(json.dumps(sorted(sys.modules)))
    """
)


def _forbidden(name: str) -> bool:
    return name == "scipy" or name.startswith(("scipy.", "repro.analysis"))


def test_serve_construction_path_loads_no_analysis_or_scipy():
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


def _imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_under_src_imports_scipy():
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if "scipy" in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
