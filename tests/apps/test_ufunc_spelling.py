"""The hot-path spelling rule and the dispatch counts, checked on the source.

Every fused evaluator (a function nested in a kernel's
``make_row_evaluator`` / ``make_diagonal_evaluator``) runs once per grid row
or anti-diagonal, and ``logsumexp_pair`` once per diagonal of the serial
``stochastic-path`` sweep (its fused evaluator spells the log-sum itself).
In all of them:

* no augmented assignment — ``x *= c`` is a ufunc call spelled the slow
  way (``np.multiply(x, c, x)`` is the same call, cheaper to dispatch);
* no ``np.errstate`` — entering and leaving one costs more than an
  ``exp`` over a short diagonal; an invalid case is masked instead.

The evaluators of the diagonal-only kernels (no row evaluator: their sweep
pays one dispatch per ufunc per anti-diagonal, where the saving was
measured) also name every ufunc's output (third positional argument or
``out=``) and take no number literal (constants are 0-d float64 arrays
built once in the factory).  A positional output on ``np.maximum`` /
``np.minimum`` is deprecated by numpy and already an error under
``pytest.ini``'s DeprecationWarning filter.  Their ufunc calls per
anti-diagonal are pinned against :data:`UFUNC_CALLS`: the count does not
depend on the host, so a change to it is the host-independent half of any
claim about these sweeps' speed.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.apps
import repro.runtime.compute

APPS_DIR = Path(repro.apps.__file__).parent
COMPUTE = Path(repro.runtime.compute.__file__)
FACTORIES = ("make_row_evaluator", "make_diagonal_evaluator")
MODULES = sorted(APPS_DIR.glob("*.py")) + [COMPUTE]
#: ``np.*`` ufunc calls per anti-diagonal of each diagonal-only evaluator:
#: (outside the iteration loop, per loop iteration).
UFUNC_CALLS = {
    "nash.py": (5, 5),
    "stochastic_path.py": (9, 0),
    "synthetic.py": (4, 0),
    "matrixchain.py": (6, 0),
}


def functions(tree: ast.AST, names) -> list[ast.FunctionDef]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in names]


def nested(factory: ast.FunctionDef) -> list[ast.FunctionDef]:
    return [
        inner
        for inner in ast.walk(factory)
        if isinstance(inner, ast.FunctionDef) and inner is not factory
    ]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def evaluators(path: Path) -> list[ast.FunctionDef]:
    """Every function nested in an evaluator factory of ``path``."""
    return [inner for factory in functions(parse(path), FACTORIES) for inner in nested(factory)]


def diagonal_only_evaluators(path: Path) -> list[ast.FunctionDef]:
    """The evaluators of kernels in ``path`` that offer no row evaluator."""
    found = []
    for cls in (n for n in ast.walk(parse(path)) if isinstance(n, ast.ClassDef)):
        methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
        if "make_diagonal_evaluator" in methods and "make_row_evaluator" not in methods:
            found += nested(methods["make_diagonal_evaluator"])
    return found


def violations(func: ast.FunctionDef) -> list[str]:
    """Augmented assignments and ``errstate`` uses inside ``func``."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.AugAssign):
            found.append(f"line {node.lineno}: augmented assignment")
        if isinstance(node, ast.Attribute) and node.attr == "errstate":
            found.append(f"line {node.lineno}: np.errstate")
    return found


def ufunc_calls(node: ast.AST) -> list[tuple[ast.Call, np.ufunc]]:
    """Every ``np.<ufunc>(...)`` call inside ``node``."""
    return [
        (call, getattr(np, call.func.attr))
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "np"
        and isinstance(getattr(np, call.func.attr, None), np.ufunc)
    ]


def ufunc_counts(func: ast.FunctionDef) -> tuple[int, int]:
    """``func``'s ufunc calls outside its one loop, and per loop iteration."""
    loops = [node for node in ast.walk(func) if isinstance(node, (ast.For, ast.While))]
    assert len(loops) <= 1, f"{func.name}: nested or sequential loops"
    inside = len(ufunc_calls(loops[0])) if loops else 0
    return len(ufunc_calls(func)) - inside, inside


def slow_ufunc_calls(func: ast.FunctionDef) -> list[str]:
    """``np.<ufunc>(...)`` calls inside ``func`` without an output or with a number literal."""
    found = []
    for node, ufunc in ufunc_calls(func):
        if len(node.args) <= ufunc.nin and not any(k.arg == "out" for k in node.keywords):
            found.append(f"line {node.lineno}: np.{node.func.attr} without an output")
        if any(isinstance(getattr(a, "operand", a), ast.Constant) for a in node.args):
            found.append(f"line {node.lineno}: np.{node.func.attr} with a number literal")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_evaluators_use_no_augmented_assignment_and_no_errstate(path):
    bad = [f"{path.name}:{f.name} {v}" for f in evaluators(path) for v in violations(f)]
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_diagonal_only_evaluators_name_every_output_and_take_no_literal(path):
    bad = [
        f"{path.name}:{f.name} {v}"
        for f in diagonal_only_evaluators(path)
        for v in slow_ufunc_calls(f)
    ]
    assert not bad, "\n".join(bad)


def test_diagonal_only_evaluators_make_the_pinned_ufunc_calls():
    counts = {
        path.name: [ufunc_counts(f) for f in diagonal_only_evaluators(path)]
        for path in MODULES
        if diagonal_only_evaluators(path)
    }
    assert counts == {name: [calls] for name, calls in UFUNC_CALLS.items()}


def test_logsumexp_pair_has_no_errstate_and_no_augmented_assignment():
    (func,) = functions(parse(COMPUTE), ("logsumexp_pair",))
    assert not violations(func)


def test_the_guard_sees_every_fused_evaluator():
    """Not vacuous: each factory that builds a closure is inspected."""
    per_module = {path.name: len(evaluators(path)) for path in MODULES}
    assert sum(per_module.values()) >= 12, per_module
    diagonal_only = {path.name for path in MODULES if diagonal_only_evaluators(path)}
    assert diagonal_only == {"nash.py", "stochastic_path.py", "synthetic.py", "matrixchain.py"}


def test_the_guard_catches_each_rule():
    source = (
        "def make_diagonal_evaluator(self, dim, boundary):\n"
        "    def evaluate(out, s):\n"
        "        out *= 0.5\n"
        "        with np.errstate(invalid='ignore'):\n"
        "            np.add(out, 1.0)\n"
        "        np.multiply(out, -1.0, out)\n"
        "    return evaluate\n"
    )
    (factory,) = functions(ast.parse(source), FACTORIES)
    (inner,) = nested(factory)
    assert len(violations(inner)) == 2
    assert len(slow_ufunc_calls(inner)) == 3
    assert ufunc_counts(inner) == (2, 0)


def test_the_counter_splits_a_loop_from_its_surroundings():
    source = (
        "def make_diagonal_evaluator(self, dim, boundary):\n"
        "    def evaluate(out, s):\n"
        "        np.add(out, s, out)\n"
        "        for _ in iters:\n"
        "            np.tanh(out, s)\n"
        "            np.multiply(s, c, s)\n"
        "        out.fill(0.0)\n"
        "        np.arange(3)\n"
        "    return evaluate\n"
    )
    (factory,) = functions(ast.parse(source), FACTORIES)
    (inner,) = nested(factory)
    assert ufunc_counts(inner) == (1, 2)
