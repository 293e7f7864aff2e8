#!/usr/bin/env python
"""Docs coverage checks for the repository.

Nine guarantees, all enforced in CI and mirrored by
``tests/test_docs_coverage.py``:

1. every public class in ``repro.apps`` and ``repro.runtime`` is mentioned
   in ``docs/architecture.md`` — adding an application or executor without
   documenting it fails the build;
2. every public class of the measured-autotuning module
   (``repro.autotuner.measured``) is mentioned in ``docs/measured-tuning.md``
   — the profile→train→tune workflow page stays complete;
3. every public class of the serving subsystem (``repro.server``) is
   mentioned in ``docs/serving.md`` — the serving architecture page stays
   complete;
4. every public class of the result-cache package (``repro.cache``) is
   mentioned in ``docs/caching.md`` — the caching page stays complete;
5. every public class of the adaptive-tuning package (``repro.adaptive``)
   is mentioned in ``docs/adaptive.md`` — the online-tuning loop page
   stays complete;
6. every public class of the probabilistic app family (``viterbi.py``,
   ``stochastic_path.py``, ``knapsack.py``) and every public helper of
   ``repro.runtime.compute`` is mentioned in ``docs/apps.md`` — the
   family's recurrence/witness/tolerance reference stays complete;
7. every public class of the execution-policy module
   (``repro.facade.policy``) is mentioned in ``docs/api.md`` — the typed
   override surface stays documented where users plan;
8. every public module, class, function and method under ``src/repro`` has
   a docstring (nested defs and ``_private`` names are exempt);
9. README.md and docs/*.md name no code that is gone: every backticked
   repo-relative path exists, and every backticked ``repro.``-dotted name
   resolves to a module, class, function or attribute under ``src/``.

Run from the repository root (CI does) or anywhere inside it:

    python scripts/check_docs.py

Exits non-zero listing the undocumented items.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
ARCHITECTURE_DOC = REPO_ROOT / "docs" / "architecture.md"
MEASURED_DOC = REPO_ROOT / "docs" / "measured-tuning.md"
SERVING_DOC = REPO_ROOT / "docs" / "serving.md"
CACHING_DOC = REPO_ROOT / "docs" / "caching.md"
ADAPTIVE_DOC = REPO_ROOT / "docs" / "adaptive.md"
#: Packages whose public classes must appear in docs/architecture.md.
PACKAGES = ("apps", "runtime")
#: Module whose public classes must appear in docs/measured-tuning.md.
MEASURED_MODULE = SRC_ROOT / "autotuner" / "measured.py"
#: Package whose public classes must appear in docs/serving.md.
SERVER_PACKAGE = "server"
#: Package whose public classes must appear in docs/caching.md.
CACHE_PACKAGE = "cache"
#: Package whose public classes must appear in docs/adaptive.md.
ADAPTIVE_PACKAGE = "adaptive"
#: The probabilistic app family + shared numerics reference page.
APPS_DOC = REPO_ROOT / "docs" / "apps.md"
#: Modules whose public classes must appear in docs/apps.md.
PROBABILISTIC_MODULES = (
    SRC_ROOT / "apps" / "viterbi.py",
    SRC_ROOT / "apps" / "stochastic_path.py",
    SRC_ROOT / "apps" / "knapsack.py",
)
#: Module whose semiring helpers must appear in docs/apps.md (the rest of
#: its public surface is generic sweep machinery, covered elsewhere).
COMPUTE_MODULE = SRC_ROOT / "runtime" / "compute.py"
SEMIRING_HELPERS = ("logsumexp_pair", "max_product_pair")
#: The session API reference page.
API_DOC = REPO_ROOT / "docs" / "api.md"
#: Module whose public classes must appear in docs/api.md.
POLICY_MODULE = SRC_ROOT / "facade" / "policy.py"
#: Pages whose code references must still resolve.
REFERENCE_DOCS = (REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md")))
#: Top-level directories a backticked repo-relative path starts with.
PATH_ROOTS = ("src", "tests", "scripts", "docs", "bench", "benchmarks", "examples", ".github")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(rf"(?:{'|'.join(re.escape(r) for r in PATH_ROOTS)})/[\w./-]*")
_DOTTED = re.compile(r"repro(?:\.\w+)+")


def public_classes(package: str) -> dict[str, str]:
    """Map of public class name -> defining file for one repro subpackage."""
    classes: dict[str, str] = {}
    for path in sorted((SRC_ROOT / package).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                classes[node.name] = f"src/repro/{package}/{path.name}"
    return classes


def module_classes(path: Path) -> dict[str, str]:
    """Map of public class name -> defining file for one module."""
    rel = path.relative_to(REPO_ROOT)
    return {
        node.name: str(rel)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    }


def module_functions(path: Path) -> dict[str, str]:
    """Map of public top-level function name -> defining file for one module."""
    rel = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name: str(rel)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def check_classes_mentioned(doc_path: Path, classes: dict[str, str]) -> list[str]:
    """Classes not mentioned in ``doc_path``, as printable problem lines."""
    if not doc_path.exists():
        return [f"{doc_path.relative_to(REPO_ROOT)} does not exist"]
    doc = doc_path.read_text(encoding="utf-8")
    return [
        f"{doc_path.relative_to(REPO_ROOT)} does not mention {name}  ({origin})"
        for name, origin in classes.items()
        if name not in doc
    ]


def docstring_gaps(root: Path) -> list[str]:
    """Public defs without docstrings under ``root``, as printable lines.

    Walks module top-levels and the bodies of *public* classes only, so
    nested helper functions and ``_private`` classes are exempt — the same
    rule throughout: if a name is part of the public surface, it needs a
    docstring.
    """
    problems: list[str] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not ast.get_docstring(tree):
            problems.append(f"{rel}: module has no docstring")

        def visit(nodes: list[ast.stmt], prefix: str) -> None:
            for node in nodes:
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    if not ast.get_docstring(node):
                        problems.append(f"{rel}:{node.lineno}: class {prefix}{node.name}")
                    visit(node.body, f"{prefix}{node.name}.")
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not node.name.startswith("_"):
                    if not ast.get_docstring(node):
                        problems.append(f"{rel}:{node.lineno}: def {prefix}{node.name}")

        visit(tree.body, "")
    return problems


def stale_paths(text: str) -> list[str]:
    """Backticked repo-relative paths in ``text`` that do not exist.

    The first word of a code span is a path when it starts with one of
    :data:`PATH_ROOTS`; a ``::test`` suffix is dropped, and spans holding a
    glob or a ``<placeholder>`` are not checked.
    """
    missing = []
    for span in _CODE_SPAN.findall(text):
        word = span.split()[0].split("::")[0]
        match = _PATH.fullmatch(word)
        if match and not any(c in word for c in "*<{") and not (REPO_ROOT / word).exists():
            missing.append(word)
    return missing


def _module_path(parts: list[str]) -> Path | None:
    """The source file of module ``parts`` (``["repro", "cache"]``), or ``None``."""
    base = SRC_ROOT.parent.joinpath(*parts)
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _defines(body: list[ast.stmt], name: str):
    """The statement of ``body`` (or of its if/try blocks) that binds ``name``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
            return node
        if isinstance(node, ast.ImportFrom) and any((a.asname or a.name) == name for a in node.names):
            return node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
        if isinstance(node, (ast.If, ast.Try)):
            nested = _defines(node.body + node.orelse + getattr(node, "finalbody", []), name)
            if nested is not None:
                return nested
    return None


def _resolves(parts: list[str]) -> bool:
    """True when the dotted name ``parts`` names something defined under src/."""
    for cut in range(len(parts), 0, -1):
        path = _module_path(parts[:cut])
        if path is not None:
            break
    else:
        return False
    scope: ast.AST = ast.parse(path.read_text(encoding="utf-8"))
    rest = parts[cut:]
    for index, name in enumerate(rest):
        found = _defines(scope.body, name)
        if found is None and isinstance(scope, ast.ClassDef):
            # An instance attribute: ``self.<name> = ...`` anywhere in the class.
            found = next((
                node for node in ast.walk(scope)
                if isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                and isinstance(node.ctx, ast.Store)
            ), None)
        if isinstance(found, ast.ImportFrom):
            if not (found.module or "").startswith("repro"):
                return True
            alias = next(a for a in found.names if (a.asname or a.name) == name)
            return _resolves([*found.module.split("."), alias.name, *rest[index + 1:]])
        if found is None:
            return False
        if not isinstance(found, ast.ClassDef):
            return index == len(rest) - 1
        scope = found
    return True


def stale_names(text: str) -> list[str]:
    """Backticked ``repro.``-dotted names in ``text`` that no longer resolve."""
    missing = []
    for span in _CODE_SPAN.findall(text):
        for name in _DOTTED.findall(span):
            if not _resolves(name.split(".")):
                missing.append(name)
    return missing


def stale_references() -> list[str]:
    """Rule 9 over every page in :data:`REFERENCE_DOCS`, as printable lines."""
    problems = []
    for doc in REFERENCE_DOCS:
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(REPO_ROOT)
        problems += [f"{rel} names a path that does not exist: {p}" for p in stale_paths(text)]
        problems += [f"{rel} names code that is gone: {n}" for n in stale_names(text)]
    return problems


def main() -> int:
    """Run every check; print problems and return the exit code."""
    problems: list[str] = []
    total_classes = 0
    for package in PACKAGES:
        classes = public_classes(package)
        total_classes += len(classes)
        problems += check_classes_mentioned(ARCHITECTURE_DOC, classes)
    measured = module_classes(MEASURED_MODULE)
    total_classes += len(measured)
    problems += check_classes_mentioned(MEASURED_DOC, measured)
    server = public_classes(SERVER_PACKAGE)
    total_classes += len(server)
    problems += check_classes_mentioned(SERVING_DOC, server)
    cache = public_classes(CACHE_PACKAGE)
    total_classes += len(cache)
    problems += check_classes_mentioned(CACHING_DOC, cache)
    adaptive = public_classes(ADAPTIVE_PACKAGE)
    total_classes += len(adaptive)
    problems += check_classes_mentioned(ADAPTIVE_DOC, adaptive)
    probabilistic: dict[str, str] = {
        name: origin
        for name, origin in module_functions(COMPUTE_MODULE).items()
        if name in SEMIRING_HELPERS
    }
    for module in PROBABILISTIC_MODULES:
        probabilistic.update(module_classes(module))
    total_classes += len(probabilistic)
    problems += check_classes_mentioned(APPS_DOC, probabilistic)
    policy = module_classes(POLICY_MODULE)
    total_classes += len(policy)
    problems += check_classes_mentioned(API_DOC, policy)
    problems += docstring_gaps(SRC_ROOT)
    problems += stale_references()

    if problems:
        print(f"docs check FAILED with {len(problems)} problems:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"docs check OK: {total_classes} public classes documented, "
        f"no public docstring gaps under src/repro, no stale code references"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
