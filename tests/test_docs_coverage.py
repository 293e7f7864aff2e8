"""The docs-coverage and API-surface checks, wired into the test suite.

CI also runs ``scripts/check_docs.py`` and ``scripts/check_api.py``
directly; these tests keep the guarantees local: every public class in
``repro.apps`` and ``repro.runtime`` appears in ``docs/architecture.md``,
every public class of ``repro.autotuner.measured`` appears in
``docs/measured-tuning.md``, every public module/class/function under
``src/repro`` has a docstring, README.md and docs/*.md name no path or
``repro.`` name that is gone — and the exported public API surface
matches the reviewed snapshot in ``scripts/api_surface.json``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        return __import__(name)
    finally:
        sys.path.pop(0)


def test_architecture_doc_covers_all_public_classes():
    assert _load_script("check_docs").main() == 0


def test_public_api_surface_matches_reviewed_snapshot():
    assert _load_script("check_api").main([]) == 0


def test_existing_backticked_path_passes():
    assert _load_script("check_docs").stale_paths("see `tests/runtime/test_vectorized.py::TestEachAppsWalk`") == []


def test_backticked_path_that_is_gone_fails():
    text = "cited in (`tests/property/test_vectorized_properties.py`)"
    assert _load_script("check_docs").stale_paths(text) == ["tests/property/test_vectorized_properties.py"]


def test_dotted_name_that_resolves_passes():
    text = "`repro.session.Session.plan` and `repro.runtime.band.band_counters(plan)`"
    assert _load_script("check_docs").stale_names(text) == []


def test_dotted_name_that_is_gone_fails():
    text = "`repro.ml.crossval` and `repro.session.Session.adopt_tuner`"
    assert _load_script("check_docs").stale_names(text) == ["repro.ml.crossval", "repro.session.Session.adopt_tuner"]


def test_globs_and_placeholders_in_paths_are_not_checked():
    text = "`tests/*/test_gone.py`, `docs/<page>.md` and `src/repro/{a,b}.py`"
    assert _load_script("check_docs").stale_paths(text) == []


def test_only_the_first_word_of_a_span_is_taken_as_a_path():
    text = "`scripts/check_docs.py --strict`, `python tests/gone.py` and `notaroot/gone.py`"
    assert _load_script("check_docs").stale_paths(text) == []


def test_dotted_name_resolves_through_a_package_re_export():
    check_docs = _load_script("check_docs")
    assert check_docs.stale_names("`repro.ThreePhasePlan` and `repro.Session`") == []
    assert check_docs.stale_names("`repro.ThreePhasePlan.phase_of_diagonal`") == ["repro.ThreePhasePlan.phase_of_diagonal"]


def test_dotted_name_resolves_to_an_instance_attribute():
    assert _load_script("check_docs").stale_names("`repro.session.Session.cache_size`") == []


def test_dotted_name_below_a_function_does_not_resolve():
    text = "`repro.session.Session.solve.cache` and `repro.runtime.compute.logsumexp_pair.out`"
    assert _load_script("check_docs").stale_names(text) == [
        "repro.session.Session.solve.cache", "repro.runtime.compute.logsumexp_pair.out",
    ]
