"""Resolution of tuner strategy specifications into protocol instances.

The session accepts ``tuner="learned" | "measured" | "exhaustive"`` (or any
ready-made :class:`repro.autotuner.protocol.Tuner`); this module is the one
place those strings are interpreted, so the CLI, the session and the
examples cannot drift apart on what a strategy name means:

* ``"learned"`` — on a Table 4 system,
  :class:`repro.autotuner.tuner.AutoTuner`, trained on the cost-model
  synthetic sweep at construction (or restored from a saved model file
  without retraining); on the introspected ``local`` host, whose plan no
  simulated device changes, :class:`repro.autotuner.protocol.LocalRuleTuner`
  (no training, no model, and ``space`` has no effect);
* ``"measured"`` — :class:`repro.autotuner.measured.MeasuredTuner`, loaded
  from the profile ``repro profile`` writes (it has no model file);
* ``"exhaustive"`` — :class:`repro.autotuner.protocol.ExhaustiveTuner`,
  the per-instance sweep needing no training.
"""

from __future__ import annotations

from pathlib import Path

from repro.autotuner.protocol import ExhaustiveTuner, LocalRuleTuner, Tuner
from repro.core.exceptions import ArtifactError, UsageError
from repro.core.parameter_space import ParameterSpace
from repro.hardware.system import LOCAL_SYSTEM_NAME, SystemSpec

#: Strategy names :func:`make_tuner` understands.
TUNER_KINDS = ("learned", "measured", "exhaustive")

#: Where ``repro profile`` writes the measured profile ``"measured"`` loads by
#: default, and its report; relative to the working directory (see
#: ``docs/artifacts.md`` for the naming scheme).
DEFAULT_PROFILE_PATH = Path("benchmarks") / "results" / "local_profile.json"
DEFAULT_REPORT_PATH = Path("benchmarks") / "results" / "local_profile_report.txt"


def make_tuner(
    spec: str,
    system: SystemSpec,
    space: ParameterSpace | None = None,
    model_path: str | Path | None = None,
    profile_path: str | Path | None = None,
) -> Tuner:
    """Build the tuner behind one strategy name (a session keeps a ready tuner as given).

    ``model_path`` restores a previously saved ``"learned"`` model, skipping
    the training sweep; ``profile_path`` overrides the ``"measured"``
    profile's default location.  Raises
    :class:`~repro.core.exceptions.UsageError` for an unknown strategy name
    or a ``model_path`` given to a model-less strategy (``"measured"``, or
    ``"learned"`` on the ``local`` host), and
    :class:`~repro.core.exceptions.ArtifactError` when a required artifact
    is missing or unusable.
    """
    if not isinstance(spec, str):
        raise UsageError(
            f"tuner must be a strategy name {TUNER_KINDS} or a Tuner instance, "
            f"got {type(spec).__name__}"
        )
    if spec == "learned":
        if system.name != LOCAL_SYSTEM_NAME:
            return _make_learned(system, space, model_path)
        if model_path is not None:
            raise UsageError(
                f"the learned tuner on {LOCAL_SYSTEM_NAME!r} has no model file: it plans by rule"
            )
        return LocalRuleTuner()
    if spec == "measured":
        if model_path is not None:
            raise UsageError(
                "the measured tuner has no model file: it plans from its profile alone"
            )
        return _make_measured(profile_path)
    if spec == "exhaustive":
        return ExhaustiveTuner(system, space)
    raise UsageError(
        f"unknown tuner strategy {spec!r}; choose from {', '.join(TUNER_KINDS)}"
    )


def _make_learned(system: SystemSpec, space: ParameterSpace | None, model_path: str | Path | None):
    """The ``"learned"`` strategy on a Table 4 system: train (or restore) an AutoTuner."""
    from repro.autotuner.persistence import load_tuner
    from repro.autotuner.tuner import AutoTuner

    tuner = AutoTuner(system, space=space)
    if model_path is not None:
        try:
            tuner.model = load_tuner(model_path)
        except FileNotFoundError as exc:
            raise ArtifactError(f"saved tuner model not found: {exc.filename}") from None
    else:
        tuner.train()
    return tuner


def _make_measured(profile_path: str | Path | None):
    """The ``"measured"`` strategy: load the profile and rank its engines."""
    from repro.autotuner.measured import MeasuredTuner, load_profile

    try:
        return MeasuredTuner(
            load_profile(profile_path if profile_path is not None else DEFAULT_PROFILE_PATH)
        )
    except FileNotFoundError as exc:
        raise ArtifactError(
            f"missing measured profile ({exc.filename}); run 'repro profile' first"
        ) from None
