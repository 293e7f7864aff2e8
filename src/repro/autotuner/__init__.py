"""Autotuning framework.

The workflow mirrors Figure 4 of the paper:

1. :class:`repro.autotuner.exhaustive.ExhaustiveSearch` sweeps the synthetic
   application over the Table 3 parameter space on one platform and records
   the runtime of every configuration (with the 90-second threshold);
2. :class:`repro.autotuner.training.TrainingSetBuilder` samples instances and
   keeps the best five configurations of each, producing the training set;
3. :class:`repro.autotuner.models.LearnedTuner` holds the fitted SVM gate and
   the per-parameter M5P / REP-tree models;
4. :class:`repro.autotuner.tuner.AutoTuner` ties it together: train once per
   system ("in the factory"), then hand it previously unseen applications and
   get tuned parameter settings back.

Every deployable strategy — :class:`~repro.autotuner.tuner.AutoTuner`,
:class:`~repro.autotuner.measured.MeasuredTuner` and
:class:`~repro.autotuner.protocol.ExhaustiveTuner` — speaks the common
:class:`~repro.autotuner.protocol.Tuner` protocol
(``resolve(app, params) -> PlanDecision``), which is all
:class:`repro.session.Session` consumes.
"""

from repro.autotuner.protocol import ExhaustiveTuner, PlanDecision, Tuner
from repro.autotuner.search_space import SearchSpace
from repro.autotuner.exhaustive import ExhaustiveSearch, SearchRecord, SearchResults
from repro.autotuner.baselines import SimpleSchemes, simple_scheme_times
from repro.autotuner.training import TrainingSetBuilder, TrainingSet
from repro.autotuner.models import LearnedTuner
from repro.autotuner.tuner import AutoTuner
from repro.autotuner.persistence import save_tuner, load_tuner
from repro.autotuner.measured import (
    MeasuredProfile,
    MeasuredRecord,
    MeasuredTuner,
    ProfileConfig,
    load_profile,
    profile_host,
    save_profile,
)

__all__ = [
    "Tuner",
    "PlanDecision",
    "ExhaustiveTuner",
    "SearchSpace",
    "ExhaustiveSearch",
    "SearchRecord",
    "SearchResults",
    "SimpleSchemes",
    "simple_scheme_times",
    "TrainingSetBuilder",
    "TrainingSet",
    "LearnedTuner",
    "AutoTuner",
    "save_tuner",
    "load_tuner",
    "MeasuredProfile",
    "MeasuredRecord",
    "MeasuredTuner",
    "ProfileConfig",
    "load_profile",
    "profile_host",
    "save_profile",
]
