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
   Table 4 system ("in the factory"), then hand it previously unseen
   applications and get tuned parameter settings back.

On the introspected ``local`` host no simulated device changes the program
that runs, so nothing is trained there:
:class:`~repro.autotuner.protocol.LocalRuleTuner` answers by rule, and
:class:`~repro.autotuner.measured.MeasuredTuner` ranks measured engines.

Every deployable strategy speaks the common
:class:`~repro.autotuner.protocol.Tuner` protocol
(``resolve(app, params) -> PlanDecision``), which is all
:class:`repro.session.Session` consumes.

The package re-exports nothing: import from the submodule that defines a
name, so loading the protocol (or the rule) never loads the training
stack.
"""
