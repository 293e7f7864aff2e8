"""The introspected host's plan is a rule, and the Table 4 systems still learn.

On ``system="local"`` no simulated device changes the program that runs, so
``tuner="learned"`` trains nothing there: every instance plans the preferred
whole-grid engine on one worker with ``cpu_tile=1``, no engine to delegate
to and no prediction.  Both ways the repo builds such a session are checked:
the default ``Session()`` and ``repro serve``'s (``bench/workloads.py``'s
serve construction).  A learned plan on a simulated system is pinned to the
JSON it had when the rule was introduced.
"""

import numpy as np
import pytest

from repro import ExecutionPolicy, Session
from repro.apps.registry import available_applications
from repro.autotuner.protocol import LocalRuleTuner
from repro.core.exceptions import UsageError
from repro.core.parameter_space import ParameterSpace
from repro.facade.tuners import make_tuner
from repro.hardware.platforms import resolve_system
from repro.runtime.registry import engines_with

DIMS = (8, 12, 16, 64, 256, 1024, 2048)
#: Dims whose answers are also checked against the scalar serial engine.
SOLVED_DIMS = (8, 12, 16, 64, 256)

CONSTRUCTIONS = {
    "default": dict,
    "serve": lambda: {"system": "local", "tuner": "learned", "space": ParameterSpace.tiny()},
}


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("app", available_applications())
@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
def test_every_local_plan_is_the_rule(construction, app, dim):
    with Session(**CONSTRUCTIONS[construction]()) as session:
        plan = session.plan(app, dim)
    assert (plan.backend, plan.engine) == (engines_with("serial")[0], None)
    assert (plan.tunables.cpu_tile, plan.workers) == (1, 1)
    assert (plan.tuner, plan.expected_s) == ("rule", None)


@pytest.mark.parametrize("app", available_applications())
@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
def test_rule_answers_equal_the_serial_engines(construction, app):
    serial = ExecutionPolicy(backend="serial")
    with Session(**CONSTRUCTIONS[construction]()) as session:
        for dim in SOLVED_DIMS:
            ruled, reference = session.solve(app, dim), session.solve(app, dim, policy=serial)
            assert ruled.grid.values.tobytes() == reference.grid.values.tobytes(), dim
            if reference.witness is None:
                assert ruled.witness is None
            else:
                assert np.array_equal(ruled.witness, reference.witness), dim


def test_the_rule_plan_serialises_with_no_engine_and_no_prediction():
    with Session() as session:
        payload = session.plan("lcs", 12).to_dict()
    assert payload["backend"] == "vectorized" and payload["engine"] is None
    assert payload["tuner"] == "rule" and payload["expected_s"] is None
    assert payload["tunables"]["cpu_tile"] == 1 and payload["workers"] == 1


def test_learned_on_local_is_the_rule_and_has_no_model():
    local = resolve_system("local")
    assert isinstance(make_tuner("learned", local, space=ParameterSpace.tiny()), LocalRuleTuner)
    with pytest.raises(UsageError, match="no model file"):
        make_tuner("learned", local, model_path="model.json")
    with Session() as session, pytest.raises(UsageError, match="no trainable model"):
        session.save_model("model.json")


#: ``Session(system="i3-540", space=ParameterSpace.tiny()).plan(app, dim)``,
#: recorded before the local rule existed: the learned tuner still answers.
I3_PLANS = {
    ("lcs", 256): (1, 0.033262860288),
    ("nash-equilibrium", 96): (4, 0.027429311409230772),
    ("synthetic", 1024): (1, 0.878374268928),
}


def test_a_simulated_system_still_plans_with_the_learned_tuner():
    with Session(system="i3-540", space=ParameterSpace.tiny()) as session:
        for (app, dim), (cpu_tile, expected_s) in I3_PLANS.items():
            plan = session.plan(app, dim)
            assert (plan.tuner, plan.backend, plan.engine) == ("learned", "hybrid", "vectorized")
            assert (plan.tunables.cpu_tile, plan.tunables.gpu_count, plan.workers) == (
                cpu_tile, 0, 1
            )
            assert plan.expected_s == pytest.approx(expected_s, rel=1e-9)
