"""The one number rule: every public entry that reads a number or an array
takes bool, integer and real values (numpy dtype kinds b, i, u and f) and
raises ``ValueError`` naming the argument for anything else."""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from sisid.dynamics import Trajectory
from sisid.estimators import (
    GrlsState,
    WeightedCostSpec,
    ef_rls_step,
    grls_step,
    ie_mmai_init,
)
from sisid.excitation import SIS_REGRESSOR, GreedySet, finite_pair, finite_scalar, greedy_offer
from sisid.linalg import condition_number, solve_spd

STATE = GrlsState.initial((1.0, 1.0), SIS_REGRESSOR)
SPEC = dict(alpha=0.94, p0_inv=np.eye(2), theta0=(1.0, 1.0), greedy_indices=frozenset())
EF_RLS = dict(p=np.eye(2), theta=(1.0, 1.0), phi=(0.1, -0.1), y=0.01)


def _ef_rls(**value):
    args = {**EF_RLS, **value}
    return ef_rls_step((args["p"], args["theta"]), args["phi"], args["y"], 0.94)


# entry -> (a call reading the value as one argument, the name its error gives)
ENTRIES = {
    "finite_scalar": (lambda v: finite_scalar(v, "x"), "x"),
    "finite_pair": (lambda v: finite_pair(v, "phi"), "phi"),
    "grls_step.x_k": (lambda v: grls_step(STATE, v, 0.1), "x_k"),
    "grls_step.x_next": (lambda v: grls_step(STATE, 0.1, v), "x_next"),
    "GrlsState.initial.theta0": (lambda v: GrlsState.initial(v, SIS_REGRESSOR), "theta0"),
    "GrlsState.initial.p0_scale": (
        lambda v: GrlsState.initial((1.0, 1.0), SIS_REGRESSOR, p0_scale=v), "p0_scale"
    ),
    "replace.P": (lambda v: replace(STATE, P=v), "state P"),
    "replace.theta": (lambda v: replace(STATE, theta=v), "state theta"),
    "ef_rls_step.P": (lambda v: _ef_rls(p=v), "state P"),
    "ef_rls_step.theta": (lambda v: _ef_rls(theta=v), "state theta"),
    "ef_rls_step.phi": (lambda v: _ef_rls(phi=v), "phi"),
    "ef_rls_step.y": (lambda v: _ef_rls(y=v), "y"),
    "greedy_offer.phi_k": (lambda v: greedy_offer(GreedySet(), v, 0.01, 0), "phi_k"),
    "greedy_offer.y_k": (lambda v: greedy_offer(GreedySet(), (0.1, -0.1), v, 0), "y_k"),
    "condition_number": (condition_number, "matrix"),
    "solve_spd.a": (lambda v: solve_spd(v, np.ones(2)), "a"),
    "solve_spd.b": (lambda v: solve_spd(np.eye(2), v), "b"),
    "Trajectory.states": (lambda v: Trajectory(states=v, process_noise=[0.0]), "states"),
    "Trajectory.process_noise": (
        lambda v: Trajectory(states=[0.1, 0.2], process_noise=v), "process_noise"
    ),
    "WeightedCostSpec.p0_inv": (lambda v: WeightedCostSpec(**{**SPEC, "p0_inv": v}), "spec.p0_inv"),
    "WeightedCostSpec.theta0": (lambda v: WeightedCostSpec(**{**SPEC, "theta0": v}), "spec.theta0"),
    "WeightedCostSpec.from_grls.p0_scale": (
        lambda v: WeightedCostSpec.from_grls(STATE, v, (1.0, 1.0)), "p0_scale"
    ),
    "WeightedCostSpec.from_grls.theta0": (
        lambda v: WeightedCostSpec.from_grls(STATE, 100.0, v), "spec.theta0"
    ),
    "ie_mmai_init.theta0": (lambda v: ie_mmai_init(v, 3), "theta0"),
    "ie_mmai_init.spread": (lambda v: ie_mmai_init((1.0, 1.0), 3, v), "spread"),
}

NOT_NUMBERS = {
    "string": "0.5",
    "strings": ["1", "1"],
    "none": None,
    "complex": 1j,
    "fraction": Fraction(1, 2),
    "ragged": [1.0, [2.0, 3.0]],
}


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("entry", ENTRIES)
def test_not_a_number_is_a_value_error_naming_the_argument(entry, value):
    call, name = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        call(value)


SCALAR_ENTRIES = [
    "finite_scalar", "grls_step.x_k", "grls_step.x_next", "GrlsState.initial.p0_scale",
    "ef_rls_step.y", "greedy_offer.y_k", "WeightedCostSpec.from_grls.p0_scale",
    "ie_mmai_init.spread",
]


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(1), np.float32(0.5)], ids=repr)
@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
def test_numpy_bool_int_and_float_scalars_are_numbers(entry, value):
    ENTRIES[entry][0](value)


@pytest.mark.parametrize("value", [(np.bool_(True), np.int64(2)), np.array([1, 2], np.uint8)])
def test_numpy_pairs_are_two_floats(value):
    assert finite_pair(value, "phi") == (1.0, 2.0)
    assert type(finite_pair(value, "phi")[0]) is float
