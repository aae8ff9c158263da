"""The one number rule: every public entry that reads a number or an array
takes bool, integer and real values (numpy dtype kinds b, i, u and f) and
raises ``ValueError`` naming the argument for anything else. A config field
raises ``ConfigError`` (a ``ValueError``) "<field>: must ...", whose name
here ends in the colon; its integer fields (steps, seeds, model count) take
integers only, no bool, as do the library's integer arguments (steps, seeds,
model counts and step indices). A setting is one number, not a one-entry
array, whether the config or a library entry reads it."""

import math
import re
import sys
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sisid.config import ConfigError, EstimatorSettings, ExperimentConfig, parse_config_text
from sisid.dynamics import NoiseSpec, SisParams, Trajectory, simulate
from sisid.estimators import (
    GrlsState,
    WeightedCostSpec,
    batch_oracle,
    cost_weight,
    ef_rls_step,
    grls_step,
    ie_mmai_init,
)
from sisid.excitation import (
    SIS_REGRESSOR,
    GreedySet,
    build_greedy_set,
    finite_pair,
    finite_scalar,
    greedy_offer,
    is_initially_exciting,
    sliding_fim,
)
from sisid.harness import fim_condition_trace
from sisid.linalg import ConditioningError, condition_number, solve_spd

STATE = GrlsState.initial((1.0, 1.0), SIS_REGRESSOR)
SPEC = dict(alpha=0.94, p0_inv=np.eye(2), theta0=(1.0, 1.0), greedy_indices=frozenset())
EF_RLS = dict(p=np.eye(2), theta=(1.0, 1.0), phi=(0.1, -0.1), y=0.01, alpha=0.94)
TRAJ = simulate(0.01, SisParams(0.8, 0.3), 5)


def _ef_rls(**value):
    args = {**EF_RLS, **value}
    return ef_rls_step((args["p"], args["theta"]), args["phi"], args["y"], args["alpha"])


def _config(kind="grls", *, noise_seed=0, steps=5, x0=0.01, **settings):
    """An ExperimentConfig with one estimator of ``kind``, built from ``settings``."""
    return ExperimentConfig(
        sis=SisParams(0.8, 0.3), x0=x0, steps=steps, noise=NoiseSpec(seed=noise_seed),
        estimators=(EstimatorSettings(kind, **settings),),
    )


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
    "replace.step": (lambda v: replace(STATE, step=v), "step"),
    "replace.greedy_enabled": (lambda v: replace(STATE, greedy_enabled=v), "greedy_enabled"),
    "replace.excitation": (lambda v: replace(STATE, excitation=v), "excitation"),
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
    "GrlsState.initial.alpha": (
        lambda v: GrlsState.initial((1.0, 1.0), SIS_REGRESSOR, v), "alpha"
    ),
    "replace.alpha": (lambda v: replace(STATE, alpha=v), "alpha"),
    "ef_rls_step.alpha": (lambda v: _ef_rls(alpha=v), "alpha"),
    "fim_condition_trace.alpha": (lambda v: fim_condition_trace(TRAJ, SIS_REGRESSOR, v), "alpha"),
    "WeightedCostSpec.alpha": (lambda v: WeightedCostSpec(**{**SPEC, "alpha": v}), "spec.alpha"),
    "SisParams.beta": (lambda v: SisParams(v, 0.3), "beta"),
    "SisParams.gamma": (lambda v: SisParams(0.8, v), "gamma"),
    "NoiseSpec.process_std": (lambda v: NoiseSpec(process_std=v), "process_std"),
    "NoiseSpec.observation_std": (lambda v: NoiseSpec(observation_std=v), "observation_std"),
    "NoiseSpec.bound_nu": (lambda v: NoiseSpec(bound_nu=v), "bound_nu"),
    "ExperimentConfig.steps": (lambda v: _config(steps=v), "steps:"),
    "ExperimentConfig.x0": (lambda v: _config(x0=v), "x0:"),
    "ExperimentConfig.seed": (lambda v: _config(noise_seed=v), "seed:"),
    "ExperimentConfig.grls.alpha": (lambda v: _config(alpha=v), "grls.alpha:"),
    "ExperimentConfig.grls.p0_scale": (lambda v: _config(p0_scale=v), "grls.p0_scale:"),
    "ExperimentConfig.grls.theta0": (lambda v: _config(theta0=v), "grls.theta0:"),
    "ExperimentConfig.ie_mmai.alpha": (lambda v: _config("ie_mmai", alpha=v), "ie_mmai.alpha:"),
    "ExperimentConfig.ie_mmai.theta0": (
        lambda v: _config("ie_mmai", theta0=v), "ie_mmai.theta0:"
    ),
    "ExperimentConfig.ie_mmai.models": (
        lambda v: _config("ie_mmai", models=v), "ie_mmai.models:"
    ),
    "ExperimentConfig.ie_mmai.seed": (lambda v: _config("ie_mmai", seed=v), "ie_mmai.seed:"),
    "ExperimentConfig.ie_mmai.spread": (
        lambda v: _config("ie_mmai", spread=v), "ie_mmai.spread:"
    ),
    "simulate.x0": (lambda v: simulate(v, SisParams(0.8, 0.3), 3), "x0"),
    "simulate.steps": (lambda v: simulate(0.01, SisParams(0.8, 0.3), v), "steps"),
    "simulate.noise.seed": (
        lambda v: simulate(0.01, SisParams(0.8, 0.3), 3, NoiseSpec(seed=v)), "noise.seed"
    ),
    "ie_mmai_init.n_models": (lambda v: ie_mmai_init((1.0, 1.0), v), "n_models"),
    "ie_mmai_init.seed": (lambda v: ie_mmai_init((1.0, 1.0), 3, seed=v), "seed"),
    "sliding_fim.l": (lambda v: sliding_fim(TRAJ, SIS_REGRESSOR, v, 2), "l"),
    "sliding_fim.window": (lambda v: sliding_fim(TRAJ, SIS_REGRESSOR, 1, v), "window"),
    "is_initially_exciting.horizon": (
        lambda v: is_initially_exciting(TRAJ, SIS_REGRESSOR, v, 1e-4), "horizon"
    ),
    "is_initially_exciting.alpha_threshold": (
        lambda v: is_initially_exciting(TRAJ, SIS_REGRESSOR, 4, v), "alpha_threshold"
    ),
    "batch_oracle.k": (
        lambda v: batch_oracle(TRAJ, SIS_REGRESSOR, WeightedCostSpec(**SPEC), v), "k"
    ),
    "cost_weight.i": (lambda v: cost_weight(WeightedCostSpec(**SPEC), v, 4), "i"),
    "cost_weight.k": (lambda v: cost_weight(WeightedCostSpec(**SPEC), 0, v), "k"),
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
    "ie_mmai_init.spread", "ef_rls_step.alpha", "fim_condition_trace.alpha",
    "WeightedCostSpec.alpha", "SisParams.beta", "SisParams.gamma", "NoiseSpec.observation_std",
    "NoiseSpec.bound_nu", "ExperimentConfig.x0", "ExperimentConfig.ie_mmai.alpha",
    "ExperimentConfig.grls.p0_scale", "ExperimentConfig.ie_mmai.spread", "simulate.x0",
    "is_initially_exciting.alpha_threshold",
]
INTEGER_ENTRIES = [
    "ExperimentConfig.steps", "ExperimentConfig.seed", "ExperimentConfig.ie_mmai.models",
    "ExperimentConfig.ie_mmai.seed",
]


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["+10**400", "-10**400"])
@pytest.mark.parametrize(
    "entry", ["finite_scalar", "grls_step.x_k", "grls_step.x_next", "ef_rls_step.y",
              "greedy_offer.y_k"],
)
def test_an_int_beyond_the_float_range_is_not_finite(entry, value):
    # float() would raise OverflowError; read_number reads such an int as an infinity
    call, name = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite, got -?inf$"):
        call(value)


PAIR_ENTRIES = [
    "finite_pair", "GrlsState.initial.theta0", "replace.theta", "ef_rls_step.theta",
    "ef_rls_step.phi", "greedy_offer.phi_k", "WeightedCostSpec.theta0",
    "WeightedCostSpec.from_grls.theta0", "ie_mmai_init.theta0", "ExperimentConfig.grls.theta0",
    "ExperimentConfig.ie_mmai.theta0",
]


@pytest.mark.parametrize("value, shown", [
    ((10**400, 0.0), "(inf, 0.0)"), ([0.0, -10**400], "(0.0, -inf)"), ((1, 10**400), "(1.0, inf)"),
    ((10**400, np.float64(1.0)), "(inf, 1.0)"), ([np.int64(2), -10**400], "(2.0, -inf)"),
], ids=["(+10**400, 0.0)", "[0.0, -10**400]", "(1, +10**400)", "(+10**400, np.float64(1.0))",
        "[np.int64(2), -10**400]"])
@pytest.mark.parametrize("entry", PAIR_ENTRIES)
def test_a_pair_holding_an_int_beyond_the_float_range_is_not_finite(entry, value, shown):
    # each int entry of a tuple or list is read as finite_scalar reads an int
    call, name = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite, got "
                                         f"{re.escape(shown)}$"):
        call(value)


@pytest.mark.parametrize("value", [(2**64, 1), [2**64, 1], (2**64, 1.0), [2**64, np.float64(1.0)]],
                         ids=repr)
def test_a_pair_holding_an_int_beyond_64_bits_is_two_floats(value):
    pair = finite_pair(value, "phi")
    assert pair == (1.8446744073709552e19, 1.0)
    assert all(type(u) is float for u in pair)
    assert tuple(GrlsState.initial(value, SIS_REGRESSOR).theta.tolist()) == pair


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(1), np.float32(0.5)], ids=repr)
@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
def test_numpy_bool_int_and_float_scalars_are_numbers(entry, value):
    ENTRIES[entry][0](value)


@pytest.mark.parametrize("value", [(np.bool_(True), np.int64(2)), np.array([1, 2], np.uint8)])
def test_numpy_pairs_are_two_floats(value):
    assert finite_pair(value, "phi") == (1.0, 2.0)
    assert type(finite_pair(value, "phi")[0]) is float


@pytest.mark.parametrize("value", [np.int64(1), np.uint8(1), 1], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ENTRIES)
def test_config_integer_fields_take_integers(entry, value):
    ENTRIES[entry][0](value)


@pytest.mark.parametrize("value", [True, np.bool_(True), 1.0, 2.5, np.float64(1.0)], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ENTRIES)
def test_config_integer_fields_refuse_bools_and_reals(entry, value):
    call, name = ENTRIES[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("value", [np.array([0.5]), [0.5]], ids=repr)
@pytest.mark.parametrize("entry", ["ExperimentConfig.x0", "ExperimentConfig.grls.alpha"])
def test_config_number_fields_refuse_one_entry_arrays(entry, value):
    call, name = ENTRIES[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be a number, got "):
        call(value)


@pytest.mark.parametrize(
    "build, names",
    [(lambda: SisParams(np.float32(0.5), True), ("beta", "gamma")),
     (lambda: NoiseSpec(1, np.float32(0.5), np.int64(1)),
      ("process_std", "observation_std", "bound_nu")),
     (lambda: WeightedCostSpec(**{**SPEC, "alpha": np.float32(0.5)}), ("alpha",))],
)
def test_numbers_read_are_stored_as_floats(build, names):
    built = build()
    assert all(type(getattr(built, name)) is float for name in names)


# The library's integer arguments: settings (steps, seeds, the model count)
# and step indices. ``build_greedy_set``'s ``upto`` is one too, but None is
# its default, so it is not in ENTRIES.
LIBRARY_INTEGER_ENTRIES = [
    "simulate.steps", "simulate.noise.seed", "ie_mmai_init.n_models", "ie_mmai_init.seed",
    "sliding_fim.l", "sliding_fim.window", "is_initially_exciting.horizon", "batch_oracle.k",
]


def _upto(value):
    return build_greedy_set(TRAJ, SIS_REGRESSOR, upto=value)


@pytest.mark.parametrize("value", [np.int64(1), np.uint8(1), 1], ids=repr)
@pytest.mark.parametrize("call", [ENTRIES[e][0] for e in LIBRARY_INTEGER_ENTRIES] + [_upto],
                         ids=LIBRARY_INTEGER_ENTRIES + ["build_greedy_set.upto"])
def test_library_integer_arguments_take_integers(call, value):
    call(value)


@pytest.mark.parametrize("value", [True, np.bool_(True), 1.0, 2.5, np.float64(1.0)], ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [ENTRIES[e] for e in LIBRARY_INTEGER_ENTRIES] + [(_upto, "upto")],
    ids=LIBRARY_INTEGER_ENTRIES + ["build_greedy_set.upto"],
)
def test_library_integer_arguments_refuse_bools_and_reals(call, name, value):
    # a bool index or count would be read as 0 or 1
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got "):
        call(value)


@pytest.mark.parametrize(
    "value", [v for k, v in NOT_NUMBERS.items() if k != "none"],
    ids=[k for k in NOT_NUMBERS if k != "none"],
)
def test_upto_not_a_number_is_a_value_error(value):
    with pytest.raises(ValueError, match="^upto must "):
        _upto(value)


def test_upto_none_is_every_step():
    assert _upto(None) == _upto(TRAJ.step_count)


# Settings read as one number: a one-entry array is data, not a setting.
SETTING_ENTRIES = [
    "GrlsState.initial.alpha", "GrlsState.initial.p0_scale", "replace.alpha",
    "ef_rls_step.alpha", "fim_condition_trace.alpha", "WeightedCostSpec.alpha",
    "WeightedCostSpec.from_grls.p0_scale", "ie_mmai_init.spread", "simulate.x0",
    "is_initially_exciting.alpha_threshold", "SisParams.beta", "SisParams.gamma",
    "NoiseSpec.process_std", "NoiseSpec.observation_std", "NoiseSpec.bound_nu",
]


@pytest.mark.parametrize("value", [np.array([0.5]), [0.5]], ids=repr)
@pytest.mark.parametrize("entry", SETTING_ENTRIES)
def test_library_settings_refuse_one_entry_arrays(entry, value):
    call, name = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a number, got "):
        call(value)


@pytest.mark.parametrize("x0", [np.True_, np.int64(1), np.float32(0.5), 0.5], ids=repr)
def test_x0_is_read_alike_by_the_config_and_simulate(x0):
    config = _config(x0=x0)
    assert type(config.x0) is float
    params = SisParams(0.8, 0.3)
    assert simulate(x0, params, 3).states.tolist() == simulate(config.x0, params, 3).states.tolist()


@pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1e-4], ids=repr)
def test_ie_threshold_must_be_positive(threshold):
    with pytest.raises(ValueError, match="^alpha_threshold must be positive, got "):
        is_initially_exciting(TRAJ, SIS_REGRESSOR, 4, threshold)


# The rule as one property: every entry above, and two readers that ENTRIES
# leaves out (greedy step indices, a collection, and upto, whose None means
# every step), crossed with every kind of value, returns the type it
# documents or raises a ValueError (ConfigError from a config) that starts
# with the name of what it refused and stays within MESSAGE_LIMIT
# characters; no other exception, and no warning.
MESSAGE_LIMIT = 200
READERS = {
    **ENTRIES,
    "WeightedCostSpec.greedy_indices": (
        lambda v: WeightedCostSpec(**{**SPEC, "greedy_indices": v}), "spec.greedy_indices"
    ),
    "build_greedy_set.upto": (_upto, "upto"),
}


class _HasFloat:
    def __float__(self):
        return 0.5


class _HasIndex:
    def __index__(self):
        return 1


LONGDOUBLE_BEYOND = np.longdouble("1e400")  # beyond the float range (x87 longdouble)
VALUE_KINDS = {
    # bool and int
    "True": True, "0": 0, "1": 1, "2**63": 2**63, "2**64": 2**64, "+10**400": 10**400,
    "-10**400": -10**400, "10**5000": 10**5000,  # the last beyond what str() converts
    # float
    "0.0": 0.0, "-0.0": -0.0, "0.5": 0.5, "subnormal": 5e-324, "+inf": math.inf,
    "-inf": -math.inf, "nan": math.nan,
    # numpy scalars of kinds b, i, u, f and c
    "np.bool_": np.bool_(True), "np.int64": np.int64(1), "np.uint64 max": np.uint64(2**64 - 1),
    "np.float16": np.float16(0.5), "np.float32": np.float32(0.5), "np.float64": np.float64(0.5),
    "np.longdouble": np.longdouble(0.5), "np.longdouble('1e400')": LONGDOUBLE_BEYOND,
    "-np.longdouble('1e400')": -LONGDOUBLE_BEYOND, "np.complex128": np.complex128(1j),
    # arrays
    "0-d": np.array(0.5), "0-d int": np.array(3), "0-d object": np.array(0.5, dtype=object),
    "1-d of 0": np.array([]), "1-d of 1": np.array([0.5]), "1-d of 2": np.array([0.1, 0.2]),
    "1-d of 3": np.array([0.1, 0.2, 0.3]), "2-d": np.eye(2),
    "1-d longdouble": np.array([LONGDOUBLE_BEYOND, 1.0]), "ragged": [1.0, [2.0, 3.0]],
    # tuples and lists that mix these
    "(0.1, -0.1)": (0.1, -0.1), "[1, np.float64(0.5)]": [1, np.float64(0.5)],
    "(np.int64(2), -10**400)": (np.int64(2), -10**400), "('a', 10**400)": ("a", 10**400),
    "(10**400, 1, 1)": (10**400, 1, 1), "[2**64, -1]": [2**64, -1],
    "[np.longdouble('1e400'), 0.0]": [LONGDOUBLE_BEYOND, 0.0],
    # not numbers
    "str": "0.5", "bytes": b"0.5", "None": None, "Fraction": Fraction(1, 2),
    "Decimal": Decimal("0.5"), "complex": 1j, "__float__": _HasFloat(), "__index__": _HasIndex(),
}

# The type each entry returns, by the entry's first word.
RETURNS = {
    "finite_scalar": float, "finite_pair": tuple, "grls_step": GrlsState, "GrlsState": GrlsState,
    "replace": GrlsState, "ef_rls_step": tuple, "greedy_offer": tuple, "condition_number": float,
    "solve_spd": np.ndarray, "Trajectory": Trajectory, "WeightedCostSpec": WeightedCostSpec,
    "ie_mmai_init": tuple, "fim_condition_trace": list, "SisParams": SisParams,
    "NoiseSpec": NoiseSpec, "ExperimentConfig": ExperimentConfig, "simulate": Trajectory,
    "sliding_fim": np.ndarray, "is_initially_exciting": bool, "batch_oracle": np.ndarray,
    "build_greedy_set": GreedySet, "cost_weight": float,
}

# The entries whose docstrings document ConditioningError, by first word.
CONDITIONING = {"grls_step", "ef_rls_step", "solve_spd"}

# A value that fails a documented relation with another argument may be
# refused in the name of that relation, as its docstring (or, for
# from_grls, an example test) says.
RELATED = {
    "Trajectory.states": ("process_noise",),  # one entry per observation
    "NoiseSpec.process_std": ("bound_nu",),  # the share of draws bound_nu keeps
    "sliding_fim.l": ("window",),  # the window [l, l + window]
    "WeightedCostSpec.from_grls.p0_scale": ("spec.p0_inv",),  # I / p0_scale
    "grls_step.x_k": ("x_next - x_k",),  # the observation, whose square must be finite
}


def _allocates(entry, value):
    # simulate allocates its states for the count before stepping
    return entry == "simulate.steps" and isinstance(value, (int, np.integer)) and value > 10**6


def _breach(entry, value):
    """How ``entry`` breaks the rule on ``value``; None when it keeps it."""
    call, name = READERS[entry]
    kind = entry.split(".")[0]
    starts = tuple(f"{n} " for n in (name, *RELATED.get(entry, ())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(value)
        except ConditioningError as exc:
            return None if kind in CONDITIONING else f"ConditioningError: {exc}"
        except ValueError as exc:
            text = str(exc)
            if (isinstance(exc, ConfigError) == (kind == "ExperimentConfig")
                    and text.startswith(starts) and len(text) <= MESSAGE_LIMIT):
                return None
            return f"{type(exc).__name__} of {len(text)} characters: {text[:MESSAGE_LIMIT]}"
        except Exception as exc:  # a warning too, raised by the filter
            return f"{type(exc).__name__}: {str(exc)[:MESSAGE_LIMIT]}"
    if type(result) is not RETURNS[kind]:
        return f"returned a {type(result).__name__}, not a {RETURNS[kind].__name__}"
    return None


def test_every_entry_keeps_the_rule_on_every_kind_of_value():
    breaches = [
        f"{entry}({kind}): {breach}"
        for entry in READERS for kind, value in VALUE_KINDS.items()
        if not _allocates(entry, value) and (breach := _breach(entry, value))
    ]
    assert not breaches, f"{len(breaches)} breaches:\n" + "\n".join(breaches)


# int(float max) is 2**1024 - 2**971; float() of an int overflows from 2**1024 - 2**970 on
_FLOAT_MAX_INT = int(sys.float_info.max)
NEAR_LIMITS = st.one_of(
    st.integers(2**63 - 2**12, 2**63 + 2**12), st.integers(2**64 - 2**12, 2**64 + 2**12),
    st.integers(_FLOAT_MAX_INT - 2**972, _FLOAT_MAX_INT + 2**972),
    st.floats(2.0**63 - 2**12, 2.0**64 + 2**13),
    st.floats(sys.float_info.max / 2, sys.float_info.max),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(magnitude=NEAR_LIMITS, negative=st.booleans())
def test_every_entry_keeps_the_rule_near_the_integer_and_float_limits(magnitude, negative):
    value = -magnitude if negative else magnitude
    breaches = [
        f"{entry}({shown}): {breach}"
        for shown, v in ((repr(value), value), (f"({value!r}, 0.5)", (value, 0.5)))
        for entry in READERS
        if not _allocates(entry, v) and (breach := _breach(entry, v))
    ]
    assert not breaches, f"{len(breaches)} breaches:\n" + "\n".join(breaches)


# Whole calls whose arguments each pass their reader, but not together: states
# whose difference numpy cannot form, regressors that are finite but square past
# the float range, and counts of states that numpy cannot size. Each must be
# refused like a single argument: by a ValueError (a ConfigError from a config)
# within MESSAGE_LIMIT characters, with no warning.
SQUARES_PAST = Trajectory(states=[0.5, 1e100, 0.5], process_noise=[0.0, 0.0])
NEAR_1E77 = Trajectory(states=[1.2e77, 1.2e77 * 1.0000001, 1.2e77 * 1.0000002],
                       process_noise=[0.0, 0.0])
HUGE_PRIOR = WeightedCostSpec(**{**SPEC, "p0_inv": 1e308 * np.eye(2), "theta0": (1e308, 1e308)})
NOISE_OFF = "beta = 0.8\ngamma = 0.3\nx0 = 0.01\nsteps = 5\nnoise = off\nestimators = grls\n"
WHOLE_CALLS = {
    "Trajectory(+inf,+inf)": (
        lambda: Trajectory(states=[math.inf, math.inf], process_noise=[0.0]), ValueError,
        "states contains non-finite entries",
    ),
    "Trajectory(-inf,-inf)": (
        lambda: Trajectory(states=[-math.inf, -math.inf], process_noise=[0.0]), ValueError,
        "states contains non-finite entries",
    ),
    "sliding_fim(1e100)": (
        lambda: sliding_fim(SQUARES_PAST, SIS_REGRESSOR, 0, 2), ValueError,
        "the FIM entries (inf, 1e+300, 1e+200) are not finite from step 1",
    ),
    "is_initially_exciting(1e100)": (
        lambda: is_initially_exciting(SQUARES_PAST, SIS_REGRESSOR, 2, 1e-4), ValueError,
        "the FIM entries (inf, 1e+300, 1e+200) are not finite from step 1",
    ),
    "build_greedy_set(1e100)": (
        lambda: build_greedy_set(SQUARES_PAST, SIS_REGRESSOR), ValueError,
        "the excitation set's FIM entries and right-hand side (inf, ",
    ),
    "batch_oracle(1.2e77)": (
        lambda: batch_oracle(NEAR_1E77, SIS_REGRESSOR, WeightedCostSpec(**SPEC), 1), ValueError,
        "the normal equations over steps 0..1 are not finite",
    ),
    "batch_oracle(p0_inv=1e308*I)": (
        lambda: batch_oracle(TRAJ, SIS_REGRESSOR, HUGE_PRIOR, 0), ValueError,
        "the normal equations over steps 0..0 are not finite",
    ),
    "simulate(steps=2**62)": (
        lambda: simulate(0.01, SisParams(0.8, 0.3), 2**62), ValueError, "steps must be in 1..",
    ),
    "simulate(steps=2**63)": (
        lambda: simulate(0.01, SisParams(0.8, 0.3), 2**63), ValueError, "steps must be in 1..",
    ),
    "ExperimentConfig(steps=2**62)": (
        lambda: _config(steps=2**62), ConfigError, "steps: must be in 1..",
    ),
    # a state reads each field of its excitation set: grls_step reads none of them
    "GrlsState(excitation NaN fim_entries)": (
        lambda: replace(STATE, excitation=GreedySet((0,), (math.nan, 0.0, 0.0), cond="x")),
        ValueError, "excitation fim_entries must be finite",
    ),
    "GrlsState(excitation inf rhs_entries)": (
        lambda: replace(STATE, excitation=GreedySet((0,), rhs_entries=(math.inf, 0.0))),
        ValueError, "excitation rhs_entries must be finite",
    ),
    "GrlsState(excitation two fim_entries)": (
        lambda: replace(STATE, excitation=GreedySet((0,), (1.0, 0.0))), ValueError,
        "excitation fim_entries must be 3 numbers",
    ),
    "GrlsState(excitation indices (1, 0))": (
        lambda: replace(STATE, excitation=GreedySet((1, 0))), ValueError,
        "excitation indices must be strictly increasing",
    ),
    "GrlsState(excitation indices (2, 2))": (
        lambda: replace(STATE, excitation=GreedySet((2, 2))), ValueError,
        "excitation indices must be strictly increasing",
    ),
    "GrlsState(excitation indices (-1,))": (
        lambda: replace(STATE, excitation=GreedySet((-1,))), ValueError,
        "excitation indices must be >= 0",
    ),
    "GrlsState(excitation indices (True,))": (
        lambda: replace(STATE, excitation=GreedySet((True,))), ValueError,
        "excitation indices must be an integer",
    ),
    "GrlsState(excitation indices 3)": (
        lambda: replace(STATE, excitation=GreedySet(3)), ValueError,
        "excitation indices must be a tuple",
    ),
    "GrlsState(excitation indices (0,) at step 0)": (
        lambda: replace(STATE, excitation=GreedySet((0,))), ValueError,
        "excitation indices must be below step 0",
    ),
    "GrlsState(excitation cond 0.5)": (
        lambda: replace(STATE, excitation=GreedySet(cond=0.5)), ValueError,
        "excitation cond must be >= 1 or inf",
    ),
    "GrlsState(excitation cond NaN)": (
        lambda: replace(STATE, excitation=GreedySet(cond=math.nan)), ValueError,
        "excitation cond must be >= 1 or inf",
    ),
    "GrlsState(excitation cond 'x')": (
        lambda: replace(STATE, excitation=GreedySet(cond="x")), ValueError,
        "excitation cond must be a number",
    ),
    "noise=off,seed=-5": (
        lambda: parse_config_text(NOISE_OFF + "seed = -5\n"), ConfigError, "unknown keys: seed",
    ),
    "noise=off,noise.process_std=banana": (
        lambda: parse_config_text(NOISE_OFF + "noise.process_std = banana\n"), ConfigError,
        "unknown keys: noise.process_std",
    ),
}


@pytest.mark.parametrize("call, error, starts", WHOLE_CALLS.values(), ids=WHOLE_CALLS.keys())
def test_every_whole_call_is_refused_by_a_short_value_error_with_no_warning(call, error, starts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            call()
    text = str(refused.value)
    assert type(refused.value) is error and text.startswith(starts), text
    assert len(text) <= MESSAGE_LIMIT, text
