import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sisid.config import bundled_config_path, load_config

from sisid.dynamics import NoiseSpec, SisParams, simulate
from sisid.estimators import (
    MAX_IE_MMAI_MODELS,
    GrlsState,
    WeightedCostSpec,
    _finite_row,
    _rls_update,
    batch_oracle,
    cost_weight,
    ef_rls_step,
    grls_step,
    ie_mmai_init,
    ie_mmai_kernel,
    ie_mmai_selected,
    pure_gd_kernel,
    run_grls,
)
from sisid.excitation import (
    SIS_REGRESSOR, GreedySet, _offer_floats, _pair_reader, sis_regressor, sis_regressor_pair,
)
from sisid.linalg import ConditioningError, finite_scalar, sym2, sym2_array, sym2_spectrum

from _oracles import (
    dense_inverse,
    listed_batch_oracle,
    per_model_ie_mmai_init,
    random_spd,
    sis_phi_rows,
    weighted_normal_solution,
)

FIG1 = SisParams(beta=0.12, gamma=0.04)
FIG3 = SisParams(beta=0.8076, gamma=0.2692)
THETA0 = np.array([1.0, 1.0])


def drive_ef_rls(traj, theta0, alpha, p0_scale):
    p = p0_scale * np.eye(2)
    theta = np.asarray(theta0, dtype=float)
    history = []
    for k in range(traj.step_count):
        p, theta = ef_rls_step(
            (p, theta), sis_regressor(traj.states[k]), traj.observations[k], alpha
        )
        history.append((p, theta))
    return history


def min_eigenvalue(p):
    return sym2_spectrum(*sym2(p))[0]


def covariance_step(p, alpha, fim=None, phi=(0.0, 0.0)):
    """P' of one ``_rls_update`` from P's entries ``p``: the refresh goes
    through a set holding the FIM entries ``fim`` (none without them), and the
    datum ``phi`` (a zero regressor, which leaves Q as it is, by default),
    which the set did not accept, enters by the Sherman-Morrison step."""
    p_next, _ = _rls_update(p, (0.0, 0.0), fim, (0.0, 0.0), phi, 0.0, alpha, False)
    return sym2_array(p_next)


def dense_covariance(p, alpha, fim, phi):
    """inv(alpha P^-1 + (1 - alpha) F + phi^T phi) through explicit inverses."""
    phi = np.reshape(phi, (1, 2))
    return dense_inverse(alpha * dense_inverse(p) + (1.0 - alpha) * fim + phi.T @ phi)


class TestCovarianceUpdate:
    """The covariance part of ``_rls_update``, which gives
    (alpha P^-1 + (1 - alpha) F + phi^T phi)^-1 without inverting P, against
    explicit inverses for updates of rank 0, 1 and 2."""

    def test_no_data_reduces_to_scaling(self):
        # rank 0: no set, a zero regressor
        out = covariance_step((1.0, 0.0, 1.0), 0.5)
        assert np.array_equal(out, 2.0 * np.eye(2))

    def test_single_row_against_direct_inverse(self):
        # rank 1, alpha = 1: the result must equal inv(I + e1 e1^T)
        out = covariance_step((1.0, 0.0, 1.0), 1.0, phi=(1.0, 0.0))
        expected = dense_inverse(np.eye(2) + np.outer([1.0, 0.0], [1.0, 0.0]))
        assert np.allclose(out, expected, atol=1e-14)
        assert np.allclose(out, np.diag([0.5, 1.0]))

    def test_set_refresh_against_dense_inverse(self):
        # rank 2 refresh by a three-row set, then with one more datum on top
        rng = np.random.default_rng(5)
        p = random_spd(rng, 2)
        block = rng.standard_normal((3, 2))
        fim = block.T @ block
        alpha = 0.9
        for phi in (np.zeros(2), rng.standard_normal(2)):
            out = covariance_step(sym2(p), alpha, sym2(fim), tuple(phi.tolist()))
            expected = dense_covariance(p, alpha, fim, phi)
            assert np.linalg.norm(out - expected) / np.linalg.norm(expected) < 1e-10

    def test_inverse_identity_property(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_spd(rng, 2)
            block = rng.standard_normal((int(rng.integers(0, 11)), 2))
            fim = block.T @ block
            phi = rng.standard_normal(2) if rng.random() < 0.5 else np.zeros(2)
            alpha = float(rng.uniform(0.2, 0.99))
            out = covariance_step(
                sym2(p), alpha, sym2(fim) if len(block) else None, tuple(phi.tolist())
            )
            prod = out @ (alpha * dense_inverse(p) + (1.0 - alpha) * fim + np.outer(phi, phi))
            assert np.linalg.norm(prod - np.eye(2)) < 1e-8

    def test_result_is_symmetric(self):
        rng = np.random.default_rng(7)
        p = random_spd(rng, 2)
        out, _ = ef_rls_step((p, np.zeros(2)), rng.standard_normal((1, 2)), [0.3], 0.7)
        assert np.array_equal(out, out.T)

    def test_alpha_out_of_range_rejected(self):
        for alpha in (0.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                ef_rls_step((np.eye(2), np.zeros(2)), [[1.0, 0.0]], [0.0], alpha)

    def test_indefinite_inner_matrix_raises_conditioning_error(self):
        p = (1.0, 2.0, 1.0)  # indefinite on purpose: alpha + phi P phi^T = -1
        with pytest.raises(ConditioningError, match="wound up"):
            covariance_step(p, 1.0, phi=(1.0, -1.0))
        with pytest.raises(ConditioningError, match="wound up"):
            ef_rls_step((sym2_array(p), np.zeros(2)), [[1.0, -1.0]], [0.0], 1.0)

    def test_overflowing_refresh_raises_conditioning_error(self):
        # det(P) = 1e400 overflows in the refresh of the datum that joins the set
        gset, accepted = _offer_floats(GreedySet(), (1.0, 0.0), 0.0, 0)
        assert accepted
        with pytest.raises(ConditioningError, match="non-finite P'"):
            _rls_update((1e200, 0.0, 1e200), (0.0, 0.0), gset.fim_entries, gset.rhs_entries,
                        (1.0, 0.0), 0.0, 0.5, accepted)


class TestPureGd:
    def test_zero_residual_is_fixed_point(self):
        x = 0.25
        y = (1.0 - x) * FIG3.beta * x - FIG3.gamma * x
        theta = (FIG3.beta, FIG3.gamma)
        assert pure_gd_kernel(theta, sis_regressor_pair(x), y) == theta

    def test_zero_regressor_is_fixed_point(self):
        theta = (0.3, 0.7)
        assert pure_gd_kernel(theta, sis_regressor_pair(0.0), 0.5) == theta

    def test_hand_evaluated_step(self):
        # r = 0.000788 - (0.0099*0.05 - 0.01*0.07) = 0.000993
        # theta' = [0.05 + 0.0099*r, 0.07 - 0.01*r]
        theta = pure_gd_kernel((0.05, 0.07), sis_regressor_pair(0.01), 0.000788)
        assert theta[0] == pytest.approx(0.05 + 0.0099 * 0.000993, abs=1e-12)
        assert theta[1] == pytest.approx(0.07 - 0.01 * 0.000993, abs=1e-12)

    def test_converges_to_ratio_class_not_parameters(self):
        traj = simulate(0.01, FIG1, 5000)
        theta = (0.05, 0.07)
        for x, y in zip(traj.states[:-1].tolist(), traj.observations.tolist()):
            theta = pure_gd_kernel(theta, sis_regressor_pair(x), y)
        theta = np.array(theta)
        ratio_err = abs(theta[0] / theta[1] - FIG1.reproduction_number())
        rel_err = np.max(np.abs(theta - FIG1.as_vector()) / FIG1.as_vector())
        assert ratio_err < 0.05
        assert rel_err > 0.2


class TestEfRls:
    def test_zero_residual_leaves_estimate(self):
        x = 0.25
        y = (1.0 - x) * FIG3.beta * x - FIG3.gamma * x
        p, theta = ef_rls_step(
            (10.0 * np.eye(2), FIG3.as_vector()), sis_regressor(x), [y], 0.94
        )
        assert np.allclose(theta, FIG3.as_vector(), atol=1e-15)
        assert not np.allclose(p, 10.0 * np.eye(2))  # covariance still contracts

    def test_repeated_datum_converges_to_least_squares(self):
        # alpha = 1 is plain RLS: at every k the iterate equals the batch
        # least-squares solution over the k copies of the datum plus prior
        phi = sis_regressor(0.4)
        y = np.array([0.05])
        p0 = 100.0
        p = p0 * np.eye(2)
        theta0 = np.array([0.2, 0.9])
        theta = theta0.copy()
        residual0 = abs(y[0] - (phi @ theta0).item())
        for k in range(1, 1001):
            p, theta = ef_rls_step((p, theta), phi, y, 1.0)
            if k in (1, 10, 100, 1000):
                rows = np.repeat(phi, k, axis=0)
                expected = weighted_normal_solution(
                    rows, np.repeat(y, k), np.ones(k), np.eye(2) / p0, theta0
                )
                assert np.allclose(theta, expected, atol=1e-10)
        # residual decays toward the constrained solution as data pile up
        assert abs(y[0] - (phi @ theta).item()) < residual0 / 1e4
        # update direction is confined to span(phi^T)
        move = theta - theta0
        assert abs(move[0] * phi[0, 1] - move[1] * phi[0, 0]) < 1e-10

    def test_matches_batch_solution_with_empty_excitation_set(self):
        traj = simulate(0.01, FIG3, 120)
        alpha, p0 = 0.94, 100.0
        history = drive_ef_rls(traj, THETA0, alpha, p0)
        spec = WeightedCostSpec(
            alpha=alpha, p0_inv=np.eye(2) / p0, theta0=THETA0, greedy_indices=frozenset()
        )
        for k in (0, 5, 30, 119):
            oracle = batch_oracle(traj, SIS_REGRESSOR, spec, k)
            assert np.linalg.norm(history[k][1] - oracle) < 1e-8

    def test_noise_free_convergence(self):
        # plateau error scales with the prior weight; p0 = 1000 puts it below 1e-2
        traj = simulate(0.01, FIG3, 500)
        history = drive_ef_rls(traj, THETA0, 0.94, 1000.0)
        theta = history[-1][1]
        assert np.max(np.abs(theta - FIG3.as_vector()) / FIG3.as_vector()) < 1e-2

    def test_covariance_stays_positive_definite(self):
        traj = simulate(0.01, FIG3, 300, NoiseSpec(seed=1))
        for p, _ in drive_ef_rls(traj, THETA0, 0.94, 100.0):
            assert min_eigenvalue(p) > 0

    def test_non_finite_theta_fails_the_step(self):
        # P' is finite (1e300 - 1e200 rounds to 1e300), but theta'_1 = 1 + 1e300 * 1e100 is not
        with pytest.raises(ConditioningError, match="theta'"):
            ef_rls_step((1e300 * np.eye(2), THETA0), [[1e-200, 0.0]], 1e300, 1.0)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda phi, y: pure_gd_kernel((1.0, 1.0), phi, y),
        lambda phi, y: ie_mmai_kernel(ie_mmai_init((1.0, 1.0), 3), phi, y),
    ],
    ids=["pure_gd", "ie_mmai"],
)
def test_gradient_kernels_fail_on_a_non_finite_estimate(kernel):
    # theta'_1 = 1 + 1e200 * (1e300 - 1e200) overflows, as _rls_update's theta' would
    with pytest.raises(ConditioningError, match="theta'"):
        kernel((1e200, 0.0), 1e300)


class TestGrls:
    def test_first_datum_enters_excitation_set(self):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        state = grls_step(state, 0.01, 0.0153)
        assert state.excitation.indices == (0,)
        assert state.step == 1

    def test_zero_state_datum_is_not_collected(self):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        state = grls_step(state, 0.0, 0.0)
        assert state.excitation.size == 0
        assert np.allclose(state.theta, THETA0)

    @pytest.mark.parametrize("greedy_enabled", [True, False])
    def test_initial_equals_the_checked_constructor(self, greedy_enabled):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR, 0.9, 7.5, greedy_enabled)
        built = GrlsState(7.5 * np.eye(2), THETA0, GreedySet(), 0.9, SIS_REGRESSOR, 0,
                          greedy_enabled)
        assert state == built
        assert hash(state) == hash(built)

    def test_a_state_keeps_its_excitation_set_as_ints_and_floats(self):
        # a set built by hand, of numpy numbers, equals the set of Python numbers it reads as
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        gset = GreedySet([np.int64(0), 3], np.array([1.0, 0.5, 2.0]), (np.float64(0.1), 0.2), 3)
        read = dataclasses.replace(state, step=4, excitation=gset).excitation
        assert read == GreedySet((0, 3), (1.0, 0.5, 2.0), (0.1, 0.2), 3.0)
        assert list(map(type, (*read.indices, *read.fim_entries, *read.rhs_entries, read.cond))) \
            == [int] * 2 + [float] * 6
        stepped = grls_step(dataclasses.replace(state, step=4, excitation=gset), 0.1, 0.12)
        assert stepped.excitation.indices == (0, 3, 4)

    @pytest.mark.parametrize("step", [0, 3])
    def test_a_set_index_at_or_past_the_step_is_refused(self, step):
        # a state at step k has offered steps 0..k-1; stepped, this set would
        # grow to (0, 3, k), which no state reads
        state = GrlsState.initial((1.0, 1.0), SIS_REGRESSOR)
        gset = GreedySet((0, 3), (1.0, 0.5, 2.0), (0.1, 0.2), 3.0)
        with pytest.raises(ValueError, match=r"^excitation indices must be below step "):
            grls_step(dataclasses.replace(state, step=step, excitation=gset), 0.1, 0.12)
        stepped = grls_step(dataclasses.replace(state, step=4, excitation=gset), 0.1, 0.12)
        assert stepped.excitation.indices == (0, 3, 4)

    def test_alpha_must_be_strictly_below_one(self):
        with pytest.raises(ValueError):
            GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=1.0)

    def test_unit_alpha_with_the_set_enabled_is_rejected(self):
        # the refresh weight 1 - alpha would be 0: accepted points would enter nowhere
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        with pytest.raises(ValueError, match="alpha"):
            dataclasses.replace(state, alpha=1.0)

    def test_unit_alpha_with_the_set_disabled_is_ef_rls(self):
        traj = simulate(0.01, FIG3, 300, NoiseSpec(seed=1))
        state = GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=1.0, greedy_enabled=False)
        grls_states = run_grls(state, traj)
        rls_history = drive_ef_rls(traj, THETA0, 1.0, 100.0)
        for gs, (p, theta) in zip(grls_states, rls_history, strict=True):
            assert np.array_equal(gs.theta, theta)
            assert np.array_equal(gs.P, p)

    @pytest.mark.parametrize("noise", [None, NoiseSpec(seed=8)])
    def test_matches_batch_oracle_at_every_step(self, noise):
        traj = simulate(0.01, FIG3, 150, noise)
        state = GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=0.94, p0_scale=100.0)
        for k in range(traj.step_count):
            state = grls_step(state, traj.states[k], traj.states[k + 1])
            spec = WeightedCostSpec.from_grls(state, 100.0, THETA0)
            oracle = batch_oracle(traj, SIS_REGRESSOR, spec, k)
            rel = np.linalg.norm(state.theta - oracle) / np.linalg.norm(oracle)
            assert rel < 1e-6

    def test_acceptance_concentrates_in_transient(self):
        traj = simulate(0.01, FIG3, 1000)
        states = run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), traj)
        indices = states[-1].excitation.indices
        assert len(indices) > 4
        assert max(indices) < 50  # equilibrium points are rejected

    def test_covariance_stays_positive_definite(self):
        traj = simulate(0.01, FIG3, 300, NoiseSpec(seed=2))
        for state in run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), traj):
            assert min_eigenvalue(state.P) > 0

    def test_disabled_excitation_set_reproduces_ef_rls(self):
        traj = simulate(0.01, FIG3, 200, NoiseSpec(seed=3))
        grls_states = run_grls(
            GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=0.94, p0_scale=100.0,
                              greedy_enabled=False),
            traj,
        )
        rls_history = drive_ef_rls(traj, THETA0, 0.94, 100.0)
        for gs, (p, theta) in zip(grls_states, rls_history):
            assert np.linalg.norm(gs.theta - theta) < 1e-10
            assert np.linalg.norm(gs.P - p) < 1e-10
        assert grls_states[-1].excitation.size == 0

    @pytest.mark.parametrize("field", ["P", "theta"])
    def test_writing_into_a_read_array_leaves_the_state_unchanged(self, field):
        traj = simulate(0.01, FIG3, 30, NoiseSpec(seed=5))
        state = run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), traj)[-1]
        before = grls_step(state, 0.5, 0.52)
        getattr(state, field)[...] = 1e3
        after = grls_step(state, 0.5, 0.52)
        assert after.P.tobytes() == before.P.tobytes()
        assert after.theta.tobytes() == before.theta.tobytes()
        assert after.excitation == before.excitation

    def test_states_compare_and_hash_by_value(self):
        traj = simulate(0.01, FIG3, 30, NoiseSpec(seed=5))
        a = run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), traj)[-1]
        b = run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), traj)[-1]
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert dataclasses.replace(a) == a
        assert grls_step(a, 0.5, 0.52) != a  # one step on
        p = a.P
        p[0, 0] = np.nextafter(p[0, 0], np.inf)
        assert dataclasses.replace(a, P=p) != a  # one P entry apart
        assert len({a, dataclasses.replace(a, P=p)}) == 2
        assert a != (a._P, a._theta)

    def test_stepped_states_equal_their_checked_copies(self):
        # grls_step builds each state from the kernel's floats without __init__'s
        # checks; dataclasses.replace runs them, and its copy must match bitwise
        traj = simulate(0.01, FIG3, 2000, NoiseSpec(1e-3, 1e-3, 5e-3, seed=2))
        for state in run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), traj):
            copy = dataclasses.replace(state)
            assert state == copy and hash(state) == hash(copy)
            assert list(state.__dict__) == list(copy.__dict__)
            types = [type(v) for v in state.__dict__.values()]
            assert types == [type(v) for v in copy.__dict__.values()]
            assert state.P.tobytes() == copy.P.tobytes()
            assert state.theta.tobytes() == copy.theta.tobytes()

    @pytest.mark.parametrize(
        "p", [(1.0, 0.0, 1.0), (1, 0, Fraction(1, 2)), ("1", "0", "1")],
        ids=["entries", "fraction", "strings"],
    )
    def test_p_enters_only_as_a_2x2_array(self, p):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        with pytest.raises(ValueError, match="^state P must "):
            dataclasses.replace(state, P=p)

    def test_deterministic_given_seed(self):
        noise = NoiseSpec(seed=4)
        a = run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), simulate(0.01, FIG3, 100, noise))
        b = run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), simulate(0.01, FIG3, 100, noise))
        assert np.array_equal(a[-1].theta, b[-1].theta)
        assert a[-1].excitation.indices == b[-1].excitation.indices

    def test_a_zero_refresh_denominator_raises_conditioning_error(self):
        # a constant state: every offer of its one regressor is accepted, P loses
        # positive definiteness, and at step 47 the refresh's denominator is 0.0
        state = GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=0.5)
        for _ in range(47):
            state = grls_step(state, 0.25, 0.25)
        assert len(state.excitation.indices) == 47
        with pytest.raises(ConditioningError, match=r"alpha\^2 = 0\.0$"):
            grls_step(state, 0.25, 0.25)


def checked_step(state, x_k, x_next):
    """``grls_step`` by its checked route: each input read by its reader, the
    offer and the update, and the next state built by the checking constructor."""
    x_k, x_next = finite_scalar(x_k, "x_k"), finite_scalar(x_next, "x_next")
    y = x_next - x_k
    if not math.isfinite(y * y):
        raise ValueError(f"x_next - x_k must have a finite square, got {x_next!r} - {x_k!r}")
    phi = _finite_row(_pair_reader(state.regressor)(x_k), "regressor")
    gset, accepted = state.excitation, False
    if state.greedy_enabled:
        gset, accepted = _offer_floats(gset, phi, y, state.step)
    fim = gset.fim_entries if gset.indices else None
    p, theta = _rls_update(state._P, state._theta, fim, gset.rhs_entries, phi, y, state.alpha,
                           accepted)
    return GrlsState(sym2_array(p), theta, gset, state.alpha, state.regressor, state.step + 1,
                     state.greedy_enabled)


def outcome(step, state, x_k, x_next):
    """The state ``step`` returns, or the type and message of what it raises."""
    try:
        return step(state, x_k, x_next)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def field_types(state):
    return [type(v) for v in state.__dict__.values()] + [type(v) for v in state._P + state._theta]


# regressors other than SIS_REGRESSOR, each reading x as the SIS regressor does
REGRESSORS = {
    "tuple": sis_regressor_pair,
    "list": lambda x: list(sis_regressor_pair(x)),
    "array": lambda x: np.array([sis_regressor_pair(x)]),
    "float64 pair": lambda x: tuple(map(np.float64, sis_regressor_pair(x))),
}
# the stepped states: 40 steps of a noisy fig3 run, with the set on and off
STEPPED = {
    greedy: run_grls(
        GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=0.94, greedy_enabled=greedy),
        simulate(0.01, FIG3, 40, NoiseSpec(1e-3, 1e-3, 5e-3, seed=2)),
    )[-1]
    for greedy in (True, False)
}


def as_kind(kind, x):
    """``x`` as a Python float, ``np.float64``, int, bool, 0-d or 1-entry array."""
    return {
        "float": float, "float64": np.float64, "int": round, "bool": lambda v: v > 0.5,
        "0-d": np.array, "1-entry": lambda v: np.array([v]),
    }[kind](x)


KINDS = ["float", "float64", "int", "bool", "0-d", "1-entry"]


class TestStepReadsTheTransitionOnce:
    """``grls_step`` checks two floats stepped by SIS_REGRESSOR at once; every
    input must step exactly as the checked route does, or fail as it does."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        x_k=st.floats(-3.0, 3.0), x_next=st.floats(-3.0, 3.0),
        kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
        regressor=st.sampled_from(["SIS_REGRESSOR", *REGRESSORS]),
        greedy=st.booleans(), initial=st.booleans(),
    )
    def test_the_step_equals_the_checked_route(
        self, x_k, x_next, kinds, regressor, greedy, initial
    ):
        state = STEPPED[greedy]
        if initial:
            state = GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=0.9, greedy_enabled=greedy)
        if regressor != "SIS_REGRESSOR":
            state = dataclasses.replace(state, regressor=REGRESSORS[regressor])
        x_k, x_next = as_kind(kinds[0], x_k), as_kind(kinds[1], x_next)
        stepped = outcome(grls_step, state, x_k, x_next)
        checked = outcome(checked_step, state, x_k, x_next)
        assert stepped == checked
        if isinstance(stepped, GrlsState):
            assert list(stepped.__dict__) == list(checked.__dict__)
            assert field_types(stepped) == field_types(checked)
            assert hash(stepped) == hash(checked)

    @pytest.mark.parametrize(
        "x_k,x_next,regressor,error,message",
        [
            (math.nan, 0.1, None, ValueError, "x_k must be finite, got nan"),
            (math.inf, 0.1, None, ValueError, "x_k must be finite, got inf"),
            (np.float64(-math.inf), 0.1, None, ValueError, "x_k must be finite, got -inf"),
            (0.1, math.nan, None, ValueError, "x_next must be finite, got nan"),
            (0.1, np.float64(math.inf), None, ValueError, "x_next must be finite, got inf"),
            (0.1, -math.inf, None, ValueError, "x_next must be finite, got -inf"),
            (math.nan, math.inf, None, ValueError, "x_k must be finite, got nan"),
            (-1.7e308, 1.7e308, None, ValueError,
             "x_next - x_k must have a finite square, got 1.7e+308 - -1.7e+308"),
            (0.5, 1.7e308, None, ValueError,
             "x_next - x_k must have a finite square, got 1.7e+308 - 0.5"),
            (1e100, 1e100, None, ValueError,
             "regressor must have a finite u1^2 + u2^2, got (-1e+200, -1e+100)"),
            (0.1, 0.11, lambda x: (math.nan, -x), ValueError,
             "regressor must be finite, got (nan, -0.1)"),
            (0.1, 0.11, lambda x: (1e200, 0.0), ValueError,
             "regressor must have a finite u1^2 + u2^2, got (1e+200, 0.0)"),
            # y^2, u1^2 and u2^2 are each finite, their sum is not: every check passes
            (1e77, 1e154, None, ConditioningError,
             "the covariance update gave non-finite P' = (nan, nan, nan)"),
        ],
    )
    def test_a_failing_transition_raises_as_before(self, x_k, x_next, regressor, error, message):
        state = GrlsState.initial(THETA0, regressor or SIS_REGRESSOR)
        with pytest.raises(error) as raised:
            grls_step(state, x_k, x_next)
        assert type(raised.value) is error and str(raised.value) == message

    @pytest.mark.parametrize("kind", ["float", "float64"])
    def test_the_step_makes_no_numpy_call(self, kind, monkeypatch):
        traj = simulate(0.01, FIG3, 1000, NoiseSpec(1e-3, 1e-3, 5e-3, seed=2))
        xs = [as_kind(kind, x) for x in traj.states.tolist()]
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)

        def refuse(*args, **kwargs):
            raise AssertionError("grls_step called numpy")

        monkeypatch.setattr(np, "asarray", refuse)
        monkeypatch.setattr(np, "array", refuse)
        for k in range(1000):
            state = grls_step(state, xs[k], xs[k + 1])
        assert state.step == 1000


# sha256 of theta after each of 20,000 grls_step calls on a noisy fig3
# trajectory, then the final P, theta and excitation set, recorded before the
# eigenvalue form, the condition rule and the covariance step were folded into
# one function each. The final state alone would miss a change in the last
# bit of the refresh, which the recursion forgets again within the run.
LONG_RUN_SHA256 = "5b8a5be2c4fbdb48a2a38ac29bd3726f27e8b7510621f8a1926bc416abd4e912"


def test_twenty_thousand_steps_are_pinned_bitwise():
    traj = simulate(0.01, FIG3, 20_000, NoiseSpec(1e-3, 1e-3, 5e-3, seed=2))
    state = GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=0.94, p0_scale=100.0)
    xs = traj.states
    thetas = []
    for k in range(traj.step_count):
        state = grls_step(state, xs[k], xs[k + 1])
        thetas.append(state._theta)
    ex = state.excitation
    text = repr((thetas, state.P.tolist(), state.theta.tolist(), ex.indices, ex.fim_entries,
                 ex.rhs_entries, ex.cond))
    assert hashlib.sha256(text.encode()).hexdigest() == LONG_RUN_SHA256


# Accepted indices of GRLS on the bundled fig3 configs, as recorded when
# condition numbers still came from an SVD and P from a Cholesky-based
# inversion lemma. The closed-form kernel must not move a single one.
FIG3_ACCEPTED = tuple(range(15)) + (16,)


@pytest.mark.parametrize("name", ["fig3_noisefree", "fig3_noisy"])
def test_bundled_fig3_accepted_indices_are_pinned(name):
    config = load_config(bundled_config_path(name))
    grls = next(e for e in config.estimators if e.kind == "grls")
    traj = simulate(config.x0, config.sis, config.steps, config.noise)
    state = GrlsState.initial(
        grls.theta0, SIS_REGRESSOR, alpha=grls.alpha, p0_scale=grls.p0_scale
    )
    final = run_grls(state, traj)[-1]
    assert final.excitation.indices == FIG3_ACCEPTED


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    beta=st.floats(0.3, 0.9),
    gamma_ratio=st.floats(0.1, 0.7),
    x0=st.floats(0.005, 0.05),
    alpha=st.floats(0.85, 0.98),
    noise_seed=st.one_of(st.none(), st.integers(0, 2**31)),
)
def test_recursion_matches_batch_oracle_and_kappa_never_rises(
    beta, gamma_ratio, x0, alpha, noise_seed
):
    noise = None if noise_seed is None else NoiseSpec(seed=noise_seed)
    traj = simulate(x0, SisParams(beta=beta, gamma=gamma_ratio * beta), 120, noise)
    state = GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=alpha, p0_scale=100.0)
    conds = []
    for k in range(traj.step_count):
        before = state.excitation.size
        state = grls_step(state, traj.states[k], traj.states[k + 1])
        if state.excitation.size > before:
            conds.append(state.excitation.cond)
        spec = WeightedCostSpec.from_grls(state, 100.0, THETA0)
        oracle = batch_oracle(traj, SIS_REGRESSOR, spec, k)
        assert np.linalg.norm(state.theta - oracle) < 1e-6 * np.linalg.norm(oracle)
    assert all(b <= a for a, b in zip(conds, conds[1:]))


class TestNonFiniteInput:
    """Every array entry point rejects NaN/inf with ValueError naming the argument."""

    @pytest.mark.parametrize(
        "x_k,x_next,name",
        [
            (math.nan, 0.1, "x_k"), (0.1, math.inf, "x_next"), (-math.inf, 0.1, "x_k"),
            # finite inputs whose observation x_next - x_k has no finite square
            (-1.3e154, 1.7e308, "x_next"), (0.5, 1.7e308, "x_next"), (-1.7e308, 1.7e308, "x_next"),
            # a finite observation and a finite regressor whose u1^2 + u2^2 overflows
            (-1.3e154, -1.3e154, "regressor"), (1e78, 1e78, "regressor"),
            (1e100, 1e100, "regressor"),
        ],
    )
    def test_grls_step(self, x_k, x_next, name):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        with pytest.raises(ValueError, match=name):
            grls_step(state, x_k, x_next)

    def test_grls_step_below_the_excitation_set_limit(self):
        state = grls_step(GrlsState.initial((1, 1), SIS_REGRESSOR), 1e51, 1e51)
        assert np.isfinite(state.P).all() and np.isfinite(state.theta).all()

    @pytest.mark.parametrize("x", [1e52, 1e77])
    def test_grls_step_overflows_the_excitation_set_from_1e52(self, x):
        # the set's refresh holds u1^4 (e h - f f, det(P) det(G)), so it overflows
        # below the regressor rule's 1.16e77, which applies from 1e78
        state = GrlsState.initial((1, 1), SIS_REGRESSOR)
        with pytest.raises(ConditioningError, match="non-finite P'"):
            grls_step(state, x, x)

    def test_grls_step_custom_regressor(self):
        state = GrlsState.initial(THETA0, lambda x: np.array([[math.nan, -x]]))
        with pytest.raises(ValueError, match="regressor"):
            grls_step(state, 0.1, 0.11)

    @pytest.mark.parametrize("field", ["P", "theta"])
    def test_grls_step_non_finite_state(self, field):
        # the state is checked when it is built, so the step never sees it
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        with pytest.raises(ValueError, match=f"state {field}"):
            dataclasses.replace(state, **{field: np.full_like(getattr(state, field), math.nan)})

    def test_grls_initial_state(self):
        with pytest.raises(ValueError, match="theta0"):
            GrlsState.initial([math.nan, 1.0], SIS_REGRESSOR)
        with pytest.raises(ValueError, match="p0_scale"):
            GrlsState.initial(THETA0, SIS_REGRESSOR, p0_scale=math.inf)
        with pytest.raises(ValueError, match=r"theta0 has shape \(3,\)"):
            GrlsState.initial([1.0, 1.0, 1.0], SIS_REGRESSOR)
        for p0_scale in (0.0, -1.0):
            with pytest.raises(ValueError, match="p0_scale must be positive"):
                GrlsState.initial(THETA0, SIS_REGRESSOR, p0_scale=p0_scale)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (1, 2)])
    def test_grls_step_wrong_shape_p(self, shape):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        with pytest.raises(ValueError, match=r"state P must be a 2x2 array"):
            dataclasses.replace(state, P=np.ones(shape))

    @pytest.mark.parametrize(
        "p,theta,phi,y,name",
        [
            (np.diag([math.nan, 1.0]), THETA0, [[0.1, -0.1]], [0.01], "P"),
            (np.eye(2), [1.0, math.inf], [[0.1, -0.1]], [0.01], "theta"),
            (np.eye(2), THETA0, [[math.nan, -0.1]], [0.01], "phi"),
            (np.eye(2), THETA0, [[0.1, -0.1]], [math.nan], "y"),
            (np.ones(2), THETA0, [[0.1, -0.1]], [0.01], "state P must be a 2x2 array"),
            (np.eye(3), THETA0, [[0.1, -0.1]], [0.01], "state P must be a 2x2 array"),
            (np.eye(2), THETA0, [[0.1, -0.1]], [0.01, 0.02], "y must be a scalar"),
            # finite entries whose u1^2 + u2^2 overflows
            (100.0 * np.eye(2), THETA0, (1e200, 0.0), 0.0, "phi"),
        ],
    )
    def test_ef_rls_step(self, p, theta, phi, y, name):
        with pytest.raises(ValueError, match=name):
            ef_rls_step((p, np.asarray(theta)), phi, y, 0.94)

    @pytest.mark.parametrize(
        "field,value",
        [("p0_inv", np.diag([0.01, math.nan])), ("theta0", np.array([1.0, math.inf]))],
    )
    def test_batch_oracle(self, field, value):
        traj = simulate(0.01, FIG3, 10)
        spec = WeightedCostSpec(
            alpha=0.94, p0_inv=0.01 * np.eye(2), theta0=THETA0, greedy_indices=frozenset()
        )
        with pytest.raises(ValueError, match=f"spec.{field}"):
            batch_oracle(traj, SIS_REGRESSOR, dataclasses.replace(spec, **{field: value}), 5)


class TestWeights:
    def make_spec(self, greedy=(), alpha=0.94):
        return WeightedCostSpec(
            alpha=alpha, p0_inv=0.01 * np.eye(2), theta0=THETA0,
            greedy_indices=frozenset(greedy),
        )

    def test_geometric_sum_matches_closed_form(self):
        spec = self.make_spec(greedy=[10])
        k, i = 210, 10
        direct = (1.0 - 0.94) * sum(0.94 ** (k - l) for l in range(i, k + 1))
        w = cost_weight(spec, i, k)
        assert w == pytest.approx(direct, abs=1e-12)
        assert w == pytest.approx(1.0 - 0.94 ** 201, abs=1e-15)

    def test_current_point_weight(self):
        spec = self.make_spec()
        assert cost_weight(spec, 7, 7) == 1.0

    def test_old_unexciting_points_fade(self):
        spec = self.make_spec()
        assert cost_weight(spec, 0, 500) < 1e-13

    def test_weights_lie_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(1, 400))
            greedy = frozenset(rng.choice(k + 1, size=min(5, k), replace=False).tolist())
            spec = self.make_spec(greedy=greedy)
            for i in sorted(greedy) + [0, k]:
                w = cost_weight(spec, i, k)
                assert 0.0 < w <= 1.0

    def test_future_point_rejected(self):
        spec = self.make_spec()
        with pytest.raises(ValueError):
            cost_weight(spec, 5, 4)

    def test_negative_point_rejected(self):
        # alpha ** (k - i) would weigh the point as if it were k - i steps old
        spec = self.make_spec()
        with pytest.raises(ValueError, match="i=-3"):
            cost_weight(spec, -3, 5)

    @pytest.mark.parametrize("i, k, name", [
        (2.5, 10, "i"), (True, 10, "i"), ("a", 10, "i"), (2.0, 10, "i"),
        (2, 10.0, "k"), (2, True, "k"), (2, "a", "k"),
    ])
    def test_a_point_or_step_that_is_not_an_integer_is_rejected(self, i, k, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            cost_weight(self.make_spec(greedy=[2]), i, k)

    def test_greedy_indices_are_kept_as_ints(self):
        spec = self.make_spec(greedy=[np.int64(2)])
        assert spec.greedy_indices == {2}
        assert [type(i) for i in spec.greedy_indices] == [int]
        assert cost_weight(spec, 2, 10) == 1.0 - 0.94 ** 9


class TestBatchOracle:
    @pytest.mark.parametrize("alpha", [math.nan, -0.5, 0.0, 1.5])
    def test_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="spec.alpha"):
            WeightedCostSpec(
                alpha=alpha, p0_inv=np.eye(2), theta0=THETA0, greedy_indices=frozenset()
            )

    def test_strong_prior_pins_initial_guess(self):
        traj = simulate(0.01, FIG3, 5)
        spec = WeightedCostSpec(
            alpha=0.94, p0_inv=1e12 * np.eye(2), theta0=THETA0, greedy_indices=frozenset()
        )
        theta = batch_oracle(traj, SIS_REGRESSOR, spec, 0)
        assert np.allclose(theta, THETA0, atol=1e-9)

    def test_unit_alpha_reduces_to_ordinary_least_squares(self):
        traj = simulate(0.01, FIG3, 60, NoiseSpec(seed=5))
        p0 = 100.0
        spec = WeightedCostSpec(
            alpha=1.0, p0_inv=np.eye(2) / p0, theta0=THETA0, greedy_indices=frozenset()
        )
        k = 59
        theta = batch_oracle(traj, SIS_REGRESSOR, spec, k)
        rows = sis_phi_rows(traj.states[: k + 1])
        expected = weighted_normal_solution(
            rows, traj.observations[: k + 1], np.ones(k + 1), np.eye(2) / p0, THETA0
        )
        assert np.allclose(theta, expected, atol=1e-12)

    def test_weights_match_scalar_definition(self):
        traj = simulate(0.01, FIG3, 40, NoiseSpec(seed=6))
        spec = WeightedCostSpec(
            alpha=0.9, p0_inv=0.01 * np.eye(2), theta0=THETA0,
            greedy_indices=frozenset({0, 3, 7}),
        )
        k = 39
        rows = sis_phi_rows(traj.states[: k + 1])
        weights = np.array([cost_weight(spec, i, k) for i in range(k + 1)])
        expected = weighted_normal_solution(
            rows,
            traj.observations[: k + 1],
            weights,
            spec.alpha ** (k + 1) * spec.p0_inv,
            THETA0,
        )
        assert np.allclose(batch_oracle(traj, SIS_REGRESSOR, spec, k), expected, atol=1e-12)

    def test_out_of_range_step(self):
        traj = simulate(0.01, FIG3, 10)
        spec = WeightedCostSpec(
            alpha=0.94, p0_inv=np.eye(2), theta0=THETA0, greedy_indices=frozenset()
        )
        for k in (-1, 10):
            with pytest.raises(ValueError, match="out of range"):
                batch_oracle(traj, SIS_REGRESSOR, spec, k)
        # greedy indices beyond k are rejected
        bad = WeightedCostSpec(
            alpha=0.94, p0_inv=np.eye(2), theta0=THETA0, greedy_indices=frozenset({9})
        )
        with pytest.raises(ValueError):
            batch_oracle(traj, SIS_REGRESSOR, bad, 5)

    @pytest.mark.parametrize("greedy", [False, True], ids=["plain", "greedy"])
    @pytest.mark.parametrize("name", ["fig3_noisefree", "fig3_noisy"])
    def test_streamed_rows_equal_a_listed_solve(self, name, greedy):
        # the rows are filled in place, not stacked from a list: every bit stays
        config = load_config(bundled_config_path(name))
        grls = next(e for e in config.estimators if e.kind == "grls")
        traj = simulate(config.x0, config.sis, config.steps, config.noise)
        for k in (0, 1, 249, 1999):
            spec = WeightedCostSpec(
                alpha=grls.alpha,
                p0_inv=np.eye(2) / grls.p0_scale,
                theta0=np.asarray(grls.theta0),
                greedy_indices=frozenset(i for i in FIG3_ACCEPTED if greedy and i <= k),
            )
            outcomes = []
            for solve in (batch_oracle, listed_batch_oracle):
                try:
                    outcomes.append(solve(traj, SIS_REGRESSOR, spec, k).tobytes())
                except ConditioningError as exc:  # noise-free at k = 1999 without the set
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "indices",
        [frozenset(s) for s in ({-1}, {0, 3, -2}, {2.5}, {True}, {"a"}, {2.0})]
        + [5, None, "12", b"12"],
    )
    def test_negative_greedy_index_rejected(self, indices):
        # numpy would read -1 as the last point and reweight a real one, and
        # truncate 2.5 to step 2, which cost_weight would not weigh as a member;
        # a lone number is no collection, and "12" is not steps 1 and 2
        with pytest.raises(ValueError, match="spec.greedy_indices"):
            WeightedCostSpec(
                alpha=0.94, p0_inv=np.eye(2), theta0=THETA0, greedy_indices=indices
            )


def sis_data(traj):
    """(regressor pair, observation) of each step of a trajectory."""
    xs = traj.states[:-1].tolist()
    return [(sis_regressor_pair(x), y) for x, y in zip(xs, traj.observations.tolist())]


def ie_state(*thetas):
    """IE-MMAI state with the given model estimates and nothing accumulated."""
    return tuple((t1, t2, 0.0) for t1, t2 in thetas), (0.0, 0.0, 0.0), (0.0, 0.0), False


class TestIeMmai:
    def make_noisy_traj(self, seed=5):
        return simulate(
            0.01,
            SisParams(beta=0.62929, gamma=0.20976),
            1500,
            NoiseSpec(process_std=1e-3, observation_std=1e-3, bound_nu=5e-3, seed=seed),
        )

    def test_converged_single_model_stays_put(self):
        traj = simulate(0.01, FIG3, 300)
        state = ie_state((FIG3.beta, FIG3.gamma))
        for phi, y in sis_data(traj):
            state = ie_mmai_kernel(state, phi, y)
        assert np.allclose(ie_mmai_selected(state[0]), FIG3.as_vector(), atol=1e-9)
        assert state[3]  # corrected

    def test_identical_models_give_identical_outputs(self):
        traj = self.make_noisy_traj()
        state = ie_state((0.9, 1.1), (0.9, 1.1), (0.9, 1.1))
        for phi, y in sis_data(traj)[:200]:
            state = ie_mmai_kernel(state, phi, y)
            thetas = [m[:2] for m in state[0]]
            assert thetas[0] == thetas[1] == thetas[2]
            assert ie_mmai_selected(state[0]) == thetas[0]

    def test_permutation_symmetry(self):
        traj = self.make_noisy_traj()
        base = ie_mmai_init(THETA0, n_models=3, seed=13)
        models, fim, rhs, corrected = base
        swapped = models[::-1], fim, rhs, corrected
        for phi, y in sis_data(traj)[:300]:
            base = ie_mmai_kernel(base, phi, y)
            swapped = ie_mmai_kernel(swapped, phi, y)
            assert ie_mmai_selected(base[0]) == ie_mmai_selected(swapped[0])
        assert base[0] == swapped[0][::-1]

    def test_reproduction_number_tracks_truth(self):
        traj = self.make_noisy_traj()
        state = ie_mmai_init(THETA0, n_models=3, seed=42)
        for phi, y in sis_data(traj):
            state = ie_mmai_kernel(state, phi, y)
        assert state[3]  # corrected
        beta_hat, gamma_hat = ie_mmai_selected(state[0])
        assert abs(beta_hat / gamma_hat - 3.0) < 0.3

    def test_seeded_initialization_is_deterministic(self):
        a = ie_mmai_init(THETA0, n_models=3, seed=21)
        assert a == ie_mmai_init(THETA0, n_models=3, seed=21)
        c = ie_mmai_init(THETA0, n_models=3, seed=22)
        assert a[0][0] != c[0][0]

    @pytest.mark.parametrize("seed", [0, 7, 21, 12345])
    @pytest.mark.parametrize("spread", [0.25, 3.0])
    def test_models_are_drawn_one_pair_at_a_time(self, seed, spread):
        theta0 = np.array([0.4, 1.3])
        models, fim, rhs, corrected = ie_mmai_init(theta0, 5, spread, seed)
        rng = np.random.default_rng(seed)
        for t1, t2, cost in models:
            expected = theta0 + spread * rng.standard_normal(2)
            assert (t1, t2) == tuple(expected.tolist())
            assert cost == 0.0
        assert (fim, rhs, corrected) == ((0.0, 0.0, 0.0), (0.0, 0.0), False)

    def test_model_count_validated(self):
        with pytest.raises(ValueError):
            ie_mmai_init(THETA0, n_models=0)

    def test_model_count_bounded_before_any_model_is_built(self, monkeypatch):
        draws = []
        monkeypatch.setattr(np.random, "default_rng", lambda *a: draws.append(a))
        with pytest.raises(ValueError, match="n_models"):
            ie_mmai_init(THETA0, n_models=MAX_IE_MMAI_MODELS + 1)
        assert draws == []

    def test_non_finite_model_rejected(self):
        with pytest.raises(ValueError, match="theta0"):
            ie_mmai_init([math.nan, 1.0], n_models=3)
        # seed 0 draws 0.126 first: 1.7e308 + 1.26e307 overflows
        with pytest.raises(ValueError, match="model theta"):
            ie_mmai_init([1.7e308, 1.0], n_models=1, spread=1e308, seed=0)

    @pytest.mark.parametrize("n_models", [1, 2, 3, 7, 1000])
    def test_one_draw_equals_drawing_model_by_model(self, n_models):
        for seed in range(50):
            state = ie_mmai_init((0.3, -2.0), n_models, 0.25, seed)
            assert state == per_model_ie_mmai_init((0.3, -2.0), n_models, 0.25, seed)
            assert all(type(v) is float for model in state[0] for v in model)

    @pytest.mark.parametrize("theta0,spread", [((1.0, 1.0), 1e308), ((-1e308, 1e308), 1e308)])
    def test_first_non_finite_model_is_named_without_a_warning(self, theta0, spread):
        # pytest turns warnings into errors here, so an overflow warning would fail this
        messages = []
        for init in (ie_mmai_init, per_model_ie_mmai_init):
            with pytest.raises(ValueError, match="^model theta must be finite") as info:
                init(theta0, 1000, spread, 5)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestPriorPositiveDefinite:
    """The cost's prior weight P0^-1 must be positive definite: a negative one
    made batch_oracle fail at some steps and minimize a different cost at
    others. pytest turns warnings into errors here, so none may be emitted."""

    @pytest.mark.parametrize(
        "p0_inv",
        [-0.01 * np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0]), [[1.0, 2.0], [2.0, 1.0]]],
        ids=["negative", "zero", "indefinite", "indefinite_off_diagonal"],
    )
    def test_spec_refuses_a_prior_that_is_not_positive_definite(self, p0_inv):
        with pytest.raises(ValueError, match="^spec.p0_inv must be positive definite, got "):
            WeightedCostSpec(alpha=0.94, p0_inv=p0_inv, theta0=THETA0, greedy_indices=frozenset())

    def test_a_tiny_positive_definite_prior_is_kept(self):
        spec = WeightedCostSpec(
            alpha=0.94, p0_inv=1e-200 * np.eye(2), theta0=THETA0, greedy_indices=frozenset()
        )
        assert spec.p0_inv.tolist() == [[1e-200, 0.0], [0.0, 1e-200]]

    @pytest.mark.parametrize("p0_scale", [-100.0, 0.0, -0.0, math.inf, math.nan])
    def test_from_grls_reads_p0_scale_by_its_reader(self, p0_scale):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        with pytest.raises(ValueError, match="^p0_scale must be positive and finite, got "):
            WeightedCostSpec.from_grls(state, p0_scale, THETA0)

    def test_from_grls_names_an_infinite_prior_weight(self):
        # 1 / 1e-320 overflows: no numpy warning, a ValueError naming spec.p0_inv
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        with pytest.raises(ValueError, match="^spec.p0_inv must be finite"):
            WeightedCostSpec.from_grls(state, 1e-320, THETA0)

    def test_from_grls_prior_is_the_inverse_scale(self):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        spec = WeightedCostSpec.from_grls(state, 100.0, THETA0)
        assert spec.p0_inv.tobytes() == (np.eye(2) / 100.0).tobytes()
