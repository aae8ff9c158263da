import dataclasses
import math

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
from sisid.excitation import SIS_REGRESSOR, Regressor, sis_regressor, sis_regressor_pair
from sisid.linalg import sym2, sym2_eigenvalues

from _oracles import sis_phi_rows, weighted_normal_solution

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
    return sym2_eigenvalues(*sym2(p))[0]


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

    def test_alpha_must_be_strictly_below_one(self):
        with pytest.raises(ValueError):
            GrlsState.initial(THETA0, SIS_REGRESSOR, alpha=1.0)

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

    def test_deterministic_given_seed(self):
        noise = NoiseSpec(seed=4)
        a = run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), simulate(0.01, FIG3, 100, noise))
        b = run_grls(GrlsState.initial(THETA0, SIS_REGRESSOR), simulate(0.01, FIG3, 100, noise))
        assert np.array_equal(a[-1].theta, b[-1].theta)
        assert a[-1].excitation.indices == b[-1].excitation.indices


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
        [(math.nan, 0.1, "x_k"), (0.1, math.inf, "x_next"), (-math.inf, 0.1, "x_k")],
    )
    def test_grls_step(self, x_k, x_next, name):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        with pytest.raises(ValueError, match=name):
            grls_step(state, x_k, x_next)

    def test_grls_step_custom_regressor(self):
        reg = Regressor(fn=lambda x: np.array([[math.nan, -x]]), n_outputs=1, n_params=2)
        state = GrlsState.initial(THETA0, reg)
        with pytest.raises(ValueError, match="regressor"):
            grls_step(state, 0.1, 0.11)

    @pytest.mark.parametrize("field", ["P", "theta"])
    def test_grls_step_non_finite_state(self, field):
        state = GrlsState.initial(THETA0, SIS_REGRESSOR)
        bad = dataclasses.replace(state, **{field: np.full_like(getattr(state, field), math.nan)})
        with pytest.raises(ValueError, match=f"state {field}"):
            grls_step(bad, 0.1, 0.11)

    def test_grls_initial_state(self):
        with pytest.raises(ValueError, match="theta0"):
            GrlsState.initial([math.nan, 1.0], SIS_REGRESSOR)
        with pytest.raises(ValueError, match="p0_scale"):
            GrlsState.initial(THETA0, SIS_REGRESSOR, p0_scale=math.inf)

    @pytest.mark.parametrize(
        "p,theta,phi,y,name",
        [
            (np.diag([math.nan, 1.0]), THETA0, [[0.1, -0.1]], [0.01], "P"),
            (np.eye(2), [1.0, math.inf], [[0.1, -0.1]], [0.01], "theta"),
            (np.eye(2), THETA0, [[math.nan, -0.1]], [0.01], "phi"),
            (np.eye(2), THETA0, [[0.1, -0.1]], [math.nan], "y"),
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


class TestBatchOracle:
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
        with pytest.raises(ValueError):
            batch_oracle(traj, SIS_REGRESSOR, spec, 10)
        # greedy indices beyond k are rejected
        bad = WeightedCostSpec(
            alpha=0.94, p0_inv=np.eye(2), theta0=THETA0, greedy_indices=frozenset({9})
        )
        with pytest.raises(ValueError):
            batch_oracle(traj, SIS_REGRESSOR, bad, 5)


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
