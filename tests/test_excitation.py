import math

import numpy as np
import pytest

from sisid.dynamics import SisParams, Trajectory, simulate
from sisid.excitation import (
    SIS_REGRESSOR,
    FisherInfo,
    GreedySet,
    Regressor,
    build_greedy_set,
    export_acceptance_trace,
    greedy_offer,
    is_initially_exciting,
    optimal_excitation_set,
    residual,
    sis_regressor,
    sliding_fim,
)
from sisid.linalg import condition_number, min_eigenvalue_sym

from _oracles import eig2x2_sym, min_window_eig_scan, sis_phi_rows

FIG1 = SisParams(beta=0.12, gamma=0.04)
FIG3 = SisParams(beta=0.8076, gamma=0.2692)


def constant_trajectory(states):
    states = np.asarray(states, dtype=float)
    return Trajectory(
        states=states,
        observations=np.diff(states),
        process_noise=np.zeros(len(states) - 1),
    )


class TestSisRegressor:
    def test_zero_state(self):
        assert np.array_equal(sis_regressor(0.0), [[0.0, 0.0]])

    def test_saturated_state(self):
        assert np.array_equal(sis_regressor(1.0), [[0.0, -1.0]])

    def test_half(self):
        assert np.array_equal(sis_regressor(0.5), [[0.25, -0.5]])

    def test_wrapper_shape_check(self):
        assert SIS_REGRESSOR(0.3).shape == (1, 2)
        bad = Regressor(fn=lambda x: np.zeros((2, 2)), n_outputs=1, n_params=2)
        with pytest.raises(ValueError):
            bad(0.3)


class TestResidual:
    def test_true_parameters_give_zero(self):
        x = 0.37
        y = np.atleast_1d(
            (1.0 - x) * FIG3.beta * x - FIG3.gamma * x
        )
        r = residual(y, sis_regressor(x), FIG3.as_vector())
        assert np.allclose(r, 0.0, atol=1e-16)

    def test_hand_evaluated_residual(self):
        # y = 0.010788 - 0.01; phi(0.01) = [0.0099, -0.01];
        # r = 0.000788 - (0.0099*0.05 - 0.01*0.07) = 0.000993
        r = residual([0.000788], sis_regressor(0.01), [0.05, 0.07])
        assert r[0] == pytest.approx(0.000993, abs=1e-12)

    def test_zero_estimate_returns_observation(self):
        y = np.array([0.123])
        r = residual(y, sis_regressor(0.4), [0.0, 0.0])
        assert np.array_equal(r, y)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            residual([1.0, 2.0], sis_regressor(0.4), [0.1, 0.2])


class TestSlidingFim:
    def test_zero_states_give_zero_matrix(self):
        traj = constant_trajectory(np.zeros(10))
        assert np.array_equal(sliding_fim(traj, SIS_REGRESSOR, 0, 5), np.zeros((2, 2)))

    def test_single_point(self):
        traj = constant_trajectory([0.5, 0.5])
        h = sliding_fim(traj, SIS_REGRESSOR, 0, 0)
        assert np.allclose(h, [[0.0625, -0.125], [-0.125, 0.25]])

    def test_window_length_convention(self):
        # window = 3 sums four consecutive outer products
        traj = simulate(0.01, FIG3, 20)
        h = sliding_fim(traj, SIS_REGRESSOR, 2, 3)
        rows = sis_phi_rows(traj.states[2:6])
        assert np.allclose(h, rows.T @ rows, atol=1e-15)

    def test_near_equilibrium_window_is_degenerate(self):
        traj = simulate(0.01, FIG1, 2000)
        h = sliding_fim(traj, SIS_REGRESSOR, 1990, 3)
        assert min_eigenvalue_sym(h) < 1e-6

    def test_out_of_range_window(self):
        traj = simulate(0.01, FIG1, 10)
        with pytest.raises(ValueError):
            sliding_fim(traj, SIS_REGRESSOR, 8, 3)

    def test_symmetric_psd(self):
        traj = simulate(0.2, FIG3, 30)
        h = sliding_fim(traj, SIS_REGRESSOR, 0, 30)
        assert np.array_equal(h, h.T)
        assert min_eigenvalue_sym(h) >= -1e-12


class TestInitialExcitation:
    def test_zero_trajectory_never_exciting(self):
        traj = constant_trajectory(np.zeros(50))
        assert not is_initially_exciting(traj, SIS_REGRESSOR, 40, 1e-12)

    def test_transient_is_exciting(self):
        traj = simulate(0.01, FIG3, 100)
        assert is_initially_exciting(traj, SIS_REGRESSOR, 40, 1e-4)

    def test_single_point_is_rank_deficient(self):
        traj = simulate(0.01, FIG3, 10)
        assert not is_initially_exciting(traj, SIS_REGRESSOR, 0, 1e-12)

    def test_threshold_must_be_positive(self):
        traj = simulate(0.01, FIG3, 10)
        with pytest.raises(ValueError):
            is_initially_exciting(traj, SIS_REGRESSOR, 5, 0.0)


class TestGreedyOffer:
    def test_bootstrap_accepts_first_nonzero_point(self):
        gset = GreedySet.empty(2)
        assert gset.cond == math.inf
        out, accepted = greedy_offer(gset, sis_regressor(0.01), [0.0008], 0)
        assert accepted
        assert out.indices == (0,)
        assert out.cond == math.inf  # still rank deficient

    def test_rejects_point_that_worsens_conditioning(self):
        gset = GreedySet(
            indices=(0, 1),
            fim_entries=(1.0, 0.0, 1.0),
            rhs_entries=(0.0, 0.0),
            cond=1.0,
        )
        out, accepted = greedy_offer(gset, np.array([[1.0, 0.0]]), [0.1], 2)
        assert not accepted
        assert out is gset  # kappa(diag(2, 1)) = 2 > 1

    def test_accepts_point_that_improves_conditioning(self):
        gset = GreedySet(
            indices=(0, 1),
            fim_entries=(4.0, 0.0, 1.0),
            rhs_entries=(0.0, 0.0),
            cond=4.0,
        )
        out, accepted = greedy_offer(gset, np.array([[0.0, 1.0]]), [0.5], 2)
        assert accepted  # kappa(diag(4, 2)) = 2 <= 4
        assert out.cond == pytest.approx(2.0)
        assert out.indices == (0, 1, 2)
        assert np.allclose(out.rhs, [0.0, 0.5])

    def test_zero_regressor_rejected(self):
        gset = GreedySet.empty(2)
        out, accepted = greedy_offer(gset, np.zeros((1, 2)), [0.0], 0)
        assert not accepted
        assert out.size == 0

    def test_exact_tie_accepts(self):
        # the comparison is non-strict: kappa(diag(4, 2)) == kappa(diag(1, 2)) == 2
        gset = GreedySet(
            indices=(0,),
            fim_entries=(1.0, 0.0, 2.0),
            rhs_entries=(0.0, 0.0),
            cond=2.0,
        )
        out, accepted = greedy_offer(gset, np.array([[np.sqrt(3.0), 0.0]]), [0.1], 1)
        assert accepted
        assert out.cond == pytest.approx(2.0)

    def test_representation_coherence(self):
        # the FIM and right-hand side equal the sums over the accepted points
        rng = np.random.default_rng(10)
        gset = GreedySet.empty(2)
        rows, ys = np.zeros((0, 2)), np.zeros(0)
        for k in range(200):
            phi = rng.standard_normal((1, 2))
            y = rng.standard_normal(1)
            gset, accepted = greedy_offer(gset, phi, y, k)
            if accepted:
                rows, ys = np.vstack([rows, phi]), np.concatenate([ys, y])
            assert gset.size == len(rows)
            assert np.allclose(gset.fim, rows.T @ rows, atol=1e-10)
            assert np.allclose(gset.rhs, rows.T @ ys, atol=1e-10)
            assert np.array_equal(gset.fim, gset.fim.T)

    @pytest.mark.parametrize(
        "phi,y,name",
        [([[math.nan, 0.1]], 0.1, "phi_k"), ((0.1, math.inf), 0.1, "phi_k"),
         ([[0.1, -0.2]], [math.nan], "y_k"), ((0.1, -0.2), -math.inf, "y_k")],
    )
    def test_non_finite_input_rejected(self, phi, y, name):
        with pytest.raises(ValueError, match=name):
            greedy_offer(GreedySet.empty(2), phi, y, 0)

    def test_pair_of_floats_equals_array(self):
        gset = GreedySet.empty(2)
        for k, x in enumerate((0.01, 0.02, 0.05)):
            a, _ = greedy_offer(gset, sis_regressor(x), [0.003], k)
            b, _ = greedy_offer(gset, ((1.0 - x) * x, -x), 0.003, k)
            assert a == b
            gset = a

    def test_cond_nonincreasing_once_finite(self):
        traj = simulate(0.01, FIG3, 300)
        gset = GreedySet.empty(2)
        conds = []
        for k in range(traj.step_count):
            gset, accepted = greedy_offer(
                gset, sis_regressor(traj.states[k]), traj.observations[k], k
            )
            if accepted:
                conds.append(gset.cond)
        finite = [c for c in conds if math.isfinite(c)]
        assert len(finite) > 2
        assert all(b <= a * (1 + 1e-12) for a, b in zip(finite, finite[1:]))


class TestOptimalExcitationSet:
    def test_orthogonal_pair_reaches_unit_conditioning(self):
        # custom regressor whose two states produce complementary unit rows
        reg = Regressor(fn=lambda x: np.array([[x, 1.0 - x]]), n_outputs=1, n_params=2)
        traj = constant_trajectory([1.0, 0.0, 0.0])
        best = optimal_excitation_set(traj, reg)
        assert best == (0, 1)
        h = reg(1.0).T @ reg(1.0) + reg(0.0).T @ reg(0.0)
        assert condition_number(h) == 1.0

    def test_single_point_trajectory(self):
        traj = simulate(0.01, FIG3, 1)
        assert optimal_excitation_set(traj, SIS_REGRESSOR) == (0,)

    def test_exhaustive_beats_greedy_on_prefix(self):
        traj = simulate(0.01, FIG3, 8)
        best = optimal_excitation_set(traj, SIS_REGRESSOR)
        h = sum(
            SIS_REGRESSOR(traj.states[k]).T @ SIS_REGRESSOR(traj.states[k]) for k in best
        )
        greedy = build_greedy_set(traj, SIS_REGRESSOR)
        assert condition_number(h) <= greedy.cond

    def test_budget_enforced(self):
        traj = simulate(0.01, FIG3, 25)
        with pytest.raises(ValueError):
            optimal_excitation_set(traj, SIS_REGRESSOR)
        with pytest.raises(ValueError):
            optimal_excitation_set(traj, SIS_REGRESSOR, limit=25)


class TestFisherInfo:
    def test_discounted_accumulation_matches_direct_sum(self):
        traj = simulate(0.01, FIG3, 40)
        alpha = 0.94
        fim = FisherInfo.zero(2, discount=alpha)
        for k in range(traj.step_count):
            fim.accumulate(sis_regressor(traj.states[k]))
        direct = np.zeros((2, 2))
        for i in range(traj.step_count):
            phi = sis_regressor(traj.states[i])
            direct += alpha ** (traj.step_count - 1 - i) * (phi.T @ phi)
        assert np.allclose(fim.h, direct, atol=1e-14)

    def test_exact_symmetry_and_psd(self):
        rng = np.random.default_rng(11)
        fim = FisherInfo.zero(2, discount=0.9)
        for _ in range(300):
            fim.accumulate(rng.standard_normal((1, 2)))
            assert np.array_equal(fim.h, fim.h.T)
            assert min_eigenvalue_sym(fim.h) >= -1e-12

    def test_invalid_discount(self):
        with pytest.raises(ValueError):
            FisherInfo.zero(2, discount=0.0)


class TestLossOfExcitation:
    """The SIS regressor loses excitation near either equilibrium."""

    @pytest.mark.parametrize(
        "beta,gamma",
        [(0.04, 0.08), (0.3, 0.2), (0.9, 0.3), (0.12, 0.04), (0.2, 0.4)],
    )
    @pytest.mark.parametrize("window", [3, 10, 50])
    def test_window_eigenvalue_collapses(self, beta, gamma, window):
        traj = simulate(0.01, SisParams(beta=beta, gamma=gamma), 5000)
        best, best_l = min_window_eig_scan(traj.states, window)
        assert best < 1e-8
        # scan agrees with the library window sum where it found the minimum
        h = sliding_fim(traj, SIS_REGRESSOR, best_l, window)
        lo, _ = eig2x2_sym(h)
        assert lo == pytest.approx(best, abs=1e-12)

    def test_rank_one_limit_direction(self):
        # near the endemic equilibrium the window FIM aligns with [1/R0, -1]
        traj = simulate(0.01, FIG1, 3000)
        h = sliding_fim(traj, SIS_REGRESSOR, 2990, 3)
        eigvals, eigvecs = np.linalg.eigh(h)
        dominant = eigvecs[:, -1]
        a = np.array([1.0 / FIG1.reproduction_number(), -1.0])
        unit = a / np.linalg.norm(a)
        assert abs(dominant @ unit) > 0.999
        assert eigvals[0] / eigvals[-1] < 1e-4
        # window of 4 near-identical outer products: lambda_max -> 4 x2^2 |a|^2
        x2 = FIG1.endemic_level()
        assert eigvals[-1] == pytest.approx(4.0 * x2 ** 2 * (a @ a), rel=1e-2)


class TestAcceptanceTraceExport:
    def test_csv_round_trip(self, tmp_path):
        traj = simulate(0.01, FIG3, 50)
        path = tmp_path / "trace.csv"
        rows = export_acceptance_trace(traj, SIS_REGRESSOR, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# sisid-greedy-v1"
        assert lines[1] == "step,accepted,kappa_before,kappa_after"
        assert len(lines) == 52
        assert rows[0][1] is True  # bootstrap acceptance
        accepted_steps = [r[0] for r in rows if r[1]]
        final = build_greedy_set(traj, SIS_REGRESSOR)
        assert tuple(accepted_steps) == final.indices
