import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sisid.dynamics import NoiseSpec, SisParams, Trajectory, simulate
from sisid.estimators import GrlsState, WeightedCostSpec, batch_oracle, grls_step
from sisid.excitation import (
    SIS_REGRESSOR,
    GreedySet,
    build_greedy_set,
    finite_pair,
    greedy_offer,
    is_initially_exciting,
    optimal_excitation_set,
    sis_regressor,
    sis_regressor_pair,
    sliding_fim,
    write_acceptance_trace,
)
from sisid.harness import fim_condition_trace
from sisid.linalg import condition_number

from _oracles import (
    brute_force_excitation_set,
    eig2x2_sym,
    min_window_eig_scan,
    sis_phi_rows,
    window_fim,
)

FIG1 = SisParams(beta=0.12, gamma=0.04)
FIG3 = SisParams(beta=0.8076, gamma=0.2692)


def constant_trajectory(states):
    states = np.asarray(states, dtype=float)
    return Trajectory(states=states, process_noise=np.zeros(len(states) - 1))


class TestSisRegressor:
    def test_zero_state(self):
        assert np.array_equal(sis_regressor(0.0), [[0.0, 0.0]])

    def test_saturated_state(self):
        assert np.array_equal(sis_regressor(1.0), [[0.0, -1.0]])

    def test_half(self):
        assert np.array_equal(sis_regressor(0.5), [[0.25, -0.5]])

    def test_wrapper_shape_check(self):
        # a plain function; a regressor of another shape is rejected where
        # it is read (TestRegressorContract)
        assert SIS_REGRESSOR is sis_regressor
        assert SIS_REGRESSOR(0.3).shape == (1, 2)


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
        assert eig2x2_sym(h)[0] < 1e-6

    def test_out_of_range_window(self):
        traj = simulate(0.01, FIG1, 10)
        with pytest.raises(ValueError):
            sliding_fim(traj, SIS_REGRESSOR, 8, 3)

    def test_symmetric_psd(self):
        traj = simulate(0.2, FIG3, 30)
        h = sliding_fim(traj, SIS_REGRESSOR, 0, 30)
        assert np.array_equal(h, h.T)
        assert eig2x2_sym(h)[0] >= -1e-12


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
        gset = GreedySet()
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
        assert out.rhs_entries == (0.0, 0.5)

    def test_zero_regressor_rejected(self):
        gset = GreedySet()
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
        gset = GreedySet()
        rows, ys = np.zeros((0, 2)), np.zeros(0)
        for k in range(200):
            phi = rng.standard_normal((1, 2))
            y = rng.standard_normal(1)
            gset, accepted = greedy_offer(gset, phi, y, k)
            if accepted:
                rows, ys = np.vstack([rows, phi]), np.concatenate([ys, y])
            assert gset.size == len(rows)
            a, b, d = gset.fim_entries
            assert np.allclose([[a, b], [b, d]], rows.T @ rows, atol=1e-10)
            assert np.allclose(gset.rhs_entries, rows.T @ ys, atol=1e-10)

    @pytest.mark.parametrize(
        "phi,y,name",
        [([[math.nan, 0.1]], 0.1, "phi_k"), ((0.1, math.inf), 0.1, "phi_k"),
         ([[0.1, -0.2]], [math.nan], "y_k"), ((0.1, -0.2), -math.inf, "y_k")],
    )
    def test_non_finite_input_rejected(self, phi, y, name):
        with pytest.raises(ValueError, match=name):
            greedy_offer(GreedySet(), phi, y, 0)

    def test_pair_of_floats_equals_array(self):
        gset = GreedySet()
        for k, x in enumerate((0.01, 0.02, 0.05)):
            a, _ = greedy_offer(gset, sis_regressor(x), [0.003], k)
            b, _ = greedy_offer(gset, ((1.0 - x) * x, -x), 0.003, k)
            assert a == b
            gset = a

    def test_cond_nonincreasing_once_finite(self):
        traj = simulate(0.01, FIG3, 300)
        gset = GreedySet()
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
        def reg(x):
            return np.array([[x, 1.0 - x]])

        traj = constant_trajectory([1.0, 0.0, 0.0])
        best = optimal_excitation_set(traj, reg)
        assert best == (0, 1)
        h = reg(1.0).T @ reg(1.0) + reg(0.0).T @ reg(0.0)
        assert condition_number(h) == 1.0

    def test_single_point_trajectory(self):
        traj = simulate(0.01, FIG3, 1)
        assert optimal_excitation_set(traj, SIS_REGRESSOR) == (0,)

    def test_a_trajectory_of_no_steps_has_the_empty_set(self):
        traj = Trajectory(states=[0.1], process_noise=[])
        assert optimal_excitation_set(traj, SIS_REGRESSOR) == ()

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


class TestFisherInfo:
    def test_discounted_accumulation_matches_direct_sum(self):
        # the discounted FIM H = alpha H + phi^T phi, as fim_condition_trace
        # accumulates it, against the direct sum, through its condition number
        traj = simulate(0.01, FIG3, 40)
        alpha = 0.94
        trace = fim_condition_trace(traj, SIS_REGRESSOR, alpha)
        for k in range(1, traj.step_count):
            direct = np.zeros((2, 2))
            for i in range(k + 1):
                phi = sis_regressor(traj.states[i])
                direct += alpha ** (k - i) * (phi.T @ phi)
            assert trace[k] == pytest.approx(condition_number(direct), rel=1e-9)


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
        gset, rows = GreedySet(), []
        for k in range(traj.step_count):
            before = gset.cond
            phi = sis_regressor(traj.states[k])
            gset, accepted = greedy_offer(gset, phi, traj.observations[k], k)
            rows.append((k, accepted, before, gset.cond))
        write_acceptance_trace(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "# sisid-greedy-v1"
        assert lines[1] == "step,accepted,kappa_before,kappa_after"
        assert len(lines) == 52
        assert rows[0][1] is True  # bootstrap acceptance
        accepted_steps = [r[0] for r in rows if r[1]]
        final = build_greedy_set(traj, SIS_REGRESSOR)
        assert tuple(accepted_steps) == final.indices

    def test_returns_the_digest_of_the_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        rows = [(k, k % 5 == 0, float(k), k + 0.5) for k in range(300)]  # two chunks
        digest = write_acceptance_trace(path, rows)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def _two_entry_regressor(x):
    """A regressor other than the SIS one, given as a flat array of two."""
    return np.array([math.cos(5.0 * x), x - 0.5])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    beta=st.floats(0.05, 0.95),
    gamma=st.floats(0.02, 0.5),
    x0=st.floats(1e-3, 0.99),
    steps=st.integers(1, 10),
    noise_seed=st.none() | st.integers(0, 1000),
    custom=st.booleans(),
    data=st.data(),
)
def test_fim_sums_match_numpy_reference(beta, gamma, x0, steps, noise_seed, custom, data):
    # the float sums do the numpy reference's adds in its order: bitwise equal
    noise = None if noise_seed is None else NoiseSpec(1e-3, 1e-3, 5e-3, seed=noise_seed)
    traj = simulate(x0, SisParams(beta=beta, gamma=gamma), steps, noise)
    reg = _two_entry_regressor if custom else SIS_REGRESSOR
    phis = [reg(x) for x in traj.states]
    l = data.draw(st.integers(0, steps), label="l")
    window = data.draw(st.integers(0, steps - l), label="window")
    h = sliding_fim(traj, reg, l, window)
    assert h.tobytes() == window_fim(phis[l : l + window + 1]).tobytes()
    assert optimal_excitation_set(traj, reg) == brute_force_excitation_set(phis[:steps])


class TestRegressorContract:
    """Every consumer reads a regressor as two finite entries or raises."""

    CONSUMERS = {
        "sliding_fim": lambda traj, reg: sliding_fim(traj, reg, 0, 3),
        "build_greedy_set": build_greedy_set,
        "optimal_excitation_set": optimal_excitation_set,
        "fim_condition_trace": lambda traj, reg: fim_condition_trace(traj, reg, 0.94),
        "grls_step": lambda traj, reg: grls_step(
            GrlsState.initial((1.0, 1.0), reg), traj.states[0], traj.states[1]
        ),
        "batch_oracle": lambda traj, reg: batch_oracle(
            traj, reg, WeightedCostSpec(0.94, np.eye(2), np.ones(2), frozenset()), 3
        ),
    }

    @pytest.mark.parametrize("consumer", CONSUMERS)
    @pytest.mark.parametrize(
        "reg,message",
        [
            (lambda x: (math.nan, -x), "regressor must be finite"),
            (lambda x: np.zeros((2, 2)), "regressor must have 2 entries"),
            (lambda x: (x, -x, x), "regressor must have 2 entries"),
            (lambda x: ("a", -x), "regressor must have 2 entries, both numbers"),
            (3, "regressor must be callable"),
        ],
        ids=["nan", "four_entries", "three_entries", "not_a_number", "not_callable"],
    )
    def test_rejected(self, consumer, reg, message):
        traj = simulate(0.01, FIG3, 5)
        with pytest.raises(ValueError, match=message):
            self.CONSUMERS[consumer](traj, reg)

    @pytest.mark.parametrize(
        "value",
        [(1.0, None), ("a", 1.0), ((1.0, 2.0), 3.0), (1.0, 2.0, 3.0), "ab", (1j, 2.0), None],
    )
    def test_finite_pair_names_what_is_not_two_numbers(self, value):
        with pytest.raises(ValueError, match="^phi must have 2 entries"):
            finite_pair(value, "phi")

    @pytest.mark.parametrize(
        "value", [(np.float64(0.25), np.float64(-0.5)), (0.25, np.float32(-0.5)), [0.25, -0.5]]
    )
    def test_finite_pair_gives_python_floats(self, value):
        u1, u2 = finite_pair(value, "phi")
        assert (u1, u2) == (0.25, -0.5)
        assert type(u1) is float and type(u2) is float

    def test_numpy_scalar_regressor_gives_a_state_of_floats(self):
        traj = simulate(0.01, FIG3, 300, NoiseSpec(1e-3, 1e-3, 5e-3, seed=2))
        a = GrlsState.initial((1.0, 1.0), lambda x: tuple(map(np.float64, sis_regressor_pair(x))))
        b = GrlsState.initial((1.0, 1.0), sis_regressor_pair)
        for x_k, x_next in zip(traj.states[:-1], traj.states[1:]):
            a, b = grls_step(a, x_k, x_next), grls_step(b, x_k, x_next)
        gset = a.excitation
        assert gset.size > 0
        floats = (*a._P, *a._theta, *gset.fim_entries, *gset.rhs_entries, gset.cond)
        assert all(type(v) is float for v in floats)
        assert replace(a, regressor=sis_regressor_pair) == b

    def test_overflowing_fim_rejected(self):
        traj = constant_trajectory([1.0, 2.0])
        with pytest.raises(ValueError, match="not finite"):
            optimal_excitation_set(traj, lambda x: (1e200 * x, 1.0))

    def test_upto_out_of_range(self):
        traj = simulate(0.01, FIG3, 5)
        for upto in (-1, 6):
            with pytest.raises(ValueError, match="upto"):
                build_greedy_set(traj, SIS_REGRESSOR, upto)


def _sis_row_as_any_regressor(x):
    """``sis_regressor``'s 1x2 row, read as any regressor other than it is."""
    return sis_regressor(x)


class TestSisRegressorFastPath:
    """``SIS_REGRESSOR`` read as ``sis_regressor_pair`` gives what its 1x2 row gives."""

    def test_bitwise_equal_to_the_general_path(self):
        traj = simulate(0.01, FIG3, 2000, NoiseSpec(1e-3, 1e-3, 5e-3, seed=2))
        general = _sis_row_as_any_regressor
        fast = GrlsState.initial((1.0, 1.0), SIS_REGRESSOR)
        slow = GrlsState.initial((1.0, 1.0), general)
        states = []
        for x_k, x_next in zip(traj.states[:-1], traj.states[1:]):
            fast, slow = grls_step(fast, x_k, x_next), grls_step(slow, x_k, x_next)
            assert replace(slow, regressor=SIS_REGRESSOR) == fast
            states.append(fast)
        assert fast.excitation.size > 0
        for k in (249, 999, 1999):
            spec = WeightedCostSpec.from_grls(states[k], 100.0, (1.0, 1.0))
            a = batch_oracle(traj, SIS_REGRESSOR, spec, k)
            assert a.tobytes() == batch_oracle(traj, general, spec, k).tobytes()
        for l, window in ((0, 2000), (0, 40), (1500, 300)):
            a = sliding_fim(traj, SIS_REGRESSOR, l, window)
            assert a.tobytes() == sliding_fim(traj, general, l, window).tobytes()
        a = np.array(fim_condition_trace(traj, SIS_REGRESSOR, 0.94))
        assert a.tobytes() == np.array(fim_condition_trace(traj, general, 0.94)).tobytes()
        assert build_greedy_set(traj, SIS_REGRESSOR) == build_greedy_set(traj, general)


class TestStepIndices:
    """Step indices are read as integers (``linalg.read_count``), then checked
    against the trajectory with the messages they always had."""

    @pytest.mark.parametrize("l, window", [(-1, 2), (2, -1), (8, 3), (np.int64(8), np.uint8(3))])
    def test_window_out_of_range(self, l, window):
        traj = simulate(0.01, FIG1, 10)
        with pytest.raises(ValueError, match=r"^window \[-?\d+, \d+\] out of range for 10 steps$"):
            sliding_fim(traj, SIS_REGRESSOR, l, window)

    def test_numpy_integer_indices_equal_ints(self):
        traj = simulate(0.01, FIG3, 20)
        h = sliding_fim(traj, SIS_REGRESSOR, np.int64(2), np.uint8(3))
        assert h.tobytes() == sliding_fim(traj, SIS_REGRESSOR, 2, 3).tobytes()
        assert build_greedy_set(traj, SIS_REGRESSOR, np.int64(7)) == build_greedy_set(
            traj, SIS_REGRESSOR, 7
        )
        assert is_initially_exciting(traj, SIS_REGRESSOR, np.int32(19), np.float32(1e-4)) == (
            is_initially_exciting(traj, SIS_REGRESSOR, 19, 1e-4)
        )
