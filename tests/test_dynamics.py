import math
import time

import numpy as np
import pytest

from sisid.dynamics import (
    MIN_DRAW_ACCEPTANCE,
    NoiseSpec,
    SisParams,
    Trajectory,
    simulate,
    sis_step,
)

FIG1 = SisParams(beta=0.12, gamma=0.04)
FIG2 = SisParams(beta=0.62929, gamma=0.20976)
FIG3 = SisParams(beta=0.8076, gamma=0.2692)


class TestSisStep:
    def test_disease_free_equilibrium(self):
        assert sis_step(0.0, FIG3) == 0.0

    def test_endemic_fixed_point(self):
        x2 = 1.0 - FIG1.gamma / FIG1.beta  # = 2/3
        assert x2 == pytest.approx(2.0 / 3.0)
        assert sis_step(x2, FIG1) == pytest.approx(x2, abs=1e-15)

    def test_hand_evaluated_step(self):
        # 0.01 + 0.99 * 0.12 * 0.01 - 0.04 * 0.01
        assert sis_step(0.01, FIG1) == pytest.approx(0.010788, abs=1e-15)

    @pytest.mark.parametrize("x", [-0.1, 1.1])
    def test_state_outside_unit_interval_rejected(self, x):
        with pytest.raises(ValueError):
            sis_step(x, FIG1)

    def test_unit_interval_is_invariant(self):
        for beta in (0.04, 0.3, 0.9, 1.0):
            for gamma in (0.04, 0.3, 0.9, 1.0):
                params = SisParams(beta=beta, gamma=gamma)
                for x in np.linspace(0.0, 1.0, 101):
                    assert 0.0 <= sis_step(x, params) <= 1.0

    def test_fixed_points_found_by_grid_sweep(self):
        # roots of f(x) - x must be exactly {0, 1 - gamma/beta} within [0, 1]
        for params in (FIG1, FIG3, SisParams(beta=0.1, gamma=0.2)):
            expected = {0.0}
            x2 = 1.0 - params.gamma / params.beta
            if 0.0 <= x2 <= 1.0:
                expected.add(x2)
            grid = np.linspace(0.0, 1.0, 20001)
            gaps = np.array([sis_step(x, params) - x for x in grid])
            roots = set()
            for i in range(len(grid) - 1):
                if gaps[i] == 0.0:
                    roots.add(grid[i])
                elif gaps[i] * gaps[i + 1] < 0:
                    roots.add(0.5 * (grid[i] + grid[i + 1]))
            if gaps[-1] == 0.0:
                roots.add(grid[-1])
            assert len(roots) == len(expected)
            for r in roots:
                assert min(abs(r - e) for e in expected) < 1e-4


class TestSisParams:
    def test_rates_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            SisParams(beta=-0.1, gamma=0.1)
        with pytest.raises(ValueError):
            SisParams(beta=0.5, gamma=1.2)

    def test_reproduction_number_fig2(self):
        assert FIG2.reproduction_number() == pytest.approx(3.0, abs=1e-4)

    def test_reproduction_number_fig3(self):
        assert FIG3.reproduction_number() == pytest.approx(3.0, abs=1e-4)

    def test_equal_rates_give_unity(self):
        assert SisParams(beta=0.3, gamma=0.3).reproduction_number() == 1.0

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            SisParams(beta=0.3, gamma=0.0).reproduction_number()


class TestSimulate:
    def test_converges_to_endemic_level(self):
        traj = simulate(0.01, FIG1, 2000)
        assert traj.states[-1] == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_fig2_endemic_level(self):
        traj = simulate(0.01, FIG2, 2000)
        assert traj.states[-1] == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-3)

    def test_zero_start_stays_zero(self):
        traj = simulate(0.0, FIG3, 100)
        assert np.all(traj.states == 0.0)
        assert np.all(traj.observations == 0.0)

    def test_observations_are_state_differences(self):
        traj = simulate(0.01, FIG3, 50)
        assert np.allclose(traj.observations, np.diff(traj.states))
        assert len(traj.observations) == len(traj.states) - 1
        assert traj.step_count == 50

    def test_monotone_rise_below_endemic_level(self):
        # strictly increasing until the float fixed point is reached, never above it
        for params in (FIG1, FIG3, SisParams(beta=0.6, gamma=0.2)):
            x2 = 1.0 - params.gamma / params.beta
            traj = simulate(0.01, params, 500)
            diffs = np.diff(traj.states)
            flat = np.nonzero(diffs == 0)[0]
            cut = flat[0] if len(flat) else len(diffs)
            assert cut > 10
            assert np.all(diffs[:cut] > 0)
            assert np.all(diffs[cut:] == 0)
            assert np.all(traj.states <= x2 + 1e-12)

    def test_noise_free_states_stay_in_unit_interval(self):
        for beta, gamma in [(0.04, 0.9), (0.9, 0.04), (0.5, 0.5), (1.0, 1.0)]:
            traj = simulate(0.37, SisParams(beta=beta, gamma=gamma), 200)
            assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate(-0.5, FIG1, 10)
        with pytest.raises(ValueError):
            simulate(0.1, FIG1, 0)


class TestNoise:
    def test_seed_determinism(self):
        noise = NoiseSpec(process_std=1e-3, observation_std=1e-3, bound_nu=5e-3, seed=42)
        a = simulate(0.01, FIG3, 300, noise)
        b = simulate(0.01, FIG3, 300, noise)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.process_noise, b.process_noise)

    def test_different_seeds_differ(self):
        a = simulate(0.01, FIG3, 300, NoiseSpec(seed=1))
        b = simulate(0.01, FIG3, 300, NoiseSpec(seed=2))
        assert not np.array_equal(a.states, b.states)

    def test_process_noise_respects_bound(self):
        noise = NoiseSpec(process_std=2e-3, bound_nu=3e-3, seed=7)
        traj = simulate(0.3, FIG3, 2000, noise)
        assert np.max(np.abs(traj.process_noise)) <= 3e-3

    def test_process_noise_keeps_states_clamped(self):
        noise = NoiseSpec(process_std=5e-2, bound_nu=0.25, seed=3)
        traj = simulate(0.01, SisParams(beta=0.1, gamma=0.3), 500, noise)
        assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))

    def test_observation_noise_enters_observations(self):
        clean = simulate(0.01, FIG3, 100, NoiseSpec(process_std=0.0, bound_nu=0.0, seed=5))
        noisy = simulate(
            0.01, FIG3, 100,
            NoiseSpec(process_std=0.0, observation_std=1e-3, bound_nu=0.0, seed=5),
        )
        assert not np.allclose(clean.observations, noisy.observations)
        assert np.allclose(noisy.observations, np.diff(noisy.states))

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(process_std=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(process_std=1e-3, bound_nu=0.0)

    def test_unreachable_bound_fails_fast(self):
        # the redraw loop would never return; validation refuses the spec instead
        start = time.perf_counter()
        with pytest.raises(ValueError, match="bound_nu"):
            NoiseSpec(process_std=1.0, bound_nu=1e-9)
        assert time.perf_counter() - start < 1.0

    def test_acceptance_floor(self):
        # bound_nu = z * std keeps erf(z / sqrt(2)) of the draws
        z = 0.0126  # erf(z / sqrt(2)) = 0.01005, just above the floor
        assert math.erf(z / math.sqrt(2.0)) >= MIN_DRAW_ACCEPTANCE
        NoiseSpec(process_std=1.0, bound_nu=z)
        with pytest.raises(ValueError, match="bound_nu"):
            NoiseSpec(process_std=1.0, bound_nu=0.99 * z)

    @pytest.mark.parametrize("field", ["process_std", "observation_std", "bound_nu"])
    def test_non_finite_magnitudes_rejected(self, field):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**{field: math.nan})


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros(5), observations=np.zeros(5), process_noise=np.zeros(4))

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(
                states=np.array([0.1, np.nan]),
                observations=np.array([0.0]),
                process_noise=np.array([0.0]),
            )

    def test_csv_export(self, tmp_path):
        traj = simulate(0.01, FIG3, 10)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# sisid-trajectory-v1"
        assert lines[1] == "step,state,observation,noise_applied"
        assert len(lines) == 13  # schema + header + 10 observation rows + final state row
        assert lines[2].startswith("0,0.01,")
