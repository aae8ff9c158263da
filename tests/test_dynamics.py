import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sisid.dynamics import (
    MIN_DRAW_ACCEPTANCE,
    NoiseSpec,
    SisParams,
    Trajectory,
    simulate,
    sis_step,
    write_trace,
)

from _oracles import naive_simulate, naive_trace_csv

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

    def test_zero_beta_has_no_endemic_level(self):
        with pytest.raises(ValueError, match="beta == 0"):
            SisParams(beta=0.0, gamma=0.3).endemic_level()


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

    @pytest.mark.parametrize("steps", [2.5, math.nan, "3", 3.0, None])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps"):
            simulate(0.1, FIG1, steps)

    @pytest.mark.parametrize("x0", ["0.1", None, np.array([0.5])], ids=["str", "None", "array"])
    def test_non_number_x0_rejected(self, x0):
        with pytest.raises(ValueError, match="x0"):
            simulate(x0, FIG1, 3)

    def test_numpy_integer_steps_accepted(self):
        traj = simulate(0.1, FIG1, np.int64(3))
        assert traj.step_count == 3
        assert np.array_equal(traj.states, simulate(0.1, FIG1, 3).states)


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

    def test_a_zero_bound_keeps_no_draw(self):
        with pytest.raises(ValueError, match=r"^bound_nu 0\.0 keeps only 0 of process-noise draws"):
            NoiseSpec(process_std=1e-3, bound_nu=0.0)

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


_LOG_MAGNITUDE = st.floats(-6.0, 0.0).map(lambda e: 10.0**e)


@st.composite
def _noise_specs(draw) -> NoiseSpec | None:
    """None, observation noise only, or bounded process noise whose bound keeps
    from just above the acceptance floor (z = 0.0126) up to ~4 sigma of draws."""
    kind = draw(st.sampled_from(["off", "observation only", "process"]))
    if kind == "off":
        return None
    observation_std = draw(st.one_of(st.just(0.0), _LOG_MAGNITUDE))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "observation only":
        return NoiseSpec(0.0, observation_std, 0.0, seed)
    std = draw(_LOG_MAGNITUDE)
    return NoiseSpec(std, observation_std, draw(st.floats(0.0126, 4.0)) * std, seed)


class TestBlockDraws:
    """``simulate`` draws process noise in blocks; ``naive_simulate`` redraws
    one numpy scalar at a time. Observation noise is drawn after the process
    noise, so equal observations also mean equal generator positions."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        x0=st.floats(0.0, 1.0),
        beta=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 1.0),
        steps=st.integers(1, 400),
        noise=_noise_specs(),
    )
    # test_acceptance_floor's z: ~100 draws per kept sample
    @example(x0=0.01, beta=0.8076, gamma=0.2692, steps=400,
             noise=NoiseSpec(1.0, 1e-3, 0.0126, seed=0))
    # x0 = 0 and x0 = 1 at rates that keep the state there: clamped about every other step
    @example(x0=0.0, beta=0.0, gamma=1.0, steps=200,
             noise=NoiseSpec(1e-2, 1e-3, 2e-2, seed=1))
    @example(x0=1.0, beta=1.0, gamma=0.0, steps=200,
             noise=NoiseSpec(1e-2, 1e-3, 2e-2, seed=2))
    def test_bitwise_equal_to_one_draw_at_a_time(self, x0, beta, gamma, steps, noise):
        params = SisParams(beta, gamma)
        fast = simulate(x0, params, steps, noise)
        naive = naive_simulate(x0, params, steps, noise)
        for name in ("states", "observations", "process_noise"):
            assert getattr(fast, name).tobytes() == getattr(naive, name).tobytes(), name


class TestSettledSimulation:
    """Without process noise, ``simulate`` fills the states after an exact fixed
    point in place of stepping to them; ``naive_simulate`` steps every state."""

    @pytest.mark.parametrize("x0, params, noise", [
        (0.01, FIG1, None),  # settles at step 474
        (0.01, FIG3, NoiseSpec(0.0, 0.0, 0.0, seed=3)),  # noise on, all of it zero
        (0.01, FIG3, NoiseSpec(0.0, 1e-3, 0.0, seed=3)),  # observation noise alone
        (0.3, SisParams(0.1, 0.95), None),  # settles at 0
        (0.3, SisParams(1.0, 0.0), NoiseSpec(0.0, 1e-3, 0.0, seed=4)),  # settles at 1
        (0.0, FIG3, None),  # at 0 from the start
        (-0.0, SisParams(0.0, 0.0), None),  # -0.0 steps to 0.0, which stays
        (1.0, SisParams(0.5, 0.0), None),  # at 1 from the start
    ])
    def test_bitwise_equal_to_stepping_every_state(self, x0, params, noise):
        fast = simulate(x0, params, 800, noise)
        naive = naive_simulate(x0, params, 800, noise)
        for name in ("states", "observations", "process_noise"):
            assert getattr(fast, name).tobytes() == getattr(naive, name).tobytes(), name
        true_states = simulate(x0, params, 800).states
        assert true_states[-2] == true_states[-1]  # the run did settle


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="process_noise"):
            Trajectory(states=np.zeros(5), process_noise=np.zeros(5))

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="states"):
            Trajectory(states=np.array([0.1, np.nan]), process_noise=np.array([0.0]))
        # finite states whose difference overflows
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="observations"):
            Trajectory(states=np.array([-1e308, 1e308]), process_noise=np.array([0.0]))

    def test_observations_are_derived_from_the_states(self):
        traj = Trajectory(states=[0.1, 0.25, 0.2], process_noise=[0.0, 0.0])
        assert traj.observations.tobytes() == np.diff([0.1, 0.25, 0.2]).tobytes()
        with pytest.raises(TypeError):
            Trajectory(states=[0.1, 0.2], observations=[0.1], process_noise=[0.0])

    def test_csv_export(self, tmp_path):
        traj = simulate(0.01, FIG3, 10)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# sisid-trajectory-v2"
        assert lines[1] == "step,state,noise_applied"
        assert len(lines) == 13  # schema + header + 10 transition rows + final state row
        assert lines[2] == "0,0.01,0.0"
        assert lines[-1] == f"10,{traj.states[-1].item()!r},"

    def test_a_repeated_tail_is_written_as_each_row_is(self, tmp_path):
        # the state settles, but the noise column flips a zero's sign in the tail,
        # so only its last rows repeat bit for bit
        noise = [1e-3, -2e-3, 0.0, -0.0, -0.0, 0.0, -0.0] + [0.0] * 5
        states = [0.1, 0.2, 0.3] + [0.25] * 10
        traj = Trajectory(states=states, process_noise=noise)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        rows = [*zip(range(12), states, noise), (12, 0.25, None)]
        columns = ("step", "state", "noise_applied")
        assert path.read_bytes() == naive_trace_csv("sisid-trajectory-v2", columns, rows)
        assert b"6,0.25,-0.0\r\n7,0.25,0.0\r\n" in path.read_bytes()

    def test_csv_export_returns_the_digest_of_the_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        digest = simulate(0.01, FIG3, 600).to_csv(path)  # 603 lines: three chunks
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


class TestWriteTrace:
    """``write_trace`` writes the schema line, the header and the lines, and
    returns the sha256 of exactly the bytes on disk, across chunk boundaries."""

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000])
    def test_writes_and_hashes_the_bytes_on_disk(self, tmp_path, n):
        rows = [(k, k / 7.0, None if k % 3 else -0.0) for k in range(n)]
        lines = (f"{k},{x!r},{'' if z is None else repr(z)}" for k, x, z in rows)
        path = tmp_path / "trace.csv"
        digest = write_trace(path, "test-v1", ("k", "x", "z"), lines)
        written = path.read_bytes()
        assert written == naive_trace_csv("test-v1", ("k", "x", "z"), rows)
        assert digest == hashlib.sha256(written).hexdigest()
