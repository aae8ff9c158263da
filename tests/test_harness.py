import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sisid import harness
from sisid.config import (
    ESTIMATOR_KINDS,
    ConfigError,
    EstimatorSettings,
    ExperimentConfig,
    bundled_config_path,
    config_from_mapping,
    config_to_mapping,
    format_config_text,
    load_config,
    load_config_mapping,
    parse_config_text,
)
from sisid.dynamics import TRAJECTORY_SCHEMA, NoiseSpec, SisParams, Trajectory, simulate
from sisid.excitation import (
    GREEDY_SCHEMA,
    SIS_REGRESSOR,
    sis_regressor,
    sis_regressor_pair,
    write_acceptance_trace,
)
from sisid.harness import (
    MetricsRow,
    fim_condition_trace,
    run_experiment,
)
from sisid.linalg import ConditioningError, condition_number, sym2
import sisid
from sisid import cli
from sisid.estimators import (
    GrlsState,
    ef_rls_step,
    ie_mmai_init,
    ie_mmai_kernel,
    ie_mmai_selected,
    pure_gd_kernel,
    run_grls,
)

from _oracles import (
    lockstep_run,
    naive_fim_condition_trace,
    naive_metrics_csv,
    naive_trace_csv,
    reference_sym2_spectrum,
)

FIG3 = SisParams(beta=0.8076, gamma=0.2692)


def small_config(**overrides):
    base = dict(
        sis=FIG3,
        x0=0.01,
        steps=60,
        noise=None,
        estimators=(
            EstimatorSettings(kind="pure_gd"),
            EstimatorSettings(kind="grls"),
        ),
        outputs="runs/out",
        emit=("metrics",),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def constant_trajectory(states):
    states = np.asarray(states, dtype=float)
    return Trajectory(states=states, process_noise=np.zeros(len(states) - 1))


def _fim_trace(pairs, alpha):
    """The run's FIM pass over regressor pairs, as a list."""
    return harness._fim_condition_trace([(u1, u2, 0.0) for u1, u2 in pairs], alpha).data.tolist()


class TestFimConditionTrace:
    def test_zero_trajectory_is_always_singular(self):
        traj = constant_trajectory(np.zeros(20))
        assert all(c == math.inf for c in fim_condition_trace(traj, SIS_REGRESSOR, 0.94))

    def test_first_step_is_rank_one(self):
        traj = simulate(0.01, FIG3, 10)
        trace = fim_condition_trace(traj, SIS_REGRESSOR, 0.94)
        assert trace[0] == math.inf
        assert any(math.isfinite(c) for c in trace[2:])

    def test_a_settled_trajectory_gives_a_list_to_its_last_step(self):
        traj = simulate(0.01, FIG3, 300)  # its states repeat from well before step 300
        trace = fim_condition_trace(traj, SIS_REGRESSOR, 0.94)
        assert type(trace) is list and len(trace) == 300
        assert repr(trace) == repr(naive_fim_condition_trace(
            map(sis_regressor_pair, traj.states[:-1].tolist()), 0.94))

    def test_noisy_run_reaches_large_conditioning(self):
        traj = simulate(
            0.01,
            SisParams(beta=0.62929, gamma=0.20976),
            1500,
            NoiseSpec(process_std=1e-3, observation_std=1e-3, bound_nu=5e-3, seed=2),
        )
        trace = fim_condition_trace(traj, SIS_REGRESSOR, 0.94)
        finite = [c for c in trace if math.isfinite(c)]
        assert max(finite) > 1e3

    @pytest.mark.parametrize("alpha", [math.nan, -0.5, 0.0, 1.5])
    def test_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            fim_condition_trace(simulate(0.01, FIG3, 10), SIS_REGRESSOR, alpha)

    def test_overflowing_entries_name_the_first_step(self):
        # 1e308 at step 0 is finite; 0.94 * 1e308 + 4e308 at step 1 is not
        traj = constant_trajectory([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="not finite from step 1"):
            fim_condition_trace(traj, lambda x: (1e154 * x, 1.0), 0.94)

    @staticmethod
    def _outcome(trace, *args):
        try:
            return repr(trace(*args))
        except ValueError as exc:
            return f"ValueError: {exc}"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        scale=st.floats(150.0, 160.0).map(lambda e: 10.0**e),
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        signs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1,
                       max_size=40),
    )
    def test_single_pass_equals_a_per_step_check(self, scale, alpha, signs):
        # regressors straddle overflow: entries up to 1e320 before discounting
        pairs = [(scale * s1, scale * s2) for s1, s2 in signs]
        traj = constant_trajectory(range(len(pairs) + 1))
        reg = lambda x: pairs[int(x)]  # noqa: E731
        assert self._outcome(fim_condition_trace, traj, reg, alpha) == self._outcome(
            naive_fim_condition_trace, pairs, alpha
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("step", [0, 3])
    def test_a_non_finite_entry_is_named_at_its_step(self, bad, step):
        # NaN included: the check must not read NaN entries as finite
        pairs = [(0.1 * k, -0.2) for k in range(6)]
        pairs[step] = (0.1, bad)
        outcome = self._outcome(_fim_trace, pairs, 0.94)
        assert outcome.endswith(f"not finite from step {step}")
        assert outcome == self._outcome(naive_fim_condition_trace, pairs, 0.94)

    @pytest.mark.parametrize("pairs, alpha", [
        # one pair throughout: the entries reach their fixed point, as on fig1
        ([(0.0891, -0.099)] * 2000, 0.94),
        # all-zero pairs, of either sign: the FIM is zero and its condition inf
        ([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)] * 50, 0.94),
        # alpha * a underflows at once, so each step's entries are its pair's
        ([(0.3, -0.2)] * 5 + [(0.1, 0.4)] * 5 + [(0.3, -0.2)] * 5, 5e-324),
        # a and b decay to 0.0 and -0.0 by step 12 while d settles at 2.0
        ([(1e-160, -1e-160)] + [(0.0, -1.0)] * 2000, 0.5),
        # a and d settle at 2.0 while b keeps changing with the pairs' signs
        ([(1.0, 1.0), (1.0, 1.0), (1.0, -1.0)] * 700, 0.5),
    ], ids=["fixed-point", "zero", "underflowing-alpha", "signed-zero-entries",
            "b-alone-changes"])
    def test_repeated_entries_equal_a_per_step_check(self, pairs, alpha):
        trace = harness._fim_condition_trace([(u1, u2, 0.0) for u1, u2 in pairs], alpha).data
        assert repr(trace.tolist()) == repr(naive_fim_condition_trace(pairs, alpha))
        # the writer forms each text once per run of numbers with equal bits
        values = np.frombuffer(trace)
        texts = harness._texts(values)
        assert texts == [repr(kappa) for kappa in trace]
        bits = values.view(np.int64).tolist()
        assert [texts[k] is texts[k - 1] for k in range(1, len(texts))] == [
            bits[k] == bits[k - 1] for k in range(1, len(bits))
        ]


class TestConfigParsing:
    def test_round_trip_through_text(self):
        for name in ("fig1", "fig2", "fig3_noisefree", "fig3_noisy"):
            config = load_config(bundled_config_path(name))
            assert parse_config_text(format_config_text(config)) == config

    def test_round_trip_through_mapping(self):
        config = small_config(noise=NoiseSpec(seed=9))
        assert config_from_mapping(config_to_mapping(config)) == config

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError, match="steps"):
            config_from_mapping(
                {"beta": "0.5", "gamma": "0.2", "x0": "0.01", "steps": "0",
                 "estimators": "pure_gd"}
            )

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError, match="kalman"):
            config_from_mapping(
                {"beta": "0.5", "gamma": "0.2", "x0": "0.01", "steps": "10",
                 "estimators": "kalman"}
            )

    def test_duplicate_estimator_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_mapping(
                {"beta": "0.5", "gamma": "0.2", "x0": "0.01", "steps": "10",
                 "estimators": "grls, grls"}
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="grls.models"):
            config_from_mapping(
                {"beta": "0.5", "gamma": "0.2", "x0": "0.01", "steps": "10",
                 "estimators": "grls", "grls.models": "3"}
            )

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config_text("gamma = 0.2\nx0 = 0.01\nsteps = 10\nestimators = grls\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("this is not a key value pair\n")

    def test_bad_emit_kind(self):
        with pytest.raises(ConfigError, match="emit"):
            config_from_mapping(
                {"beta": "0.5", "gamma": "0.2", "x0": "0.01", "steps": "10",
                 "estimators": "grls", "emit": "plots"}
            )

    def test_unreachable_noise_bound_rejected(self):
        with pytest.raises(ConfigError, match="bound_nu"):
            config_from_mapping(
                {"beta": "0.5", "gamma": "0.2", "x0": "0.01", "steps": "10",
                 "estimators": "grls", "noise": "on", "noise.process_std": "1.0",
                 "noise.bound_nu": "1e-9"}
            )

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError, match="available"):
            bundled_config_path("fig9")


class TestRunExperiment:
    def test_in_memory_run_produces_rows(self):
        result = run_experiment(small_config(emit=()))
        assert result.output_dir is None
        assert result.status == 0
        assert len(result.rows) == 60 * 2
        kinds = {row.estimator for row in result.rows}
        assert kinds == {"pure_gd", "grls"}

    def test_row_fields(self):
        result = run_experiment(small_config(steps=200, emit=()))
        grls_rows = [r for r in result.rows if r.estimator == "grls"]
        gd_rows = [r for r in result.rows if r.estimator == "pure_gd"]
        assert grls_rows[0].accepted is True
        assert grls_rows[0].p_cond is not None
        assert gd_rows[0].p_cond is None
        assert gd_rows[0].accepted is None
        final = grls_rows[-1]
        assert final.r0_hat == pytest.approx(3.0, abs=1e-4)
        assert final.max_rel_err < 1e-5
        assert final.log10_max_rel_err < -5

    def test_bundled_fig1_stalls_parameters_but_recovers_ratio(self, tmp_path):
        config = load_config(bundled_config_path("fig1"))
        result = run_experiment(config, output_dir=tmp_path / "fig1")
        assert result.status == 0
        rows = [r for r in result.rows if r.estimator == "pure_gd"]
        assert abs(rows[-1].r0_hat - 3.0) < 0.15
        assert rows[-1].max_rel_err > 0.2

    def test_bundled_fig3_comparison_run(self, tmp_path):
        config = load_config(bundled_config_path("fig3_noisefree"))
        result = run_experiment(config, output_dir=tmp_path / "fig3")
        grls_rows = [r for r in result.rows if r.estimator == "grls"]
        assert grls_rows[-1].max_rel_err < 1e-2
        # the forgetting-only baseline winds up and dies partway through
        assert result.status == 1
        assert {e["estimator"] for e in result.manifest["errors"]} == {"ef_rls"}
        for name in ("metrics.csv", "trajectory.csv", "greedy.csv", "manifest.json"):
            assert (tmp_path / "fig3" / name).exists()

    def test_numerical_error_is_logged_not_fatal(self, tmp_path):
        config = small_config(
            steps=800,
            estimators=(
                EstimatorSettings(kind="ef_rls"),
                EstimatorSettings(kind="grls"),
            ),
            emit=("metrics",),
        )
        result = run_experiment(config, output_dir=tmp_path / "run")
        assert result.status == 1
        (error,) = result.manifest["errors"]
        assert error["estimator"] == "ef_rls"
        assert 500 < error["step"] < 700
        # frozen after the failure: estimate rows keep the last value
        ef_rows = [r for r in result.rows if r.estimator == "ef_rls"]
        frozen = [r.beta_hat for r in ef_rows[error["step"]:]]
        assert len(set(frozen)) == 1
        # the healthy estimator keeps converging
        grls_rows = [r for r in result.rows if r.estimator == "grls"]
        assert grls_rows[-1].max_rel_err < 1e-6

    def test_reproducible_outputs(self, tmp_path):
        config = small_config(
            noise=NoiseSpec(seed=5),
            estimators=(
                EstimatorSettings(kind="grls"),
                EstimatorSettings(kind="ie_mmai", seed=3),
            ),
            emit=("metrics", "trajectory", "greedy"),
        )
        r1 = run_experiment(config, output_dir=tmp_path / "a")
        r2 = run_experiment(config, output_dir=tmp_path / "b")
        for name in ("metrics.csv", "trajectory.csv", "greedy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        h1 = {f["name"]: f["sha256"] for f in r1.manifest["files"]}
        h2 = {f["name"]: f["sha256"] for f in r2.manifest["files"]}
        assert h1 == h2
        # timings vary between the runs, and only the manifest carries them
        assert "timings" in json.loads((tmp_path / "a" / "manifest.json").read_text())

    def test_manifest_timings_and_excitation_set(self, tmp_path):
        config = small_config(
            steps=200,
            noise=NoiseSpec(seed=5),
            estimators=(EstimatorSettings(kind="ef_rls"), EstimatorSettings(kind="grls")),
            emit=("metrics", "greedy"),
        )
        result = run_experiment(config, output_dir=tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == {"simulate_s", "fim_trace_s", "excitation_s", "step_s",
                                "metrics_rows_s", "write_s"}
        assert set(timings["step_s"]) == {"ef_rls", "grls"}
        assert all(t >= 0.0 for t in (*timings.values(), *timings["step_s"].values())
                   if not isinstance(t, dict))
        assert timings["write_s"] > 0.0
        accepted = [r.step for r in result.rows if r.estimator == "grls" and r.accepted]
        greedy = (tmp_path / "run" / "greedy.csv").read_text().splitlines()
        assert manifest["excitation"] == {
            "size": len(accepted),
            "indices": accepted,
            "final_kappa": float(greedy[-1].split(",")[3]),
        }
        assert math.isfinite(manifest["excitation"]["final_kappa"])
        assert manifest["environment"] == {
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
        }

    def test_wall_time_covers_every_phase(self, tmp_path):
        # the phases and the whole run are read off one clock
        config = small_config(steps=200, emit=("metrics", "trajectory", "greedy"))
        run_experiment(config, output_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        timings = manifest["timings"]
        phases = [timings["simulate_s"], timings["fim_trace_s"], timings["excitation_s"],
                  *timings["step_s"].values(), timings["metrics_rows_s"], timings["write_s"]]
        assert len(phases) == 7
        assert manifest["wall_time_s"] >= sum(phases) > 0.0

    def test_in_memory_manifest_has_no_write_time(self):
        result = run_experiment(small_config(steps=1, emit=()))
        assert result.manifest["timings"]["write_s"] == 0.0
        # a one-point set is rank deficient: its condition number is null, not Infinity
        assert result.manifest["excitation"] == {"size": 1, "indices": [0], "final_kappa": None}

    def test_manifest_lists_every_file_with_hash(self, tmp_path):
        import hashlib

        config = small_config(emit=("metrics", "trajectory", "greedy"))
        result = run_experiment(config, output_dir=tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        names = {f["name"] for f in manifest["files"]}
        csvs = {p.name for p in (tmp_path / "run").glob("*.csv")}
        assert names == csvs
        for entry in manifest["files"]:
            digest = hashlib.sha256((tmp_path / "run" / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
        assert manifest["config"]["beta"] == repr(FIG3.beta)

    def test_reported_p_cond_matches_recomputation(self):
        config = small_config(
            steps=80,
            estimators=(EstimatorSettings(kind="ef_rls"),),
            emit=(),
        )
        result = run_experiment(config)
        traj = result.trajectory
        p = 100.0 * np.eye(2)
        theta = np.array([1.0, 1.0])
        recomputed = {}
        for k in range(traj.step_count):
            p, theta = ef_rls_step(
                (p, theta), sis_regressor(traj.states[k]), traj.observations[k], 0.94
            )
            recomputed[k] = condition_number(p)
        for row in result.rows:
            if row.step in (0, 20, 79):
                assert row.p_cond == pytest.approx(recomputed[row.step], rel=1e-12)

    def test_metrics_csv_schema_line(self, tmp_path):
        config = small_config(emit=("metrics",))
        run_experiment(config, output_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "# sisid-metrics-v2"
        assert lines[1] == (
            "step,estimator,beta_hat,gamma_hat,max_rel_err,fim_cond,p_cond,p_max_eig,accepted"
        )

    def test_invalid_config_raises_before_running(self):
        with pytest.raises(ConfigError):
            run_experiment(small_config(steps=0))

    def test_clamp_affects_reporting_only(self):
        # starting at zero, the first gradient step drives gamma_hat negative
        def run(clamp):
            return run_experiment(
                small_config(
                    steps=40,
                    estimators=(EstimatorSettings(kind="pure_gd", theta0=(0.0, 0.0)),),
                    emit=(),
                    clamp_estimates=clamp,
                )
            )

        raw, clamped = run(False), run(True)
        raw_gammas = np.array([r.gamma_hat for r in raw.rows])
        clamped_gammas = np.array([r.gamma_hat for r in clamped.rows])
        assert raw_gammas.min() < 0
        assert clamped_gammas.min() == 0.0
        assert np.array_equal(np.maximum(raw_gammas, 0.0), clamped_gammas)
        # clamped-to-zero gamma leaves the ratio undefined in that row
        first = clamped.rows[0]
        assert first.gamma_hat == 0.0 and first.r0_hat is None
        # the underlying iteration is untouched: beta rows agree wherever raw >= 0
        raw_betas = np.array([r.beta_hat for r in raw.rows])
        clamped_betas = np.array([r.beta_hat for r in clamped.rows])
        assert np.array_equal(np.maximum(raw_betas, 0.0), clamped_betas)

    def test_clamp_round_trips_through_config_text(self):
        config = small_config(clamp_estimates=True)
        assert parse_config_text(format_config_text(config)) == config


class TestCli:
    def test_validate_bundled(self, capsys):
        assert cli.main(["validate", "fig1"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_reports_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("beta = 0.5\ngamma = 0.2\nx0 = 0.01\nsteps = 0\nestimators = grls\n")
        assert cli.main(["validate", str(bad)]) == 2
        assert "steps" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "beta = 0.8076\ngamma = 0.2692\nx0 = 0.01\nsteps = 40\n"
            "estimators = grls\nemit = metrics, greedy\n"
            f"outputs = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_output_root_env_override(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "beta = 0.8076\ngamma = 0.2692\nx0 = 0.01\nsteps = 20\n"
            "estimators = pure_gd\nemit = metrics\noutputs = rel/dir\n"
        )
        monkeypatch.setenv("SISID_OUTPUT_ROOT", str(tmp_path / "root"))
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "root" / "rel" / "dir" / "metrics.csv").exists()

    def test_sweep_runs_each_value(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "beta = 0.8076\ngamma = 0.2692\nx0 = 0.01\nsteps = 30\n"
            "estimators = grls\nemit = metrics\n"
            f"outputs = {tmp_path / 'sweep_out'}\n"
        )
        assert cli.main(["sweep", str(cfg), "--param", "grls.alpha", "--values", "0.9,0.95"]) == 0
        assert (tmp_path / "sweep_out" / "grls_alpha=0.9" / "metrics.csv").exists()
        assert (tmp_path / "sweep_out" / "grls_alpha=0.95" / "metrics.csv").exists()

    def test_sweep_checks_every_value_before_running(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "beta = 0.8076\ngamma = 0.2692\nx0 = 0.01\nsteps = 30\n"
            "estimators = grls\nemit = metrics, trajectory\n"
            f"outputs = {tmp_path / 'sweep_out'}\n"
        )
        assert cli.main(["sweep", str(cfg), "--param", "steps", "--values", "3,abc"]) == 2
        assert "steps: expected an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "sweep_out").exists()

    @pytest.mark.parametrize("values", [",", " , "])
    def test_sweep_without_values_exits_2(self, tmp_path, capsys, values):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "beta = 0.8076\ngamma = 0.2692\nx0 = 0.01\nsteps = 30\n"
            f"estimators = grls\nemit = metrics\noutputs = {tmp_path / 'sweep_out'}\n"
        )
        assert cli.main(["sweep", str(cfg), "--param", "grls.alpha", "--values", values]) == 2
        assert "--values: expected at least one value" in capsys.readouterr().err
        assert not (tmp_path / "sweep_out").exists()

    @pytest.mark.parametrize("values", ["0.1,0.1", "0.9, 0.1 ,0.1", "0.1,0.2,0.1 ", "0.1,0.10"])
    def test_sweep_with_a_duplicate_value_exits_2(self, tmp_path, capsys, values):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "beta = 0.8076\ngamma = 0.2692\nx0 = 0.01\nsteps = 30\n"
            f"estimators = grls\nemit = metrics\noutputs = {tmp_path / 'sweep_out'}\n"
        )
        assert cli.main(["sweep", str(cfg), "--param", "grls.alpha", "--values", values]) == 2
        assert "--values: duplicate value '0.1" in capsys.readouterr().err
        assert not (tmp_path / "sweep_out").exists()

    def test_sweep_values_differing_in_a_zero_s_sign_both_run(self, tmp_path):
        # 0.0 and -0.0 compare equal, but their configs' reprs differ
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "beta = 0.8076\ngamma = 0.2692\nx0 = 0.01\nsteps = 30\n"
            f"estimators = grls\nemit = metrics\noutputs = {tmp_path / 'sweep_out'}\n"
        )
        assert cli.main(["sweep", str(cfg), "--param", "x0", "--values", "0.0,-0.0"]) == 0
        assert sorted(p.name for p in (tmp_path / "sweep_out").iterdir()) == ["x0=-0.0", "x0=0.0"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys, command):
        # the output directory lies under a regular file, so it cannot be made
        (tmp_path / "afile").write_text("")
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "beta = 0.8076\ngamma = 0.2692\nx0 = 0.01\nsteps = 20\n"
            f"estimators = grls\nemit = metrics\noutputs = {tmp_path / 'afile' / 'out'}\n"
        )
        argv = [command, str(cfg)]
        if command == "sweep":
            argv += ["--param", "grls.alpha", "--values", "0.9"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "afile" in err
        assert err.count("\n") == 1
        if command == "sweep":
            assert err.startswith("error: grls.alpha=0.9: ")
            assert err.endswith(" (0 of 1 written)\n")

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    @pytest.mark.parametrize("kind", ["undecodable", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command, kind):
        path = tmp_path / "bad.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff")
        argv = [command, str(path)]
        if command == "sweep":
            argv += ["--param", "steps", "--values", "3"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: cannot ")
        assert err.count("\n") == 1

    def test_run_reports_numerical_errors(self, tmp_path, capsys):
        cfg = tmp_path / "windup.cfg"
        cfg.write_text(
            "beta = 0.8076\ngamma = 0.2692\nx0 = 0.01\nsteps = 700\n"
            "estimators = ef_rls\nemit = metrics\n"
            f"outputs = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", str(cfg)]) == 1
        assert "numerical error" in capsys.readouterr().err


def test_online_use_imports_neither_scipy_nor_hashlib():
    # scipy is not a dependency; hashlib is loaded only to hash written traces
    code = textwrap.dedent(
        """
        import sys
        import sisid
        traj = sisid.simulate(0.01, sisid.SisParams(0.8076, 0.2692), 200)
        state = sisid.GrlsState.initial([1.0, 1.0], sisid.SIS_REGRESSOR)
        final = sisid.run_grls(state, traj)[-1]
        spec = sisid.WeightedCostSpec.from_grls(final, 100.0, [1.0, 1.0])
        sisid.batch_oracle(traj, sisid.SIS_REGRESSOR, spec, 199)
        print(sorted(m for m in ("scipy", "hashlib") if m in sys.modules))
        """
    )
    src = str(Path(sisid.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


# sha256 of what the bundled configs wrote before the step loop moved to
# floats. The trajectories, the acceptance traces, and the EF-RLS and GRLS
# metrics rows (each estimator's lines, \r\n included, in file order) must
# not move; pure-GD and IE-MMAI rows may differ in the last bits, because
# u1*t1 + u2*t2 rounds differently from numpy's 1x2 matmul. The metrics pins
# are of the sisid-metrics-v1 text, all eleven fields of every row, and the
# trajectory pins of the sisid-trajectory-v1 text of the run's trajectory,
# which is what those files held; the v2 files a run writes are pinned below.
PINNED_FILES = {
    "fig1/trajectory.csv": "c748a6c03894014f04e7dcd9c3ed3b407b719c1b442b5eca5d7c478bbba4cd91",
    "fig2/trajectory.csv": "8dd5175511970596275a084647a34e94690fbb5064772c9f12c9b6e6f9d50c68",
    "fig3_noisefree/trajectory.csv":
        "4b6c4627e2aead3b3d5fa2b292b94d699a287f88813d0f11b886f6b0aa57f8bf",
    "fig3_noisefree/greedy.csv": "21b0d557c479f7b29d31946b7d75ba3205f920faab1adbd4abbe45ae768aec2f",
    "fig3_noisy/trajectory.csv": "6f5ef32dc4f5ef15ddb2186d18001b11bbf43941a739a89a2ac2fbc126c329f7",
    "fig3_noisy/greedy.csv": "5f0c61d7df91c559d4657cebdcbf36b753ae37676ea4dc2ed43edb5250cb6fbb",
    # every estimator's rows, schema and header lines included
    "fig1/metrics.csv": "041b2f30c406a862d81ce16c5f63a27380955e5eac706b2335c027a09c10b4d7",
    "fig2/metrics.csv": "2783ef1bb08d8aef96af11fd3559f50d65afdbec58338f33919165c7a99470b8",
    "fig3_noisefree/metrics.csv":
        "554f093315cfe70f1031e3ee1298877f34414ecda2b2f0d01d2c6dc1f90600e8",
    "fig3_noisy/metrics.csv": "63bd2c9fd62e7fba99058c56c76c53e6558b0f7e43e9f244f18dd563f36c310c",
}
PINNED_METRICS_ROWS = {
    "fig3_noisefree/ef_rls": "6f1c4e12b375acf3be426e1bcd35916755539cabd93b38bd9c3a9d0b88285e1a",
    "fig3_noisefree/grls": "2b87ba7732dbc265464b2b16c617e64deabe5a3a923cbfffeacf0efc8caf055c",
    "fig3_noisy/ef_rls": "b29023b5ba3efd24dc8ee947516ad7fc70cf22f7805e529beb4a72acc6bda5e3",
    "fig3_noisy/grls": "739857b70d402d7636f946cd7d364ee6bad837560ab31cf083670ed8589176f1",
}
# sha256 of the sisid-metrics-v2 files, which drop r0_hat and log10_max_rel_err
PINNED_METRICS_V2_FILES = {
    "fig1/metrics.csv": "69f27462d61a6be72023d0f6d2ab27a7c42c2962f10c5a33adf900a8b9391309",
    "fig2/metrics.csv": "14912f7f6761868f01f127c99a3b51598d84f46b60b4451f39bdb445b7825b7f",
    "fig3_noisefree/metrics.csv":
        "3735195645d94925c08d74c0992d8f1c1286c0f758c0731e0d90d392cd8c939c",
    "fig3_noisy/metrics.csv": "0d8b5b95a52363b1fb96844f5e071616e35fc7a016bf949c3069dd8f6f4340da",
}
# sha256 of the sisid-trajectory-v2 files, which drop the observation column
PINNED_TRAJECTORY_V2_FILES = {
    "fig1/trajectory.csv": "3a817af7f6c977da623db3b9e547a84a502f58337d3559d0c298078b916b5e06",
    "fig2/trajectory.csv": "53a97d83502e54c528f071a86a4181ab83082777d36d6849587e8a3b433185a9",
    "fig3_noisefree/trajectory.csv":
        "eb1fa3cc87dc56abe3b5dd78005108c97f0ae2c9196894f2c4f7ef29bacae968",
    "fig3_noisy/trajectory.csv": "13b0b4606d9425cbd87001f55472fba89da638875118a263853f23095976f0d3",
}
BUNDLED = ("fig1", "fig2", "fig3_noisefree", "fig3_noisy")


def _metrics_v1_text(result) -> bytes:
    """The sisid-metrics-v1 text of a run's rows: every field, each formatted anew."""
    return naive_trace_csv("sisid-metrics-v1", MetricsRow._fields, result.rows)


def _trajectory_v1_text(traj) -> bytes:
    """The sisid-trajectory-v1 text of a trajectory: its observations written too."""
    n = traj.step_count
    rows = [*zip(range(n), traj.states[:-1].tolist(), traj.observations.tolist(),
                 traj.process_noise.tolist()), (n, traj.states[-1].item(), None, None)]
    columns = ("step", "state", "observation", "noise_applied")
    return naive_trace_csv("sisid-trajectory-v1", columns, rows)


class TestPinnedOutputs:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bundled")
        results = {
            name: run_experiment(load_config(bundled_config_path(name)), output_dir=root / name)
            for name in BUNDLED
        }
        return root, results

    @pytest.mark.parametrize("name", sorted(PINNED_FILES))
    def test_trace_files(self, runs, name):
        import hashlib

        root, results = runs
        run, file = name.split("/")
        if file == "metrics.csv":
            data = _metrics_v1_text(results[run])
        elif file == "trajectory.csv":
            data = _trajectory_v1_text(results[run].trajectory)
        else:
            data = (root / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == PINNED_FILES[name]

    @pytest.mark.parametrize("name", sorted(PINNED_METRICS_V2_FILES))
    def test_metrics_v2_files(self, runs, name):
        import hashlib

        root, _ = runs
        digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
        assert digest == PINNED_METRICS_V2_FILES[name]

    @pytest.mark.parametrize("name", sorted(PINNED_TRAJECTORY_V2_FILES))
    def test_trajectory_v2_files(self, runs, name):
        import hashlib

        root, _ = runs
        digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
        assert digest == PINNED_TRAJECTORY_V2_FILES[name]

    @pytest.mark.parametrize("key", sorted(PINNED_METRICS_ROWS))
    def test_rls_metrics_rows(self, runs, key):
        import hashlib

        _, results = runs
        name, kind = key.split("/")
        lines = _metrics_v1_text(results[name]).splitlines(keepends=True)
        rows = b"".join(line for line in lines if line.split(b",")[1:2] == [kind.encode()])
        assert rows.count(b"\r\n") == 2000
        assert hashlib.sha256(rows).hexdigest() == PINNED_METRICS_ROWS[key]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_metrics_file_equals_the_naive_writer(self, runs, name):
        root, results = runs
        assert (root / name / "metrics.csv").read_bytes() == naive_metrics_csv(results[name].rows)

    def test_ef_rls_fails_at_step_570_on_fig3_noisefree(self, runs):
        _, results = runs
        errors = results["fig3_noisefree"].manifest["errors"]
        assert [(e["estimator"], e["step"]) for e in errors] == [("ef_rls", 570)]
        assert all(results[name].status == 0 for name in BUNDLED if name != "fig3_noisefree")


def _fig3_noisy_with(kind, **fields):
    """fig3_noisy in memory with only estimator ``kind``, ``fields`` changed."""
    config = load_config(bundled_config_path("fig3_noisy"))
    est = next(e for e in config.estimators if e.kind == kind)
    return run_experiment(replace(config, estimators=(replace(est, **fields),), emit=()))


def _failures(result):
    return [(e["estimator"], e["step"]) for e in result.manifest["errors"]]


def _assert_estimates_finite(result):
    for row in result.rows:
        values = (row.beta_hat, row.gamma_hat, row.r0_hat, row.max_rel_err)
        assert all(math.isfinite(v) for v in values if v is not None), row


class TestOverflowingCovariance:
    """A covariance update that overflows fails its estimator at that step,
    and the frozen rows report the last finite estimate."""

    def test_grls_fails_at_step_0_with_a_huge_prior(self):
        # det(P0) = 1e320 overflows in the first refresh
        result = _fig3_noisy_with("grls", p0_scale=1e160)
        assert result.status == 1
        assert _failures(result) == [("grls", 0)]
        _assert_estimates_finite(result)
        # the configured GRLS lane still reports its (empty) excitation set
        assert result.manifest["excitation"] == {"size": 0, "indices": [], "final_kappa": None}
        # one that squares to a finite det still runs to the end
        assert _fig3_noisy_with("grls", p0_scale=1e150).status == 0

    def test_ef_rls_fails_at_step_1_with_a_huge_prior(self):
        result = _fig3_noisy_with("ef_rls", p0_scale=1e200)
        assert result.status == 1
        assert _failures(result) == [("ef_rls", 1)]
        _assert_estimates_finite(result)
        assert "excitation" not in result.manifest  # no GRLS lane
        # P's entries near 1e200 are finite, and so is its largest eigenvalue
        assert math.isfinite(result.rows[0].p_max_eig)


def _fig3_noisy_config(estimators, steps, observation_std):
    """fig3_noisy in memory with ``steps``, ``observation_std`` and the named estimators."""
    config = load_config(bundled_config_path("fig3_noisy"))
    return replace(
        config, steps=steps, noise=replace(config.noise, observation_std=observation_std),
        estimators=tuple(e for e in config.estimators if e.kind in estimators), emit=(),
    )


class TestOverflowingObservationNoise:
    """Observation noise that overflows the regressor's FIM entries is a config
    error, raised before any lane steps or any file is written."""

    @pytest.mark.parametrize("std", [1e100, 1e200])
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_run_raises_a_config_error(self, tmp_path, kind, std):
        config = _fig3_noisy_config((kind,), 20, std)
        with pytest.raises(ConfigError, match=r"^noise\.observation_std: .* from step 0$"):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_cli_run_exits_2_and_writes_nothing(self, tmp_path, capsys):
        config = replace(_fig3_noisy_config(ESTIMATOR_KINDS, 20, 1e200),
                         outputs=str(tmp_path / "out"), emit=("metrics", "trajectory"))
        cfg = tmp_path / "huge_noise.cfg"
        cfg.write_text(format_config_text(config))
        assert cli.main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: noise.observation_std: 1e+200 ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_cli_sweep_names_the_variant_and_keeps_earlier_ones(self, tmp_path, capsys):
        config = replace(_fig3_noisy_config(("grls",), 20, 1e-3),
                         outputs=str(tmp_path / "out"), emit=("metrics",))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(format_config_text(config))
        argv = ["sweep", str(cfg), "--param", "noise.observation_std", "--values", "0.001,1e200"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: noise.observation_std=1e200: noise.observation_std: ")
        assert err.endswith(" (1 of 2 written)\n")
        assert err.count("\n") == 1
        assert (tmp_path / "out" / "noise_observation_std=0.001" / "metrics.csv").exists()
        assert not (tmp_path / "out" / "noise_observation_std=1e200").exists()

    # at fig3_noisy's 2,000 steps, noise from 3e307 makes a state difference, and
    # from 5e307 a state, overflow before the FIM entries can
    @pytest.mark.parametrize("std", [3e307, 1e308])
    def test_non_finite_states_are_a_config_error(self, tmp_path, capsys, std):
        config = _fig3_noisy_config(ESTIMATOR_KINDS, 2000, std)
        message = r"^noise\.observation_std: .* states or their differences are not finite$"
        with pytest.raises(ConfigError, match=message):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        cfg = tmp_path / "huge_noise.cfg"
        cfg.write_text(format_config_text(replace(config, outputs=str(tmp_path / "out"))))
        assert cli.main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: noise.observation_std: {std!r} ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_a_run_makes_no_cyclic_garbage():
    config = _in_memory("fig3_noisefree")  # every lane, and a failure
    gc.collect()
    result = run_experiment(config)
    assert gc.collect() == 0
    assert result.status == 1


def test_a_written_run_leaves_only_the_garbage_of_dumping_its_manifest(tmp_path):
    # json.dumps with an indent runs the pure-Python encoder, whose closures
    # form cycles; how many depends on the Python version
    config = load_config(bundled_config_path("fig2"))
    gc.disable()  # no automatic collection frees what is counted
    try:
        gc.collect()
        result = run_experiment(config, tmp_path)
        left = gc.collect()
        json.dumps(result.manifest, indent=2)
        assert left == gc.collect()
    finally:
        gc.enable()


def test_a_zero_refresh_denominator_is_a_recorded_grls_failure():
    # a constant state: every offer of its one regressor is accepted, P loses
    # positive definiteness, and at step 47 the refresh's denominator is 0.0
    config = small_config(sis=SisParams(0.0, 0.0), x0=0.25, steps=48, emit=(),
                          estimators=(EstimatorSettings(kind="grls", alpha=0.5),))
    result = run_experiment(config)
    assert result.status == 1
    assert _failures(result) == [("grls", 47)]
    assert result.manifest["errors"][0]["message"].endswith(" = 0.0")
    _assert_estimates_finite(result)


def test_gradient_lanes_fail_where_their_estimate_stops_being_finite():
    # at fig3_noisy's noise seed 2, pure GD and IE-MMAI overflow; EF-RLS and GRLS stay finite
    result = run_experiment(_fig3_noisy_config(ESTIMATOR_KINDS, 200, 10.0))
    assert result.status == 1
    assert _failures(result) == [("pure_gd", 91), ("ie_mmai", 93)]
    _assert_estimates_finite(result)
    for kind, step in _failures(result):
        rows = [r for r in result.rows if r.estimator == kind]
        assert len({(r.beta_hat, r.gamma_hat) for r in rows[step - 1:]}) == 1


@pytest.mark.parametrize("beta, gamma", [(0.0, 0.2692), (0.8076, 0.0)])
def test_a_zero_true_rate_leaves_the_relative_error_empty(tmp_path, beta, gamma):
    config = small_config(sis=SisParams(beta, gamma))
    result = run_experiment(config, tmp_path)
    assert result.status == 0
    assert all(r.max_rel_err is None and r.log10_max_rel_err is None for r in result.rows)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        lines = fh.read().splitlines()[2:]
    assert len(lines) == len(result.rows)
    assert all(line.split(",")[4] == "" for line in lines)


def _recomputed_columns(path):
    """Each line's r0_hat and log10_max_rel_err, recomputed from its written fields."""
    with open(path, newline="") as fh:
        next(fh)  # the schema line
        for line in csv.DictReader(fh):
            beta_hat, gamma_hat = float(line["beta_hat"]), float(line["gamma_hat"])
            max_rel = float(line["max_rel_err"]) if line["max_rel_err"] else None
            yield (beta_hat / gamma_hat if gamma_hat != 0.0 else None,
                   math.log10(max_rel) if max_rel else None)


@pytest.mark.parametrize("config", [
    *(pytest.param(replace(load_config(bundled_config_path(name)), clamp_estimates=clamp),
                   id=f"{name}-clamp={'on' if clamp else 'off'}")
      for name in BUNDLED for clamp in (False, True)),
    *(pytest.param(small_config(sis=SisParams(beta, gamma)), id=f"beta={beta}-gamma={gamma}")
      for beta, gamma in [(0.0, 0.2692), (0.8076, 0.0)]),
])
def test_the_columns_a_metrics_trace_leaves_out_come_back_exactly(tmp_path, config):
    result = run_experiment(config, tmp_path)
    recomputed = list(_recomputed_columns(tmp_path / "metrics.csv"))
    assert len(recomputed) == len(result.rows)
    assert list(map(repr, recomputed)) == [
        repr((row.r0_hat, row.log10_max_rel_err)) for row in result.rows
    ]


def test_rank_one_fim_below_the_normal_range_is_singular():
    # at x0 = 1e-85 the first FIM has entries near 1e-170, whose squares underflow
    config = replace(load_config(bundled_config_path("fig3_noisefree")), x0=1e-85, steps=3)
    result = run_experiment(replace(config, emit=()))
    assert [r.fim_cond for r in result.rows if r.step == 0] == [math.inf] * 4


# A slow epidemic keeps ~100 points in its excitation set over 400 steps.
SLOW_GRLS = ExperimentConfig(
    sis=SisParams(beta=0.12, gamma=0.04), x0=0.01, steps=400, noise=None,
    estimators=(EstimatorSettings(kind="grls"),), emit=(),
)


def _in_memory(name):
    return SLOW_GRLS if name == "slow" else replace(load_config(bundled_config_path(name)), emit=())


def _fail_grls_at_step_5(mp):
    """Make step 5 of the GRLS lane raise ``ConditioningError``."""
    lane = harness._LANES["grls"]

    def failing_at_5(*args):
        for k, report in enumerate(lane(*args)):
            if k == 6:  # the first report precedes step 0
                raise ConditioningError("injected")
            yield report

    mp.setitem(harness._LANES, "grls", failing_at_5)


class TestHarnessLanes:
    """The harness's float lanes report what the public steppers compute."""

    @pytest.mark.parametrize("name", ["fig3_noisy", "slow"])
    def test_grls_rows_equal_grls_step(self, name):
        config = _in_memory(name)
        result = run_experiment(config)
        est = next(e for e in config.estimators if e.kind == "grls")
        state = GrlsState.initial(est.theta0, SIS_REGRESSOR, est.alpha, est.p0_scale)
        expected = []
        size = 0
        for s in run_grls(state, result.trajectory):
            _, hi, kappa = reference_sym2_spectrum(*sym2(s.P))
            accepted = s.excitation.size > size
            expected.append((*s.theta.tolist(), kappa, hi, accepted))
            size = s.excitation.size
        rows = [
            (r.beta_hat, r.gamma_hat, r.p_cond, r.p_max_eig, r.accepted)
            for r in result.rows
            if r.estimator == "grls"
        ]
        assert rows == expected
        assert result.manifest["excitation"]["indices"] == list(s.excitation.indices)

    @pytest.mark.parametrize("name", ["fig3_noisefree", "fig3_noisy"])
    @pytest.mark.parametrize("kind", ["pure_gd", "ef_rls"])
    def test_rows_equal_the_public_stepper(self, name, kind):
        config = _in_memory(name)
        result = run_experiment(config)
        est = next(e for e in config.estimators if e.kind == kind)
        traj = result.trajectory
        theta, p = tuple(est.theta0), est.p0_scale * np.eye(2)
        expected = []
        failed_at = None
        for k, (x, y) in enumerate(zip(traj.states.tolist(), traj.observations.tolist())):
            if failed_at is not None:
                expected.append(expected[-1])  # frozen at its last report
            elif kind == "pure_gd":
                theta = pure_gd_kernel(theta, sis_regressor_pair(x), y)
                expected.append((*theta, None, None, None))
            else:
                try:
                    p, theta = ef_rls_step((p, np.array(theta)), sis_regressor(x), y, est.alpha)
                except ConditioningError:
                    failed_at = k
                    expected.append(expected[-1])
                    continue
                _, hi, kappa = reference_sym2_spectrum(*sym2(p))
                expected.append((*theta.tolist(), kappa, hi, None))
        rows = [
            (r.beta_hat, r.gamma_hat, r.p_cond, r.p_max_eig, r.accepted)
            for r in result.rows
            if r.estimator == kind
        ]
        assert rows == expected
        assert [e["step"] for e in result.manifest["errors"] if e["estimator"] == kind] == (
            [] if failed_at is None else [failed_at]
        )
        if name == "fig3_noisefree" and kind == "ef_rls":
            assert failed_at == 570
            assert rows[570:] == [rows[569]] * (config.steps - 570)

    def test_a_failed_grls_step_freezes_its_lane(self, monkeypatch):
        _fail_grls_at_step_5(monkeypatch)
        config = _in_memory("fig3_noisy")
        result = run_experiment(config)
        rows = [r for r in result.rows if r.estimator == "grls"]
        assert result.manifest["errors"] == [
            {"estimator": "grls", "step": 5, "message": "injected"}
        ]
        frozen = [(r.beta_hat, r.gamma_hat, r.p_cond, r.accepted) for r in rows[5:]]
        assert frozen == [(rows[4].beta_hat, rows[4].gamma_hat, rows[4].p_cond, None)] * (
            config.steps - 5
        )
        assert result.manifest["excitation"]["indices"] == [r.step for r in rows if r.accepted]
        assert all(r.accepted is not None for r in rows[:5])

    def test_int_settings_are_reported_as_floats(self):
        # frozen before its first step, the lane reports theta0 and P0 as floats
        result = _fig3_noisy_with("grls", p0_scale=10**160, theta0=(1, 1))
        assert _failures(result) == [("grls", 0)]
        row = result.rows[0]
        assert [type(v) for v in (row.beta_hat, row.gamma_hat, row.p_max_eig)] == [float] * 3

    @pytest.mark.parametrize("name", ["fig3_noisefree", "fig3_noisy"])
    def test_ef_rls_makes_no_greedy_rows(self, tmp_path, name):
        config = load_config(bundled_config_path(name))
        est = next(e for e in config.estimators if e.kind == "ef_rls")
        result = run_experiment(replace(config, estimators=(est,)), tmp_path)
        assert all(r.accepted is None for r in result.rows)
        assert "excitation" not in result.manifest
        assert not (tmp_path / "greedy.csv").exists()

    @pytest.mark.parametrize("name", ["fig1", "fig3_noisy", "slow"])
    def test_fim_cond_column_equals_fim_condition_trace(self, name):
        config = _in_memory(name)
        result = run_experiment(config)
        for est in config.estimators:
            trace = fim_condition_trace(result.trajectory, SIS_REGRESSOR, est.alpha)
            assert [r.fim_cond for r in result.rows if r.estimator == est.kind] == trace

    @pytest.mark.parametrize("name", ["fig2", "fig3_noisefree", "fig3_noisy"])
    def test_ie_mmai_models_agree_after_the_correction(self, name):
        # Once corrected, the models differ only by what the proximal term
        # keeps apart; on noise-free data their costs are rounding noise, so
        # which one is selected is arbitrary, and this bounds what it moves.
        config = _in_memory(name)
        result = run_experiment(config)
        est = next(e for e in config.estimators if e.kind == "ie_mmai")
        selected = [(r.beta_hat, r.gamma_hat) for r in result.rows if r.estimator == "ie_mmai"]
        state = ie_mmai_init(est.theta0, est.models, est.spread, est.seed)
        traj = result.trajectory
        spreads = []
        for k, (x, y) in enumerate(zip(traj.states.tolist(), traj.observations.tolist())):
            state = ie_mmai_kernel(state, sis_regressor_pair(x), y)
            assert ie_mmai_selected(state[0]) == selected[k]
            if state[3]:
                best = selected[k]
                spreads.extend(
                    abs(m[i] - best[i]) / abs(best[i]) for m in state[0] for i in (0, 1)
                )
        assert len(spreads) > 2 * est.models * (config.steps - 20)
        assert max(spreads) <= 1e-4


def _reseeded(name, seed):
    """Bundled config ``name`` in memory, with ``seed`` added to its noise and IE-MMAI seeds."""
    config = _in_memory(name)
    estimators = tuple(
        replace(est, seed=est.seed + seed) if est.kind == "ie_mmai" else est
        for est in config.estimators
    )
    noise = config.noise and replace(config.noise, seed=config.noise.seed + seed)
    return replace(config, noise=noise, estimators=estimators)


@pytest.mark.parametrize("seed", [0, 101])
@pytest.mark.parametrize("name", BUNDLED)
def test_a_trajectory_trace_rebuilds_its_trajectory_bitwise(tmp_path, name, seed):
    result = run_experiment(replace(_reseeded(name, seed), emit=("trajectory",)), tmp_path)
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        assert next(fh) == f"# {TRAJECTORY_SCHEMA}\n"
        header, *rows = csv.reader(fh)
    assert header == ["step", "state", "noise_applied"]
    assert [int(step) for step, _, _ in rows] == list(range(result.trajectory.step_count + 1))
    assert rows[-1][2] == ""
    traj = Trajectory(states=[float(state) for _, state, _ in rows],
                      process_noise=[float(noise) for _, _, noise in rows[:-1]])
    for field in ("states", "process_noise", "observations"):
        assert getattr(traj, field).tobytes() == getattr(result.trajectory, field).tobytes()


class TestLaneByLaneRun:
    """``run_experiment`` steps each lane to its end and records it as columns,
    from which its rows are formed when they are read; it reports what
    ``lockstep_run``, which steps every lane one step at a time and forms every
    row on its own, reports. Reprs are compared, so that -0.0 and
    0.0, or 1 and 1.0, differ."""

    @staticmethod
    def assert_equals_lockstep(config):
        result = run_experiment(replace(config, emit=()))  # nothing written
        rows, greedy_rows, errors, status = lockstep_run(config)
        assert list(map(repr, result.rows)) == list(map(repr, rows))
        assert list(map(repr, result.rows.offers())) == list(map(repr, greedy_rows))
        assert result.manifest["errors"] == errors
        assert result.status == status
        return result

    @pytest.mark.parametrize("seed", [0, 101])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_configs(self, name, seed):
        result = self.assert_equals_lockstep(_reseeded(name, seed))
        if name == "fig3_noisefree":
            assert _failures(result) == [("ef_rls", 570)]

    @pytest.mark.parametrize("name", ["fig1", "fig3_noisy"])
    def test_clamped_estimates(self, name):
        config = _in_memory(name)
        # from zero, the first gradient steps drive estimates negative
        estimators = tuple(replace(est, theta0=(0.0, 0.0)) for est in config.estimators)
        config = replace(config, estimators=estimators, clamp_estimates=True)
        result = self.assert_equals_lockstep(config)
        assert any(r.gamma_hat == 0.0 for r in result.rows)

    def test_no_truth(self):
        config = replace(_in_memory("fig3_noisy"), sis=SisParams(0.0, 0.2692))
        result = self.assert_equals_lockstep(config)
        assert all(r.max_rel_err is None for r in result.rows)

    def test_an_injected_grls_failure(self, monkeypatch):
        _fail_grls_at_step_5(monkeypatch)
        result = self.assert_equals_lockstep(_in_memory("fig3_noisy"))
        assert _failures(result) == [("grls", 5)]

    def test_a_zero_changing_sign(self, monkeypatch):
        # equal to the last report's theta and P, but not the same row
        def signed_zeros(est, rows, offers, sets):
            for k, _ in enumerate(chain([None], rows)):  # the first report precedes step 0
                zero = -0.0 if k % 3 else 0.0
                yield zero, 1.0, 1.0, zero, 2.0

        monkeypatch.setitem(sisid.harness._LANES, "ef_rls", signed_zeros)
        config = replace(_in_memory("fig3_noisy"), steps=30)
        result = self.assert_equals_lockstep(config)
        assert len({repr(r.beta_hat) for r in result.rows if r.estimator == "ef_rls"}) == 2


# Values a trace float takes, weighted toward those whose text must not be
# reused from an equal value: zeros of either sign, NaN, infinities.
NUMBER = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]), st.floats())
GREEDY_COLUMNS = ("step", "accepted", "kappa_before", "kappa_after")


@st.composite
def _runs(draw, fields, n):
    """n tuples drawn from ``fields``, in runs of equal tuples; inside a run
    any zero may change sign from one tuple to the next."""
    out = []
    while len(out) < n:
        values = draw(st.tuples(*fields))
        for _ in range(draw(st.integers(1, 12))):
            flips = draw(st.integers(0, 2 ** len(fields) - 1))  # bit i flips field i
            out.append(tuple(
                -v if flips >> i & 1 and v == 0.0 else v for i, v in enumerate(values)
            ))
    return out[:n]


# A covariance entry: a lane's P is never NaN, as a step whose P' is not
# finite fails; any other float, zeros of either sign included.
P_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]), st.floats(allow_nan=False))


@st.composite
def _covariances(draw, n):
    """n covariances: None throughout, as a lane without P reports, or entries
    in runs whose zeros may change sign."""
    return [None] * n if draw(st.booleans()) else draw(_runs((P_ENTRY,) * 3, n))


@st.composite
def _fake_lanes(draw):
    """Two to four lanes, each with an alpha shared with the others or not and
    its reports (theta, P) over ``steps`` steps, the verdict of each step's
    greedy offer, and the run's truth and clamp setting. Theta and P come in
    runs of their own, so that either can repeat while the other changes; a
    lane may fail at a drawn step."""
    kinds = draw(st.lists(st.sampled_from(ESTIMATOR_KINDS), min_size=2, max_size=4, unique=True))
    steps = draw(st.integers(1, 30))
    lanes = []
    for kind in kinds:
        thetas = draw(_runs((NUMBER, NUMBER), steps + 1))
        reports = list(zip(thetas, draw(_covariances(steps + 1))))
        fails_at = draw(st.one_of(st.none(), st.integers(0, steps - 1)))
        lanes.append((kind, draw(st.sampled_from([0.5, 0.94])), reports, fails_at))
    verdicts = draw(st.lists(st.booleans(), min_size=steps, max_size=steps))
    return lanes, verdicts, steps, draw(st.booleans()), draw(st.booleans())


def _fake_lane(reports, fails_at):
    """A lane yielding ``reports``, each (theta, P or None), as a lane reports them."""
    flat = [theta + (p or ()) for theta, p in reports]

    def lane(est, rows, offers, sets):
        assert len(flat) == len(list(rows)) + 1
        if fails_at is None:
            yield from flat
        else:
            yield from flat[:fails_at + 1]  # the first report precedes step 0
            raise ConditioningError("injected")
    return lane


# Two lanes with one alpha repeat one report, except for the sign of its
# zeros, and then NaN.
_ZERO_FLIP_LANES = (
    [
        (kind, 0.94, [
            ((1.5, zero), p and (1.0, zero, -zero))
            for zero in [0.0, -0.0, -0.0, 0.0, 0.0]
        ] + [((math.nan, 2.0), p)] * 2, None)
        for kind, p in (("pure_gd", None), ("grls", (1.0, 0.0, 2.0)))
    ],
    [k % 2 == 0 for k in range(6)], 6, False, True,
)


def _metrics_row(k, kind, values, fim, accepted):
    beta, gamma, r0, rel, log_rel, p_cond, p_max = values
    return MetricsRow(k, kind, beta, gamma, r0, rel, log_rel, fim, p_cond, p_max, accepted)


# Both lanes repeat one row, except for the sign of a zero, while they share
# a zero fim_cond whose sign flips too; then NaN.
_ZERO_FLIPS = [
    _metrics_row(k, kind, (1.5, 2.0, zero, None, math.inf, zero, -zero), fim, None)
    for k, (zero, fim) in enumerate([(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0)])
    for kind in ("pure_gd", "grls")
] + [
    _metrics_row(k, "grls", (math.nan, 2.0, None, None, None, None, None), math.nan, True)
    for k in (4, 5)
]


@st.composite
def _greedy_rows(draw):
    n = draw(st.integers(1, 60))
    kappas = draw(_runs((NUMBER, NUMBER), n))
    accepted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [(k, accepted[k], *kappas[k]) for k in range(n)]


_GREEDY_ZERO_FLIPS = [
    (k, k % 2 == 0, before, after)
    for k, (before, after) in enumerate([
        (0.0, 1.0), (-0.0, 1.0), (-0.0, 1.0), (math.inf, -0.0), (math.inf, 0.0),
        (math.nan, 2.0), (math.nan, 2.0),
    ])
]


def _written(writer, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        writer(path, rows)
        return path.read_bytes()


class TestWriterTextReuse:
    """The writers reuse the text of a repeated float, and write the same
    bytes as formatting every field anew."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=_fake_lanes())
    @example(case=_ZERO_FLIP_LANES)
    def test_metrics_lines_of_the_lanes_equal_the_naive_writer(self, case):
        lanes, verdicts, steps, clamp, truth = case
        config = small_config(
            sis=FIG3 if truth else SisParams(0.0, 0.2692), steps=steps, clamp_estimates=clamp,
            estimators=tuple(EstimatorSettings(kind, alpha=alpha) for kind, alpha, *_ in lanes),
        )
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            for kind, _, reports, fails_at in lanes:
                mp.setitem(harness._LANES, kind, _fake_lane(reports, fails_at))
            mp.setattr(harness, "_offer_floats", lambda gset, phi, y, k: (gset, verdicts[k]))
            result = run_experiment(config, tmp)
            written = (Path(tmp) / "metrics.csv").read_bytes()
            rows = lockstep_run(config)[0]  # each row formed on its own from its report
        assert written == naive_metrics_csv(rows)
        assert list(map(repr, result.rows)) == list(map(repr, rows))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rows=_greedy_rows())
    @example(rows=_GREEDY_ZERO_FLIPS)
    def test_acceptance_writer_equals_the_naive_writer(self, rows):
        expected = naive_trace_csv(GREEDY_SCHEMA, GREEDY_COLUMNS, rows)
        assert _written(write_acceptance_trace, rows) == expected

    def test_metrics_row_is_a_tuple(self):
        row = _ZERO_FLIPS[0]
        assert row == tuple(row)
        step, kind, *_ = row
        assert (step, kind, row[2], row.beta_hat) == (0, "pure_gd", 1.5, 1.5)
        with pytest.raises(AttributeError):
            row.step = 1


def _spy_fim_passes(mp, calls):
    """Record the settle step of each FIM pass a run or the public trace makes."""
    inner = harness._fim_condition_trace

    def spy(pairs, alpha, settled=math.inf):
        calls.append(settled)
        return inner(pairs, alpha, settled)

    mp.setattr(harness, "_fim_condition_trace", spy)


def _spy_texts(mp, sizes):
    """Record how many values each call of the text former is given."""
    inner = harness._texts

    def spy(values):
        sizes.append(len(values))
        return inner(values)

    mp.setattr(harness, "_texts", spy)


class TestConditionTexts:
    """A condition number's text is formed only when a metrics trace is written."""

    @pytest.mark.parametrize("emit", [(), ("trajectory", "greedy"), ("metrics",)])
    def test_a_run_forms_texts_only_for_a_metrics_trace(self, monkeypatch, tmp_path, emit):
        calls, sizes = [], []
        _spy_fim_passes(monkeypatch, calls)
        _spy_texts(monkeypatch, sizes)
        config = replace(load_config(bundled_config_path("fig3_noisy")), emit=emit)
        run_experiment(config, tmp_path if emit else None)
        assert len(calls) == 1  # one pass per distinct alpha
        if "metrics" in emit:
            assert sizes == [1024, 2000 - 1024]  # a chunk at a time, shared by the lanes
        else:
            assert sizes == []

    def test_the_public_trace_forms_no_text(self, monkeypatch):
        calls, sizes = [], []
        _spy_fim_passes(monkeypatch, calls)
        _spy_texts(monkeypatch, sizes)
        trace = fim_condition_trace(simulate(0.01, FIG3, 50), SIS_REGRESSOR, 0.94)
        assert len(trace) == 50 and type(trace) is list
        assert (calls, sizes) == ([math.inf], [])


# Rates, x0 and theta0 entries weighted toward the edges: a state at 0 or 1,
# fig1's and fig3's rates (settling at steps 474 and 57), zeros of both signs.
_UNIT = st.one_of(st.sampled_from([0.0, 1.0, 0.12, 0.04, 0.8076, 0.2692]), st.floats(0.0, 1.0))
_THETA_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 0.05, 0.07]), st.floats(-2.0, 2.0))
TRAJECTORY_COLUMNS = ("step", "state", "noise_applied")
ALL_TRACES = ("metrics", "trajectory", "greedy")


@st.composite
def _noise_free_configs(draw):
    kinds = draw(st.lists(st.sampled_from(ESTIMATOR_KINDS), min_size=1, max_size=4, unique=True))
    estimators = tuple(
        EstimatorSettings(kind, alpha=draw(st.sampled_from([0.5, 0.94])),
                          theta0=(draw(_THETA_ENTRY), draw(_THETA_ENTRY)))
        for kind in kinds
    )
    return ExperimentConfig(
        sis=SisParams(draw(_UNIT), draw(_UNIT)), x0=draw(_UNIT), steps=draw(st.integers(1, 800)),
        noise=None, estimators=estimators, emit=ALL_TRACES, clamp_estimates=draw(st.booleans()),
    )


def _assert_run_equals_lockstep(config):
    """``run_experiment`` on ``config`` reports what ``lockstep_run`` reports, and
    writes each trace as the naive writer writes its rows; returns the result."""
    with tempfile.TemporaryDirectory() as tmp:
        result = run_experiment(config, tmp)
        written = {path.name: path.read_bytes() for path in Path(tmp).glob("*.csv")}
    rows, greedy_rows, errors, status = lockstep_run(config)
    assert list(map(repr, result.rows)) == list(map(repr, rows))
    assert list(map(repr, result.rows.offers())) == list(map(repr, greedy_rows))
    assert result.manifest["errors"] == errors
    assert result.status == status

    traj, n = result.trajectory, config.steps
    traj_rows = [*zip(range(n), traj.states[:-1].tolist(), traj.process_noise.tolist()),
                 (n, traj.states[-1].item(), None)]
    expected = {
        "metrics.csv": naive_metrics_csv(rows),
        "trajectory.csv": naive_trace_csv(TRAJECTORY_SCHEMA, TRAJECTORY_COLUMNS, traj_rows),
    }
    if greedy_rows:
        expected["greedy.csv"] = naive_trace_csv(GREEDY_SCHEMA, GREEDY_COLUMNS, greedy_rows)
    assert written == expected

    # a settled lane's rows repeat from the step the manifest names, but for fim_cond
    for kind, step in result.manifest["settled"].items():
        if kind != "trajectory" and step is not None:
            tail = [r for r in result.rows if r.estimator == kind and r.step >= step]
            assert len({(*r[2:7], *r[8:]) for r in tail}) == 1
    return result


class TestSettledRuns:
    """A noise-free run that reaches an exact fixed point repeats its last step
    from there on in place of stepping on; what it reports and writes is what
    stepping every lane to the end gives."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(config=_noise_free_configs())
    def test_equal_to_stepping_every_lane_to_the_end(self, config):
        _assert_run_equals_lockstep(config)

    # at one, pure GD's gamma_hat steps to 0.0 exactly, so it never counts as settled
    @pytest.mark.parametrize("beta, gamma, state, expected", [
        (0.1, 0.95, 0.0, {"trajectory": 392, "pure_gd": 10}),
        (1.0, 0.0, 1.0, {"trajectory": 7, "pure_gd": None}),
    ], ids=["at-zero", "at-one"])
    def test_a_run_settling_at_an_edge(self, beta, gamma, state, expected):
        config = small_config(
            sis=SisParams(beta, gamma), x0=0.3, steps=600, emit=ALL_TRACES,
            estimators=tuple(EstimatorSettings(kind, theta0=(0.05, 0.07))
                             for kind in ESTIMATOR_KINDS),
        )
        result = _assert_run_equals_lockstep(config)
        settled = result.manifest["settled"]
        assert settled == {**expected, "ef_rls": None, "ie_mmai": None, "grls": None}
        states, k = result.trajectory.states.tolist(), settled["trajectory"]
        assert states[k:] == [state] * (601 - k) and states[k - 1] != state

    def test_a_zero_in_a_lane_state_keeps_it_stepping(self):
        # at x = 0 neither lane's state changes, but each holds a zero (pure GD's
        # gamma_hat, EF-RLS's P12 at alpha = 1), whose sign == cannot see
        config = small_config(x0=0.0, steps=50, emit=ALL_TRACES, estimators=(
            EstimatorSettings("pure_gd", theta0=(0.05, 0.0)),
            EstimatorSettings("ef_rls", alpha=1.0),
        ))
        result = _assert_run_equals_lockstep(config)
        assert result.manifest["settled"] == {"trajectory": 0, "pure_gd": None, "ef_rls": None}

    def test_ef_rls_failing_after_the_settle_step(self):
        config = small_config(
            x0=0.01, steps=700, emit=ALL_TRACES,
            estimators=tuple(EstimatorSettings(kind) for kind in ("ef_rls", "grls", "pure_gd")),
        )
        result = _assert_run_equals_lockstep(config)
        assert _failures(result) == [("ef_rls", 570)]
        settled = result.manifest["settled"]
        assert settled["trajectory"] == 57 and settled["ef_rls"] is None
        assert settled["grls"] is not None and settled["pure_gd"] is not None

    def test_the_lockstep_reference_is_given_no_reachable_settle_step(self, monkeypatch):
        config = replace(load_config(bundled_config_path("fig3_noisefree")), emit=())
        assert run_experiment(config).manifest["settled"]["trajectory"] == 57
        passes, offer_passes = [], []
        _spy_fim_passes(monkeypatch, passes)
        inner = harness._excitation_pass

        def spy(rows, settled=math.inf):
            offer_passes.append(settled)
            return inner(rows, settled)

        monkeypatch.setattr(harness, "_excitation_pass", spy)
        lockstep_run(config)
        assert passes and all(settled == math.inf for settled in passes)
        assert offer_passes == [math.inf]

    def test_the_manifest_names_where_each_part_settled(self):
        settled = {
            name: run_experiment(_in_memory(name)).manifest["settled"]
            for name in ("fig1", "fig3_noisefree", "fig3_noisy")
        }
        assert settled["fig1"] == {"trajectory": 474, "pure_gd": 480}
        assert settled["fig3_noisefree"] == {
            "trajectory": 57, "pure_gd": 68, "ef_rls": None, "ie_mmai": None, "grls": 546,
        }
        assert settled["fig3_noisy"] == dict.fromkeys(
            ["trajectory", "pure_gd", "ef_rls", "ie_mmai", "grls"])


class TestWhereALaneEnds:
    """A lane only steps; ``_run_lane`` stops drawing its reports at a failure,
    or after the first report from the settle step on that repeats the one
    before it, with no accepted offer and no zero in theta or P."""

    def test_what_each_lane_draws_on_fig3_noisefree(self, monkeypatch):
        drawn = {}
        for kind, lane in harness._LANES.items():
            def counting(est, *args, lane=lane):
                drawn[est.kind] = 0
                for report in lane(est, *args):
                    drawn[est.kind] += 1
                    yield report
            monkeypatch.setitem(harness._LANES, kind, counting)
        result = run_experiment(_in_memory("fig3_noisefree"))
        # the step of the last report drawn: the first report precedes step 0
        assert {kind: count - 2 for kind, count in drawn.items()} == {
            "pure_gd": 69, "ef_rls": 569, "ie_mmai": 1999, "grls": 547,
        }
        settled = result.manifest["settled"]
        assert (settled["pure_gd"], settled["grls"]) == (68, 546)
        assert _failures(result) == [("ef_rls", 570)]

    # fig3_noisefree's first 100 steps settle at step 57
    @pytest.mark.parametrize("kind, report, accepted, stops", [
        ("pure_gd", (1.5, 2.0), None, True),
        ("ef_rls", (1.5, 2.0, 1.0, 0.5, 2.0), None, True),
        ("grls", (1.5, 2.0, 1.0, 0.5, 2.0), False, True),
        ("grls", (1.5, 2.0, 1.0, 0.5, 2.0), True, False),
        ("pure_gd", (0.0, 2.0), None, False),
        ("pure_gd", (1.5, -0.0), None, False),
        ("ef_rls", (1.5, 2.0, 1.0, 0.0, 2.0), None, False),
        ("ef_rls", (1.5, 2.0, -0.0, 0.5, 2.0), None, False),
        ("ie_mmai", (1.5, 2.0), None, False),
    ], ids=["plain", "covariance", "rejected", "accepted", "zero", "negative-zero",
            "zero-in-p", "negative-zero-in-p", "ie_mmai"])
    def test_a_lane_repeating_one_report(self, monkeypatch, kind, report, accepted, stops):
        drawn = []

        def lane(est, rows, offers, sets):
            for _ in chain([None], rows):  # the first report precedes step 0
                drawn.append(report)
                yield report

        monkeypatch.setitem(harness._LANES, kind, lane)
        # every offer of the GRLS lane's excitation pass has this verdict
        monkeypatch.setattr(harness, "_offer_floats", lambda gset, phi, y, k: (gset, accepted))
        config = replace(_in_memory("fig3_noisefree"), steps=100,
                         estimators=(EstimatorSettings(kind),))
        result = run_experiment(config)
        assert result.manifest["settled"]["trajectory"] == 57
        # each report repeats the one before it: those before step 57 are stepped on
        assert len(drawn) - 2 == (57 if stops else 99)
        assert (result.manifest["settled"][kind] is not None) == stops
        assert {row[2:4] for row in result.rows} == {report[:2]}


# sha256 of repr(RunResult.rows) for each bundled config at seeds 0 and 101, as
# the rows were when a run held them as a list of MetricsRow
ROWS_REPR_SHA256 = {
    ("fig1", 0): "7cf1be537118c1533834430569f1eab0c7563b11804b81f6a3eb7f6edc188056",
    ("fig1", 101): "7cf1be537118c1533834430569f1eab0c7563b11804b81f6a3eb7f6edc188056",
    ("fig2", 0): "474340f14bd5bf001d543312aca0f805d98b7d34d68d8be4618d0a18a4cb7c4b",
    ("fig2", 101): "afaa924b01bf1b6d8d0a37cc1a9657c05ee1a63f86645685fc1e87d591625bda",
    ("fig3_noisefree", 0): "91cc9fbd596702cbfa6942ef2abed8d64325b7ec2e6343d10f53cf16dcf21895",
    ("fig3_noisefree", 101): "24fac448f31435f31e2795b5909422d6b7560212e1c4c84d3669dc9402c9b6db",
    ("fig3_noisy", 0): "ae0b195d36994aff081b290d2947200be86bf353883d8052bfa947625038a3cb",
    ("fig3_noisy", 101): "b04c07801e7713703da68f1bc32b57432608ab75124bd5cee758a2462d490571",
}


class TestRowsView:
    """``RunResult.rows`` is a read-only sequence that forms each row when it is read."""

    @pytest.fixture(scope="class")
    def result(self):
        # 700 steps of fig3_noisefree: settled lanes, EF-RLS frozen from step 570
        return run_experiment(replace(_in_memory("fig3_noisefree"), steps=700))

    def test_a_sequence_of_metrics_rows(self, result):
        rows, listed = result.rows, list(result.rows)
        assert len(rows) == len(listed) == 4 * 700
        assert all(type(row) is MetricsRow for row in listed)
        for i in (0, 1, 5, 2278, 2279, 2280, len(rows) - 1, -1, -4, -len(rows)):
            assert repr(rows[i]) == repr(listed[i])
        assert rows[np.int64(9)] == listed[9]
        for part in (slice(3, 40, 7), slice(None, 5), slice(-6, None), slice(None, None, -97)):
            assert type(rows[part]) is list and rows[part] == listed[part]
        assert rows[10:10] == []
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                rows[i]
        with pytest.raises(TypeError):
            rows[1.0]
        with pytest.raises(TypeError):
            rows[0] = listed[0]

    def test_each_row_read_alone_is_the_row_iteration_forms(self, result):
        rows = result.rows
        assert list(map(repr, map(rows.__getitem__, range(len(rows))))) == list(map(repr, rows))

    def test_compares_equal_to_the_list_of_its_rows(self, result):
        rows, listed = result.rows, list(result.rows)
        assert rows == listed and listed == rows and rows == rows
        assert rows != listed[:-1] and rows != listed[::-1] and rows != tuple(listed)
        assert rows.index(listed[2279]) == 2279 and listed[-1] in rows
        assert list(reversed(rows[-3:])) == listed[:-4:-1]
        with pytest.raises(TypeError):
            hash(rows)
        assert repr(rows) == repr(listed)

    @pytest.mark.parametrize("name, seed", ROWS_REPR_SHA256, ids=[
        f"{name}-{seed}" for name, seed in ROWS_REPR_SHA256])
    def test_repr_is_that_of_the_list_of_rows(self, name, seed):
        rows = run_experiment(_reseeded(name, seed)).rows
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == ROWS_REPR_SHA256[name, seed]


def test_a_run_holds_less_than_a_kilobyte_per_step(tmp_path):
    # 20,000 steps of fig3_noisy, every trace written: a run that held each row
    # as a MetricsRow and each metrics line as a str peaked at 2,670 B per step
    # and kept 1,350 B per step after it returned
    steps = 20_000
    config = load_config(bundled_config_path("fig3_noisy"))
    run_experiment(replace(config, steps=50), tmp_path)  # what a first run imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_experiment(replace(config, steps=steps), tmp_path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == 0 and len(result.rows) == 4 * steps
    assert (peak - before) / steps <= 1000
    assert (held - before) / steps <= 500


def test_a_preparation_holds_at_most_64_bytes_per_step():
    # the trajectory's three float arrays and the column of (u1, u2, y) rows
    # hold 48 B per step; a list of regressor pair tuples and a list of
    # observation floats held 169
    steps = 20_000
    config = replace(load_config(bundled_config_path("fig3_noisy")), steps=steps)
    harness._Prepared(replace(config, steps=50))  # what a first preparation imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prepared = harness._Prepared(config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert prepared.inputs.last == steps - 1
    assert (held - before) / steps <= 64


class TestColumn:
    """A ``_Column`` reads as its rows expanded: row ``last`` at every later step."""

    @staticmethod
    def _draw(data):
        """A column, its rows expanded to past step j, and steps i <= j."""
        width = data.draw(st.integers(1, 5), label="width")
        stored = data.draw(st.lists(st.tuples(*[NUMBER] * width), min_size=1, max_size=12),
                           label="stored")
        i = data.draw(st.integers(0, len(stored) + 6), label="i")
        j = data.draw(st.integers(i, len(stored) + 12), label="j")
        column = harness._Column(width, chain.from_iterable(stored))
        assert column.last == len(stored) - 1
        return column, stored + [stored[-1]] * j, i, j

    # reprs, so that -0.0 and 0.0 differ
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rows_equal_the_expanded_rows(self, data):
        column, expanded, i, j = self._draw(data)
        rows = column.rows(i, j)
        assert rows.shape == (j - i, column.width)
        assert repr(rows.tolist()) == repr(list(map(list, expanded[i:j])))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_steps_equal_the_expanded_rows(self, data):
        column, expanded, _, j = self._draw(data)
        assert repr(list(column.steps(j))) == repr(expanded[:j])


def _variant_outputs(result):
    """What a variant must share with its standalone run, bitwise: the sha256 of
    each trace on disk and of ``repr(RunResult.rows)``, and the manifest's
    files, status, errors, settled and excitation blocks."""
    traces = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(result.output_dir.glob("*.csv"))}
    manifest = json.loads((result.output_dir / "manifest.json").read_text())
    blocks = {key: manifest.get(key) for key in ("files", "status", "errors", "settled",
                                                 "excitation")}
    return traces, hashlib.sha256(repr(result.rows).encode()).hexdigest(), blocks


# the constant state of test_a_zero_refresh_denominator_is_a_recorded_grls_failure,
# whose GRLS lane fails at step 47 at alpha 0.5 and steps to the end at 0.94
CONSTANT_STATE = {
    "beta": "0.0", "gamma": "0.0", "x0": "0.25", "steps": "48", "noise": "off",
    "estimators": "grls, ef_rls", "emit": "metrics, trajectory, greedy",
}


def _mapping(name):
    if name == "constant":
        return dict(CONSTANT_STATE)
    return {**load_config_mapping(bundled_config_path(name)),
            "emit": "metrics, trajectory, greedy"}


class TestSweepVariants:
    """The variants of a sweep that share a trajectory share its preparation,
    and each equals its standalone run bitwise."""

    @pytest.mark.parametrize("name, param, values", [
        *((name, param, values) for name in ("fig3_noisy", "fig3_noisefree")
          for param, values in (("grls.alpha", ("0.9", "0.94", "0.98")),
                                ("grls.p0_scale", ("10", "1000")),
                                ("grls.theta0", ("0.5, 0.5", "1.0, 1.0")))),
        ("fig3_noisy", "seed", ("2", "3")),
        ("constant", "grls.alpha", ("0.5", "0.94")),
        ("constant", "grls.alpha", ("0.94", "0.5")),
    ])
    def test_each_variant_equals_its_standalone_run(self, tmp_path, name, param, values):
        mapping = _mapping(name)
        configs = [config_from_mapping({**mapping, param: value}) for value in values]
        variants = list(harness._run_variants(
            (config, tmp_path / "sweep" / str(i)) for i, config in enumerate(configs)))
        shared = param != "seed"
        for i, (config, variant) in enumerate(zip(configs, variants)):
            alone = run_experiment(config, tmp_path / "alone" / str(i))
            assert _variant_outputs(variant) == _variant_outputs(alone)
            timings = variant.manifest["timings"]
            if i and shared:  # reused from the first variant
                assert timings["simulate_s"] == timings["excitation_s"] == 0.0
            else:
                assert timings["simulate_s"] > 0.0 and timings["excitation_s"] > 0.0
            assert (variant.trajectory is variants[0].trajectory) == (shared or not i)
        if name == "constant":
            failed = [_failures(v) for v in variants]
            assert sorted(failed) == [[], [("grls", 47)]]

    def test_a_sweep_simulates_and_offers_once(self, tmp_path, monkeypatch):
        simulated, offered = [], []
        inner_simulate, inner_offer = harness.simulate, harness._offer_floats

        def counted_simulate(*args):
            simulated.append(args)
            return inner_simulate(*args)

        def counted_offer(gset, phi, y, k):
            offered.append(k)
            return inner_offer(gset, phi, y, k)

        monkeypatch.setattr(harness, "simulate", counted_simulate)
        monkeypatch.setattr(harness, "_offer_floats", counted_offer)
        monkeypatch.setenv("SISID_OUTPUT_ROOT", str(tmp_path))
        argv = ["sweep", "fig3_noisefree", "--param", "grls.alpha", "--values", "0.9,0.94,0.98"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 1  # EF-RLS fails in each variant
        assert len(simulated) == 1
        # the pass stops at the first rejected offer from the settle step (57) on
        assert offered == list(range(len(offered))) and 57 <= len(offered) < 2000
