import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    parse_config_text,
)
from sisid.dynamics import NoiseSpec, SisParams, Trajectory, simulate
from sisid.excitation import (
    GREEDY_SCHEMA,
    SIS_REGRESSOR,
    sis_regressor,
    sis_regressor_pair,
    write_acceptance_trace,
)
from sisid.harness import (
    METRICS_COLUMNS,
    METRICS_SCHEMA,
    MetricsRow,
    _write_metrics,
    fim_condition_trace,
    run_experiment,
)
from sisid.linalg import condition_number, eigenvalue_condition, sym2, sym2_eigenvalues
import sisid
from sisid import cli
from sisid.estimators import (
    GrlsState,
    ef_rls_step,
    ie_mmai_init,
    ie_mmai_kernel,
    ie_mmai_selected,
    run_grls,
)

from _oracles import naive_trace_csv

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
    return Trajectory(
        states=states,
        observations=np.diff(states),
        process_noise=np.zeros(len(states) - 1),
    )


class TestFimConditionTrace:
    def test_zero_trajectory_is_always_singular(self):
        traj = constant_trajectory(np.zeros(20))
        assert all(c == math.inf for c in fim_condition_trace(traj, SIS_REGRESSOR, 0.94))

    def test_first_step_is_rank_one(self):
        traj = simulate(0.01, FIG3, 10)
        trace = fim_condition_trace(traj, SIS_REGRESSOR, 0.94)
        assert trace[0] == math.inf
        assert any(math.isfinite(c) for c in trace[2:])

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
        assert set(timings) == {"simulate_s", "fim_trace_s", "step_s", "metrics_rows_s", "write_s"}
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
        assert lines[0] == "# sisid-metrics-v1"
        assert lines[1].split(",")[:5] == ["step", "estimator", "beta_hat", "gamma_hat", "r0_hat"]

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
# u1*t1 + u2*t2 rounds differently from numpy's 1x2 matmul.
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
BUNDLED = ("fig1", "fig2", "fig3_noisefree", "fig3_noisy")


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

        root, _ = runs
        assert hashlib.sha256((root / name).read_bytes()).hexdigest() == PINNED_FILES[name]

    @pytest.mark.parametrize("key", sorted(PINNED_METRICS_ROWS))
    def test_rls_metrics_rows(self, runs, key):
        import hashlib

        root, _ = runs
        name, kind = key.split("/")
        lines = (root / name / "metrics.csv").read_bytes().splitlines(keepends=True)
        rows = b"".join(line for line in lines if line.split(b",")[1:2] == [kind.encode()])
        assert rows.count(b"\r\n") == 2000
        assert hashlib.sha256(rows).hexdigest() == PINNED_METRICS_ROWS[key]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_metrics_file_equals_the_naive_writer(self, runs, name):
        root, results = runs
        expected = naive_trace_csv(METRICS_SCHEMA, METRICS_COLUMNS, results[name].rows)
        assert (root / name / "metrics.csv").read_bytes() == expected

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
        # one that squares to a finite det still runs to the end
        assert _fig3_noisy_with("grls", p0_scale=1e150).status == 0

    def test_ef_rls_fails_at_step_1_with_a_huge_prior(self):
        result = _fig3_noisy_with("ef_rls", p0_scale=1e200)
        assert result.status == 1
        assert _failures(result) == [("ef_rls", 1)]
        _assert_estimates_finite(result)
        # P's entries near 1e200 are finite, and so is its largest eigenvalue
        assert math.isfinite(result.rows[0].p_max_eig)


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
            lo, hi = sym2_eigenvalues(*sym2(s.P))
            accepted = s.excitation.size > size
            expected.append((*s.theta.tolist(), eigenvalue_condition(lo, hi), hi, accepted))
            size = s.excitation.size
        rows = [
            (r.beta_hat, r.gamma_hat, r.p_cond, r.p_max_eig, r.accepted)
            for r in result.rows
            if r.estimator == "grls"
        ]
        assert rows == expected
        assert result.manifest["excitation"]["indices"] == list(s.excitation.indices)

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


# Values a trace float takes, weighted toward those whose text must not be
# reused from an equal value: zeros of either sign, NaN, infinities.
NUMBER = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]), st.floats())
OPTIONAL = st.one_of(st.none(), NUMBER)
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


@st.composite
def _metrics_rows(draw):
    """Rows of two to four interleaved estimators, step by step. Each
    estimator's fim_cond is either its own or shared with the others, as
    lanes with one alpha share it."""
    kinds = draw(st.lists(st.sampled_from(ESTIMATOR_KINDS), min_size=2, max_size=4, unique=True))
    n = draw(st.integers(1, 30))
    shared = draw(_runs((NUMBER,), n))
    lanes = []
    for kind in kinds:
        values = draw(_runs((NUMBER, NUMBER) + (OPTIONAL,) * 5, n))
        fims = draw(_runs((NUMBER,), n)) if draw(st.booleans()) else shared
        accepted = draw(st.lists(st.sampled_from([None, True, False]), min_size=n, max_size=n))
        lanes.append((kind, values, fims, accepted))
    return [
        _metrics_row(k, kind, values[k], fims[k][0], accepted[k])
        for k in range(n)
        for kind, values, fims, accepted in lanes
    ]


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
    @given(rows=_metrics_rows())
    @example(rows=_ZERO_FLIPS)
    def test_metrics_writer_equals_the_naive_writer(self, rows):
        expected = naive_trace_csv(METRICS_SCHEMA, METRICS_COLUMNS, rows)
        assert _written(_write_metrics, rows) == expected

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
