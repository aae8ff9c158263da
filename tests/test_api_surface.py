"""The package-level calls that perfbench's figs, sweep and grls_long
workloads make.

The benchmark is not part of these tests, so a change to the API it drives
would otherwise show only when the benchmark runs. These tests make the same
calls, looked up where the benchmark looks them up, without importing
perfbench.
"""

import contextlib
import csv
import io
import json

import numpy as np

import sisid
import sisid.cli
from sisid.config import config_from_mapping, load_config_mapping

THETA0 = (1.0, 1.0)
P0_SCALE = 100.0
STEPS = 400


def test_grls_long_call_surface():
    params = sisid.SisParams(0.8076, 0.2692)  # the fig3 rates
    traj = sisid.simulate(0.01, params, STEPS, sisid.NoiseSpec(1e-3, 1e-3, 5e-3, seed=2))
    state = sisid.GrlsState.initial(THETA0, sisid.SIS_REGRESSOR, alpha=0.94, p0_scale=P0_SCALE)
    xs = traj.states
    thetas = np.full((STEPS, 2), np.nan)
    for k in range(STEPS):
        state = sisid.grls_step(state, xs[k], xs[k + 1])
        thetas[k] = state.theta
    accepted = state.excitation.indices
    assert accepted and all(0 <= i < STEPS for i in accepted)
    for k in (99, 249, STEPS - 1):
        spec = sisid.WeightedCostSpec(
            alpha=0.94,
            p0_inv=np.eye(2) / P0_SCALE,
            theta0=np.asarray(THETA0),
            greedy_indices=frozenset(i for i in accepted if i <= k),
        )
        oracle = sisid.batch_oracle(traj, sisid.SIS_REGRESSOR, spec, k)
        assert np.linalg.norm(thetas[k] - oracle) / np.linalg.norm(oracle) <= 1e-6
    true_theta = params.as_vector()
    assert np.max(np.abs(thetas[-1] - true_theta) / true_theta) <= 0.1


def test_figs_call_surface(tmp_path):
    seed = 101  # the benchmark offsets each config's seed keys, kept as strings
    for name, failed in (("fig3_noisefree", {"ef_rls": 570}), ("fig3_noisy", {})):
        mapping = load_config_mapping(sisid.bundled_config_path(name))
        for key in ("seed", "ie_mmai.seed"):
            if key in mapping:
                mapping[key] = str(int(mapping[key]) + seed)
        config = config_from_mapping(mapping)
        result = sisid.run_experiment(config, output_dir=tmp_path / name)
        manifest = result.manifest
        assert {e["estimator"]: e["step"] for e in manifest["errors"]} == failed
        assert result.status == (1 if failed else 0)
        on_disk = {p.name for p in result.output_dir.iterdir() if p.is_file()}
        assert {f["name"] for f in manifest["files"]} | {"manifest.json"} == on_disk
        assert all(len(f["sha256"]) == 64 for f in manifest["files"])
        assert len(config.estimators) * config.steps == len(result.rows)
        grls = next(e for e in config.estimators if e.kind == "grls")
        rows = [r for r in result.rows if r.estimator == "grls"]
        assert [r.step for r in rows] == list(range(config.steps))
        assert any(r.accepted for r in rows) and 0.0 < grls.alpha < 1.0
        estimate = np.array([rows[-1].beta_hat, rows[-1].gamma_hat])
        true_theta = config.sis.as_vector()
        assert true_theta.shape == (2,) and np.max(np.abs(estimate / true_theta - 1.0)) <= 0.1
        assert result.trajectory.step_count == config.steps


def test_sweep_call_surface(tmp_path, monkeypatch):
    root = tmp_path / "sweep"
    monkeypatch.setenv("SISID_OUTPUT_ROOT", str(root))
    mapping = {
        "beta": "0.8076", "gamma": "0.2692", "x0": "0.01", "steps": "400", "noise": "on",
        "noise.process_std": "0.001", "noise.observation_std": "0.001",
        "noise.bound_nu": "0.005", "seed": "101", "estimators": "grls", "grls.alpha": "0.94",
        "grls.p0_scale": "100.0", "grls.theta0": "1.0, 1.0", "outputs": "fast_noisy",
        "emit": "metrics",
    }
    path = tmp_path / "fast_noisy.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
    values = ("0.9", "0.98")
    argv = ["sweep", str(path), "--param", "grls.alpha", "--values", ",".join(values)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert sisid.cli.main(argv) == 0
    for value in values:
        out = root / "fast_noisy" / f"grls_alpha={value}"
        manifest = json.loads((out / "manifest.json").read_text())
        with open(out / "metrics.csv", newline="") as fh:
            next(fh)  # the schema line
            rows = [r for r in csv.DictReader(fh) if r["estimator"] == "grls"]
        assert manifest["status"] == 0 and len(rows) == 400
        assert {r["accepted"] for r in rows} <= {"0", "1"} and "1" in {r["accepted"] for r in rows}
        config = config_from_mapping({**load_config_mapping(path), "grls.alpha": value})
        assert config.estimators[0].alpha == float(value)
        estimate = np.array([float(rows[-1]["beta_hat"]), float(rows[-1]["gamma_hat"])])
        assert np.max(np.abs(estimate / config.sis.as_vector() - 1.0)) <= 0.1
