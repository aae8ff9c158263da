"""The three benchmark workloads: inputs from a seed, one timed round, output checks.

Every workload drives sisid only through its public entry points
(``run_experiment``, ``sisid.cli.main``, ``grls_step``) and looks them up
on the module at call time, so that the tracer's wrappers are used when it
is installed. A round is the unit the per-layer numbers are divided by:

* ``figs``: one pass over the four bundled configs (fig1, fig2,
  fig3_noisefree, fig3_noisy) through ``run_experiment``, every trace
  written. Seed 0 runs the bundled configs unchanged; seed s adds s to the
  noise seed and to ``ie_mmai.seed``.
* ``sweep``: ``sisid sweep --param grls.alpha --values 0.9,0.94,0.98`` on
  four generated GRLS-only base configs, {fast, slow} x {noise off, on}.
  The slow epidemic keeps ~100 points in its excitation set, the fast one
  ~16. Seed s is the noise seed.
* ``grls_long``: 20 000 ``grls_step`` calls on a noisy fig3-rate
  trajectory simulated during set-up (noise seed 2 + s).

A round times each of its operations by kind: each config run (figs), each
sweep command (sweep), each ``grls_step`` call (grls_long). Between
operations (every 2000 steps on grls_long) it times a fixed reference
kernel, so that each sample can be scaled by the machine speed measured
right beside it.

An operation that raises or fails an output check is recorded as a
problem; problems over operations attempted is the failed fraction.
"""

from __future__ import annotations

import contextlib
import csv
import statistics
import io
import json
import os
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sisid  # noqa: E402
import sisid.cli  # noqa: E402
from sisid.config import config_from_mapping, load_config_mapping  # noqa: E402

FIGS = ("fig1", "fig2", "fig3_noisefree", "fig3_noisy")
# Estimators documented to fail numerically on the bundled configs: EF-RLS
# winds up on the noise-free fast epidemic (step 574) and the run exits 1.
EXPECTED_FAILURES = {"fig3_noisefree": ["ef_rls"]}

FAST = (0.8076, 0.2692)
SLOW = (0.12, 0.04)
NOISE = {"noise.process_std": "0.001", "noise.observation_std": "0.001",
         "noise.bound_nu": "0.005"}
SWEEP_STEPS = 400
SWEEP_VALUES = ("0.9", "0.94", "0.98")
LONG_STEPS = 20_000
LONG_SEGMENT = 2_000
THETA0 = (1.0, 1.0)
P0_SCALE = 100.0

# Output checks. The recursion must match the batch minimizer as closely as
# the acceptance suite demands. GRLS must recover theta to within the
# prior's remaining weight on clean data (0.98^400 * P0^-1 after a short
# sweep run) and to within the noise floor on noisy data.
ORACLE_TOL = 1e-6
CLEAN_ERR_TOL = 1e-3
NOISY_ERR_TOL = 0.1
ONE_PERCENT = 1e-2

REFERENCE_HASHES = Path(__file__).with_name("reference_hashes.json")

_REF_MATRIX = np.array([[2.0, 0.3], [0.3, 1.0]])
REF_REPS = 9
# machine_time() on the reference machine (2-vCPU x86_64 Xeon, Python 3.11.7,
# numpy 2.4.6) in its faster phase; times are reported at this speed.
REFERENCE_S = 4.1e-4


def reference_kernel() -> float:
    """Fixed work in sisid's style (interpreter-bound numpy calls on 2x2
    matrices) that uses no sisid code, so no change to sisid moves it."""
    m = _REF_MATRIX
    acc = 0.0
    for _ in range(30):
        m = 0.5 * (m + m.T) @ _REF_MATRIX / 2.1
        acc += float(np.linalg.svd(m, compute_uv=False)[-1])
        acc += float(np.linalg.norm(np.vstack([m, _REF_MATRIX])))
    return acc


def machine_time() -> float:
    """Median seconds of a few reference-kernel runs: the machine's current speed."""
    times = []
    for _ in range(REF_REPS):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Stats:
    """What the rounds of one run measured and found."""

    # seconds per operation, by kind: a config, a sweep base, or grls_step
    kind_s: dict[str, array] = field(default_factory=dict)
    # for each sample, the index of the machine-speed mark taken before it
    kind_mark: dict[str, array] = field(default_factory=dict)
    marks: array = field(default_factory=lambda: array("d"))
    wall_s: float = 0.0
    est_steps: int = 0
    rounds: int = 0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    final_errs: list[float] = field(default_factory=list)
    steps_to_1pct: list[int] = field(default_factory=list)
    oracle_gaps: list[float] = field(default_factory=list)
    set_sizes: list[int] = field(default_factory=list)
    bytes_written: int = 0
    files_written: int = 0
    hash_diffs: int = 0
    hashes_compared: int = 0

    def mark(self) -> None:
        self.marks.append(machine_time())

    def timing(self, kind: str) -> tuple[array, array]:
        """(seconds, mark index) arrays that the samples of ``kind`` go to."""
        return (self.kind_s.setdefault(kind, array("d")),
                self.kind_mark.setdefault(kind, array("l")))

    def sample(self, kind: str, seconds: float) -> None:
        times, marks = self.timing(kind)
        times.append(seconds)
        marks.append(len(self.marks) - 1)
        self.wall_s += seconds

    def op(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(problem)


def grls_quality(traj, thetas, accepted, true_theta, alpha, checkpoints):
    """(final max relative error, first step after which it stays <= 1e-2,
    largest relative gap to batch_oracle over the checkpoints)."""
    thetas = np.asarray(thetas, dtype=float)
    errs = np.max(np.abs(thetas - true_theta) / true_theta, axis=1)
    above = np.flatnonzero(errs > ONE_PERCENT)
    steps_to_1pct = int(above[-1]) + 1 if above.size else 0
    gap = 0.0
    for k in checkpoints:
        spec = sisid.WeightedCostSpec(
            alpha=alpha,
            p0_inv=np.eye(2) / P0_SCALE,
            theta0=np.asarray(THETA0),
            greedy_indices=frozenset(i for i in accepted if i <= k),
        )
        oracle = sisid.batch_oracle(traj, sisid.SIS_REGRESSOR, spec, k)
        gap = max(gap, float(np.linalg.norm(thetas[k] - oracle) / np.linalg.norm(oracle)))
    return float(errs[-1]), steps_to_1pct, gap


def _check_grls(stats: Stats, label: str, noisy: bool, quality, set_size: int) -> str | None:
    final_err, steps_to_1pct, gap = quality
    stats.final_errs.append(final_err)
    stats.steps_to_1pct.append(steps_to_1pct)
    stats.oracle_gaps.append(gap)
    stats.set_sizes.append(set_size)
    if not gap <= ORACLE_TOL:
        return f"{label}: recursion differs from batch_oracle by {gap:.3e}"
    if not final_err <= (NOISY_ERR_TOL if noisy else CLEAN_ERR_TOL):
        return f"{label}: final GRLS relative error {final_err:.3e}"
    return None


def _dir_bytes(path: Path) -> tuple[int, int]:
    files = [p for p in path.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Figs:
    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "figs"
        self.configs = []
        for name in FIGS:
            mapping = load_config_mapping(sisid.bundled_config_path(name))
            for key in ("seed", "ie_mmai.seed"):
                if key in mapping:
                    mapping[key] = str(int(mapping[key]) + seed)
            self.configs.append((name, config_from_mapping(mapping)))
        self.first_hashes: dict[str, dict[str, str]] = {}
        self.reference = {}
        if REFERENCE_HASHES.exists():
            self.reference = json.loads(REFERENCE_HASHES.read_text()).get(str(seed), {})

    def run_round(self, stats: Stats) -> None:
        for name, config in self.configs:
            out = self.out / name
            stats.mark()
            t0 = perf_counter()
            try:
                result = sisid.run_experiment(config, output_dir=out)
            except Exception as exc:  # a raising run is a failed operation
                result, problem = None, f"{name}: raised {exc!r}"
            stats.sample(name, perf_counter() - t0)
            stats.op(problem if result is None else self._check(name, config, result, stats))

    def _check(self, name, config, result, stats: Stats) -> str | None:
        manifest = result.manifest
        failed = {e["estimator"]: e["step"] for e in manifest["errors"]}
        stats.est_steps += config.steps * len(config.estimators) - sum(
            config.steps - step for step in failed.values()
        )
        files, size = _dir_bytes(result.output_dir)
        stats.files_written += files
        stats.bytes_written += size
        hashes = {f["name"]: f["sha256"] for f in manifest["files"]}
        expected = EXPECTED_FAILURES.get(name, [])
        if sorted(failed) != expected or result.status != (1 if expected else 0):
            return f"{name}: status {result.status}, failed estimators {sorted(failed)}"
        first = self.first_hashes.setdefault(name, hashes)
        if hashes != first:
            return f"{name}: rerun wrote different trace files"
        if first is not hashes:
            return None  # later passes are bitwise copies of the checked first one
        for file, digest in hashes.items():
            ref = self.reference.get(f"{name}/{file}")
            if ref is not None:
                stats.hashes_compared += 1
                stats.hash_diffs += not digest.startswith(ref)
        grls = next((e for e in config.estimators if e.kind == "grls"), None)
        if grls is None:
            return None
        rows = [r for r in result.rows if r.estimator == "grls"]
        accepted = [r.step for r in rows if r.accepted]
        quality = grls_quality(
            result.trajectory, [(r.beta_hat, r.gamma_hat) for r in rows], accepted,
            config.sis.as_vector(), grls.alpha, (249, 999, config.steps - 1),
        )
        return _check_grls(stats, name, config.noise is not None, quality, len(accepted))


class Sweep:
    def __init__(self, seed: int, workdir: Path):
        self.root = workdir / "sweep"
        config_dir = workdir / "sweep_configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        os.environ["SISID_OUTPUT_ROOT"] = str(self.root)
        self.bases = []
        for speed, (beta, gamma) in (("fast", FAST), ("slow", SLOW)):
            for noisy in (False, True):
                name = f"{speed}_{'noisy' if noisy else 'clean'}"
                mapping = {
                    "beta": repr(beta), "gamma": repr(gamma), "x0": "0.01",
                    "steps": str(SWEEP_STEPS), "noise": "on" if noisy else "off",
                    "estimators": "grls", "grls.alpha": "0.94",
                    "grls.p0_scale": repr(P0_SCALE),
                    "grls.theta0": f"{THETA0[0]!r}, {THETA0[1]!r}",
                    "outputs": name, "emit": "metrics",
                }
                if noisy:
                    mapping.update(NOISE, seed=str(seed))
                path = config_dir / f"{name}.cfg"
                path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
                self.bases.append((name, path))
        self.checked = False
        self.trajectories = {}

    def run_round(self, stats: Stats) -> None:
        for name, path in self.bases:
            argv = ["sweep", str(path), "--param", "grls.alpha",
                    "--values", ",".join(SWEEP_VALUES)]
            raised = None
            stats.mark()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    sisid.cli.main(argv)
            except Exception as exc:  # a raising sweep fails all its variants
                raised = exc
            stats.sample(name, perf_counter() - t0)
            for value in SWEEP_VALUES:
                stats.op(f"{name} alpha={value}: raised {raised!r}" if raised
                         else self._check(name, path, value, stats))
        self.checked = True

    def _check(self, name: str, path: Path, value: str, stats: Stats) -> str | None:
        label = f"{name} alpha={value}"
        out = self.root / name / f"grls_alpha={value}"
        try:
            manifest = json.loads((out / "manifest.json").read_text())
            with open(out / "metrics.csv", newline="") as fh:
                next(fh)  # schema comment line
                rows = [r for r in csv.DictReader(fh) if r["estimator"] == "grls"]
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            return f"{label}: unreadable outputs ({exc!r})"
        files, size = _dir_bytes(out)
        stats.files_written += files
        stats.bytes_written += size
        stats.est_steps += len(rows)
        if manifest["status"] != 0 or len(rows) != SWEEP_STEPS:
            return f"{label}: status {manifest['status']}, {len(rows)} GRLS rows"
        if self.checked:
            return None  # later rounds rewrite the same files; checked once
        config = config_from_mapping({**load_config_mapping(path), "grls.alpha": value})
        if name not in self.trajectories:
            self.trajectories[name] = sisid.simulate(
                config.x0, config.sis, config.steps, config.noise
            )
        accepted = [i for i, r in enumerate(rows) if r["accepted"] == "1"]
        quality = grls_quality(
            self.trajectories[name],
            [(float(r["beta_hat"]), float(r["gamma_hat"])) for r in rows],
            accepted, config.sis.as_vector(), config.estimators[0].alpha,
            (99, SWEEP_STEPS - 1),
        )
        return _check_grls(stats, label, config.noise is not None, quality, len(accepted))


class GrlsLong:
    def __init__(self, seed: int, workdir: Path):
        self.params = sisid.SisParams(*FAST)
        noise = sisid.NoiseSpec(1e-3, 1e-3, 5e-3, seed=2 + seed)
        self.traj = sisid.simulate(0.01, self.params, LONG_STEPS, noise)
        self.first_thetas = None

    def run_round(self, stats: Stats) -> None:
        step = sisid.grls_step
        state = sisid.GrlsState.initial(
            THETA0, sisid.SIS_REGRESSOR, alpha=0.94, p0_scale=P0_SCALE
        )
        xs = self.traj.states
        thetas = np.full((LONG_STEPS, 2), np.nan)
        lat, lat_mark = stats.timing("grls_step")
        problem = None
        done = 0
        for k in range(LONG_STEPS):
            if k % LONG_SEGMENT == 0:
                stats.mark()
                mark = len(stats.marks) - 1
            x_k, x_next = xs[k], xs[k + 1]
            t0 = perf_counter()
            try:
                state = step(state, x_k, x_next)
            except Exception as exc:  # the rest of the pass fails
                problem = f"step {k}: raised {exc!r}"
                break
            dt = perf_counter() - t0
            lat.append(dt)
            lat_mark.append(mark)
            stats.wall_s += dt
            thetas[k] = state.theta
            done += 1
        stats.est_steps += done
        self._check(stats, thetas, state, done, problem)

    def _check(self, stats: Stats, thetas, state, done: int, problem: str | None) -> None:
        segments = LONG_STEPS // LONG_SEGMENT
        if problem is not None:
            for s in range(segments):
                stats.op(problem if (s + 1) * LONG_SEGMENT > done else None)
            return
        if self.first_thetas is not None:
            same = np.array_equal(thetas, self.first_thetas)
            for _ in range(segments):
                stats.op(None if same else "rerun gave different estimates")
            return
        self.first_thetas = thetas
        true_theta = self.params.as_vector()
        accepted = state.excitation.indices
        for s in range(segments):
            k = (s + 1) * LONG_SEGMENT - 1
            quality = grls_quality(
                self.traj, thetas[: k + 1], accepted, true_theta, 0.94, (k,)
            )
            if k == LONG_STEPS - 1:
                stats.op(_check_grls(stats, f"step {k}", True, quality, len(accepted)))
                continue
            gap = quality[2]
            stats.oracle_gaps.append(gap)
            stats.op(None if gap <= ORACLE_TOL else
                     f"step {k}: recursion differs from batch_oracle by {gap:.3e}")


WORKLOADS = {"figs": Figs, "sweep": Sweep, "grls_long": GrlsLong}
