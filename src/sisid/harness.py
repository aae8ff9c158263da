"""Experiment runner: simulate, drive the identifiers in lockstep, emit traces.

A run produces one CSV per requested trace kind plus a ``manifest.json``
echoing the config, the library version, wall time, and a sha256 hash of
every written file. Numerical failures inside an estimator do not abort
the run: the estimator is frozen at its last state, the offending step is
recorded in the manifest, and the exit status becomes nonzero. CSV content
is bitwise reproducible for a fixed config.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import EstimatorSettings, ExperimentConfig, config_to_mapping
from .dynamics import Trajectory, simulate
from .estimators import GrlsState, IeMmaiState, ef_rls_step, grls_step, ie_mmai_step, pure_gd_step
from .excitation import SIS_REGRESSOR, Regressor, finite_pair, residual
from .linalg import ConditioningError, Sym2, sym2, sym2_condition, sym2_eigenvalues

METRICS_SCHEMA = "sisid-metrics-v1"
TRAJECTORY_SCHEMA = "sisid-trajectory-v1"
GREEDY_SCHEMA = "sisid-greedy-v1"

METRICS_COLUMNS = (
    "step", "estimator", "beta_hat", "gamma_hat", "r0_hat",
    "max_rel_err", "log10_max_rel_err", "fim_cond",
    "p_cond", "p_max_eig", "accepted",
)


@dataclass(frozen=True)
class MetricsRow:
    """Per-step, per-estimator metrics; None marks a field without a defined value."""

    step: int
    estimator: str
    beta_hat: float
    gamma_hat: float
    r0_hat: float | None
    max_rel_err: float | None
    log10_max_rel_err: float | None
    fim_cond: float
    p_cond: float | None
    p_max_eig: float | None
    accepted: bool | None


def empirical_cost(
    traj: Trajectory, reg: Regressor, theta_hat: np.ndarray, alpha: float, k: int
) -> float:
    """Half-sum of exponentially discounted squared residuals over steps 0..k."""
    if k >= traj.step_count:
        raise ValueError(f"step {k} out of range for {traj.step_count} observations")
    total = 0.0
    for i in range(k + 1):
        r = residual(traj.observations[i], reg(traj.states[i]), theta_hat)
        total += alpha ** (k - i) * float(r @ r)
    return 0.5 * total


def fim_condition_trace(traj: Trajectory, reg: Regressor, alpha: float) -> list[float]:
    """Condition number of the discounted FIM after each step (may contain inf).

    The FIM H = alpha H + phi^T phi is accumulated as its entries, so its
    condition number is the same closed form the greedy offer uses.
    """
    a = b = d = 0.0
    trace = []
    for x in traj.states[:-1].tolist():
        u1, u2 = finite_pair(reg(x), "regressor")
        a, b, d = alpha * a + u1 * u1, alpha * b + u1 * u2, alpha * d + u2 * u2
        trace.append(sym2_condition(a, b, d))
    return trace


class _Runner:
    """Shared freeze-on-failure stepping for one estimator."""

    kind = ""

    def __init__(self, settings: EstimatorSettings):
        self.settings = settings
        self.failed_at: int | None = None
        self.error: str | None = None
        self.accepted_last: bool | None = None

    def step(self, k: int, x_k: float, x_next: float, phi: np.ndarray, y: np.ndarray) -> None:
        if self.failed_at is not None:
            return
        try:
            self._advance(k, x_k, x_next, phi, y)
        except ConditioningError as exc:
            self.failed_at = k
            self.error = str(exc)
            self.accepted_last = None

    def _advance(self, k, x_k, x_next, phi, y) -> None:
        raise NotImplementedError

    @property
    def theta(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def p_entries(self) -> Sym2 | None:
        """The covariance P as its entries (a, b, d), for estimators that have one."""
        return None


class _PureGdRunner(_Runner):
    kind = "pure_gd"

    def __init__(self, settings: EstimatorSettings):
        super().__init__(settings)
        self._theta = np.asarray(settings.theta0, dtype=float)

    def _advance(self, k, x_k, x_next, phi, y) -> None:
        self._theta = pure_gd_step(self._theta, phi, y)

    @property
    def theta(self) -> np.ndarray:
        return self._theta


class _EfRlsRunner(_Runner):
    kind = "ef_rls"

    def __init__(self, settings: EstimatorSettings):
        super().__init__(settings)
        self._p = settings.p0_scale * np.eye(2)
        self._theta = np.asarray(settings.theta0, dtype=float)

    def _advance(self, k, x_k, x_next, phi, y) -> None:
        self._p, self._theta = ef_rls_step((self._p, self._theta), phi, y, self.settings.alpha)

    @property
    def theta(self) -> np.ndarray:
        return self._theta

    @property
    def p_entries(self) -> Sym2:
        return sym2(self._p)


class _GrlsRunner(_Runner):
    kind = "grls"

    def __init__(self, settings: EstimatorSettings):
        super().__init__(settings)
        self.state = GrlsState.initial(
            settings.theta0, SIS_REGRESSOR,
            alpha=settings.alpha, p0_scale=settings.p0_scale,
        )

    def _advance(self, k, x_k, x_next, phi, y) -> None:
        before = self.state.excitation.size
        self.state = grls_step(self.state, x_k, x_next)
        self.accepted_last = self.state.excitation.size > before

    @property
    def theta(self) -> np.ndarray:
        return self.state.theta

    @property
    def p_entries(self) -> Sym2:
        return sym2(self.state.P)


class _IeMmaiRunner(_Runner):
    kind = "ie_mmai"

    def __init__(self, settings: EstimatorSettings):
        super().__init__(settings)
        self.state = IeMmaiState.initialize(
            settings.theta0, settings.models,
            spread=settings.spread, seed=settings.seed,
        )
        self._selected = self.state.selected()

    def _advance(self, k, x_k, x_next, phi, y) -> None:
        self.state, self._selected = ie_mmai_step(self.state, phi, y)

    @property
    def theta(self) -> np.ndarray:
        return self._selected


_RUNNERS = {
    "pure_gd": _PureGdRunner,
    "ef_rls": _EfRlsRunner,
    "grls": _GrlsRunner,
    "ie_mmai": _IeMmaiRunner,
}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _metrics_row(
    k: int, runner: _Runner, true_theta: np.ndarray, fim_cond: float, clamp: bool
) -> MetricsRow:
    theta = np.maximum(runner.theta, 0.0) if clamp else runner.theta
    beta_hat, gamma_hat = float(theta[0]), float(theta[1])
    r0_hat = beta_hat / gamma_hat if gamma_hat != 0.0 else None
    if np.all(true_theta > 0):
        max_rel = float(np.max(np.abs(theta - true_theta) / true_theta))
        log_rel = math.log10(max_rel) if max_rel > 0 else None
    else:
        max_rel = None
        log_rel = None
    p = runner.p_entries
    if p is not None:
        p_cond = sym2_condition(*p)
        p_max_eig = sym2_eigenvalues(*p)[1]
    else:
        p_cond = None
        p_max_eig = None
    return MetricsRow(
        step=k,
        estimator=runner.kind,
        beta_hat=beta_hat,
        gamma_hat=gamma_hat,
        r0_hat=r0_hat,
        max_rel_err=max_rel,
        log10_max_rel_err=log_rel,
        fim_cond=fim_cond,
        p_cond=p_cond,
        p_max_eig=p_max_eig,
        accepted=runner.accepted_last,
    )


@dataclass
class RunResult:
    rows: list[MetricsRow]
    status: int
    trajectory: Trajectory
    output_dir: Path | None
    manifest: dict


def run_experiment(config: ExperimentConfig, output_dir: str | Path | None = None) -> RunResult:
    """Execute one experiment and return rows, status, trajectory, and manifest.

    Trace CSVs and a manifest are written to ``output_dir`` (defaulting to
    ``config.outputs``); nothing touches the disk when the config's emit
    list is empty and no directory is forced. The exit status is nonzero
    when any estimator hit a numerical error mid-run; such estimators stay
    frozen at their last state for the remaining steps.
    """
    config.validate()
    start = time.monotonic()

    traj = simulate(config.x0, config.sis, config.steps, config.noise)
    runners = [_RUNNERS[est.kind](est) for est in config.estimators]
    true_theta = config.sis.as_vector()

    fim_traces: dict[float, list[float]] = {}
    for est in config.estimators:
        if est.alpha not in fim_traces:
            fim_traces[est.alpha] = fim_condition_trace(traj, SIS_REGRESSOR, est.alpha)

    rows: list[MetricsRow] = []
    greedy_rows: list[tuple[int, bool, float, float]] = []
    for k in range(traj.step_count):
        x_k, x_next = traj.states[k], traj.states[k + 1]
        phi = SIS_REGRESSOR(x_k)
        y = np.atleast_1d(traj.observations[k])
        for runner in runners:
            grls_live = runner.kind == "grls" and runner.failed_at is None
            before = runner.state.excitation.cond if grls_live else None
            runner.step(k, x_k, x_next, phi, y)
            if grls_live and runner.failed_at is None:
                greedy_rows.append(
                    (k, bool(runner.accepted_last), before, runner.state.excitation.cond)
                )
            rows.append(
                _metrics_row(
                    k, runner, true_theta,
                    fim_traces[runner.settings.alpha][k], config.clamp_estimates,
                )
            )

    errors = [
        {"estimator": r.kind, "step": r.failed_at, "message": r.error}
        for r in runners
        if r.failed_at is not None
    ]
    status = 1 if errors else 0

    manifest = {
        "schema": "sisid-manifest-v1",
        "version": __version__,
        "config": config_to_mapping(config),
        "errors": errors,
        "status": status,
        "files": [],
    }

    if output_dir is None and not config.emit:
        out = None
    else:
        out = Path(output_dir) if output_dir is not None else Path(config.outputs)
        out.mkdir(parents=True, exist_ok=True)
        written = _write_traces(out, config, traj, rows, greedy_rows)
        manifest["files"] = [
            {"name": name, "kind": kind, "sha256": _sha256(out / name)}
            for name, kind in written
        ]
        manifest["wall_time_s"] = time.monotonic() - start
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    return RunResult(rows=rows, status=status, trajectory=traj, output_dir=out, manifest=manifest)


def _sha256(path: Path) -> str:
    import hashlib  # only manifests need it; it costs megabytes on import

    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_traces(
    out: Path,
    config: ExperimentConfig,
    traj: Trajectory,
    rows: list[MetricsRow],
    greedy_rows: list[tuple[int, bool, float, float]],
) -> list[tuple[str, str]]:
    written = []
    if "metrics" in config.emit:
        path = out / "metrics.csv"
        with open(path, "w", newline="") as fh:
            fh.write(f"# {METRICS_SCHEMA}\n")
            writer = csv.writer(fh)
            writer.writerow(METRICS_COLUMNS)
            for row in rows:
                writer.writerow(
                    [
                        row.step, row.estimator,
                        _cell(row.beta_hat), _cell(row.gamma_hat), _cell(row.r0_hat),
                        _cell(row.max_rel_err), _cell(row.log10_max_rel_err),
                        _cell(row.fim_cond), _cell(row.p_cond), _cell(row.p_max_eig),
                        _cell(row.accepted),
                    ]
                )
        written.append(("metrics.csv", "metrics"))
    if "trajectory" in config.emit:
        path = out / "trajectory.csv"
        _write_trajectory(path, traj)
        written.append(("trajectory.csv", "trajectory"))
    if "greedy" in config.emit and greedy_rows:
        path = out / "greedy.csv"
        with open(path, "w", newline="") as fh:
            fh.write(f"# {GREEDY_SCHEMA}\n")
            writer = csv.writer(fh)
            writer.writerow(["step", "accepted", "kappa_before", "kappa_after"])
            for step, accepted, before, after in greedy_rows:
                writer.writerow([step, int(accepted), repr(before), repr(after)])
        written.append(("greedy.csv", "greedy"))
    return written


def _write_trajectory(path: Path, traj: Trajectory) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {TRAJECTORY_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "state", "observation", "noise_applied"])
        for k in range(traj.step_count):
            writer.writerow(
                [k, repr(float(traj.states[k])), repr(float(traj.observations[k])),
                 repr(float(traj.process_noise[k]))]
            )
        writer.writerow([traj.step_count, repr(float(traj.states[-1])), "", ""])
