"""Experiment runner: simulate, drive the identifiers in lockstep, emit traces.

A run produces one CSV per requested trace kind plus a ``manifest.json``
echoing the config, the library, Python and numpy versions, wall time and
per-phase timings, the GRLS excitation set, and a sha256 hash of every
written file. Numerical failures inside an estimator do not abort the run:
the estimator is frozen at its last state, the offending step is recorded
in the manifest, and the exit status becomes nonzero. CSV content is
bitwise reproducible for a fixed config; timings appear only in the
manifest.

The step loop works on floats. Each estimator kind is one entry of
``_ESTIMATORS``: how to build its state, step it through its float kernel,
and read its estimate and covariance. The regressor pairs are computed
once per run and feed both the FIM condition trace and the steps. Metrics
rows and CSV lines are formed from those floats.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .config import EstimatorSettings, ExperimentConfig, config_to_mapping
from .dynamics import Trajectory, simulate
from .estimators import (
    GrlsState,
    IeMmaiConfig,
    IeMmaiState,
    ef_rls_kernel,
    grls_kernel,
    ie_mmai_kernel,
    ie_mmai_selected,
    pure_gd_kernel,
)
from .excitation import (
    SIS_REGRESSOR,
    GreedySet,
    Regressor,
    finite_pair,
    finite_scalar,
    residual,
    sis_regressor_pair,
    write_acceptance_trace,
)
from .linalg import (
    ConditioningError,
    Sym2,
    eigenvalue_condition,
    sym2,
    sym2_condition,
    sym2_eigenvalues,
)

METRICS_SCHEMA = "sisid-metrics-v1"

METRICS_COLUMNS = (
    "step", "estimator", "beta_hat", "gamma_hat", "r0_hat",
    "max_rel_err", "log10_max_rel_err", "fim_cond",
    "p_cond", "p_max_eig", "accepted",
)


@dataclass(frozen=True, slots=True)
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
    pairs = [finite_pair(reg(x), "regressor") for x in traj.states[:-1].tolist()]
    return _fim_condition_trace(pairs, alpha)


def _fim_condition_trace(pairs: list[tuple[float, float]], alpha: float) -> list[float]:
    """``fim_condition_trace`` over regressor pairs (u1, u2), one per step."""
    a = b = d = 0.0
    trace = []
    for u1, u2 in pairs:
        a, b, d = alpha * a + u1 * u1, alpha * b + u1 * u2, alpha * d + u2 * u2
        trace.append(sym2_condition(a, b, d))
    return trace


# A greedy offer's outcome: (accepted, kappa before, kappa after).
_Offer = tuple[bool, float, float]


class _Estimator(NamedTuple):
    """How the run loop drives one estimator kind on floats.

    ``init(settings)`` builds the state. ``step(settings, state, phi, y)``
    returns the next state and the outcome of its excitation-set offer,
    None for estimators without a set; it raises
    ``ConditioningError`` when the estimator fails. ``theta(state)`` is the
    estimate, ``p(state)`` the covariance's entries (None without one).
    """

    init: Callable[[EstimatorSettings], Any]
    step: Callable[..., tuple[Any, _Offer | None]]
    theta: Callable[[Any], tuple[float, float]]
    p: Callable[[Any], Sym2 | None]


def _theta0(est: EstimatorSettings) -> tuple[float, float]:
    return finite_pair(np.asarray(est.theta0, dtype=float), f"{est.kind}.theta0")


def _ef_rls_init(est: EstimatorSettings) -> tuple[Sym2, tuple[float, float]]:
    p0 = finite_scalar(est.p0_scale, f"{est.kind}.p0_scale")
    return (p0, 0.0, p0), _theta0(est)


# GRLS's state on floats: P's entries, theta, the excitation set, the step.
_GrlsFloats = tuple[Sym2, tuple[float, float], GreedySet, int]


def _grls_init(est: EstimatorSettings) -> _GrlsFloats:
    state = GrlsState.initial(est.theta0, SIS_REGRESSOR, alpha=est.alpha, p0_scale=est.p0_scale)
    return sym2(state.P), tuple(state.theta.tolist()), state.excitation, state.step


def _ie_mmai_init(est: EstimatorSettings):
    return IeMmaiState.initialize(est.theta0, est.models, spread=est.spread, seed=est.seed).floats()


def _pure_gd_step(est, theta, phi, y):
    return pure_gd_kernel(theta, phi, y), None


def _ef_rls_step(est, state, phi, y):
    return ef_rls_kernel(*state, phi, y, est.alpha), None


def _grls_step(est, state, phi, y):
    p, theta, before, k = state
    p, theta, after, accepted = grls_kernel(p, theta, before, phi, y, k, est.alpha, True)
    return (p, theta, after, k + 1), (accepted, before.cond, after.cond)


_IE_MMAI_CONFIG = IeMmaiConfig()


def _ie_mmai_step(est, state, phi, y):
    return ie_mmai_kernel(state, _IE_MMAI_CONFIG, phi, y), None


def _no_p(state) -> None:
    return None


_ESTIMATORS = {
    "pure_gd": _Estimator(_theta0, _pure_gd_step, lambda theta: theta, _no_p),
    "ef_rls": _Estimator(_ef_rls_init, _ef_rls_step, lambda s: s[1], lambda s: s[0]),
    "grls": _Estimator(_grls_init, _grls_step, lambda s: s[1], lambda s: s[0]),
    "ie_mmai": _Estimator(_ie_mmai_init, _ie_mmai_step, lambda s: ie_mmai_selected(s[0]), _no_p),
}


@dataclass(slots=True)
class _Lane:
    """One estimator's run: its settings, table entry, state and failure."""

    settings: EstimatorSettings
    estimator: _Estimator
    state: Any
    fim_trace: list[float]
    failed_at: int | None = None
    error: str | None = None
    step_s: float = 0.0


def _metrics_row(
    k: int,
    kind: str,
    theta: tuple[float, float],
    p: Sym2 | None,
    fim_cond: float,
    accepted: bool | None,
    truth: tuple[float, float] | None,
    clamp: bool,
) -> MetricsRow:
    beta_hat, gamma_hat = theta
    if clamp:
        beta_hat = beta_hat if beta_hat > 0.0 else 0.0
        gamma_hat = gamma_hat if gamma_hat > 0.0 else 0.0
    r0_hat = beta_hat / gamma_hat if gamma_hat != 0.0 else None
    if truth is None:
        max_rel = log_rel = None
    else:
        beta, gamma = truth
        max_rel = max(abs(beta_hat - beta) / beta, abs(gamma_hat - gamma) / gamma)
        log_rel = math.log10(max_rel) if max_rel > 0 else None
    if p is None:
        p_cond = p_max_eig = None
    else:
        p_min_eig, p_max_eig = sym2_eigenvalues(*p)
        p_cond = eigenvalue_condition(p_min_eig, p_max_eig)
    return MetricsRow(
        k, kind, beta_hat, gamma_hat, r0_hat, max_rel, log_rel,
        fim_cond, p_cond, p_max_eig, accepted,
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

    ``manifest["timings"]`` holds seconds spent simulating, computing the
    FIM condition trace, stepping each estimator, forming metrics rows and
    writing files. ``manifest["excitation"]``, present when GRLS ran, holds
    its excitation set: size, step indices and final condition number
    (null while the set is rank deficient).
    """
    config.validate()
    start = time.monotonic()
    clock = time.perf_counter

    t0 = clock()
    traj = simulate(config.x0, config.sis, config.steps, config.noise)
    t1 = clock()
    pairs = [sis_regressor_pair(x) for x in traj.states[:-1].tolist()]
    fim_traces: dict[float, list[float]] = {}
    for est in config.estimators:
        if est.alpha not in fim_traces:
            fim_traces[est.alpha] = _fim_condition_trace(pairs, est.alpha)
    t2 = clock()
    lanes = [
        _Lane(est, _ESTIMATORS[est.kind], _ESTIMATORS[est.kind].init(est), fim_traces[est.alpha])
        for est in config.estimators
    ]
    beta, gamma = config.sis.beta, config.sis.gamma
    truth = (beta, gamma) if beta > 0 and gamma > 0 else None
    clamp = config.clamp_estimates

    rows: list[MetricsRow] = []
    greedy_rows: list[tuple[int, bool, float, float]] = []
    for k, (phi, y) in enumerate(zip(pairs, traj.observations.tolist())):
        for lane in lanes:
            estimator = lane.estimator
            offer = None
            if lane.failed_at is None:
                t_step = clock()
                try:
                    lane.state, offer = estimator.step(lane.settings, lane.state, phi, y)
                except ConditioningError as exc:
                    lane.failed_at, lane.error = k, str(exc)
                lane.step_s += clock() - t_step
                if offer is not None:
                    greedy_rows.append((k, *offer))
            rows.append(
                _metrics_row(
                    k, lane.settings.kind, estimator.theta(lane.state), estimator.p(lane.state),
                    lane.fim_trace[k], None if offer is None else offer[0], truth, clamp,
                )
            )
    t3 = clock()

    errors = [
        {"estimator": lane.settings.kind, "step": lane.failed_at, "message": lane.error}
        for lane in lanes
        if lane.failed_at is not None
    ]
    status = 1 if errors else 0
    step_s = {lane.settings.kind: lane.step_s for lane in lanes}

    manifest = {
        "schema": "sisid-manifest-v1",
        "version": __version__,
        "environment": {
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
        },
        "config": config_to_mapping(config),
        "errors": errors,
        "status": status,
        "files": [],
        "timings": {
            "simulate_s": t1 - t0,
            "fim_trace_s": t2 - t1,
            "step_s": step_s,
            "metrics_rows_s": t3 - t2 - sum(step_s.values()),
            "write_s": 0.0,
        },
    }
    if greedy_rows:
        indices = [k for k, accepted, _, _ in greedy_rows if accepted]
        kappa = greedy_rows[-1][3]
        manifest["excitation"] = {
            "size": len(indices),
            "indices": indices,
            "final_kappa": kappa if math.isfinite(kappa) else None,
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
        manifest["timings"]["write_s"] = clock() - t3
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
        _write_metrics(out / "metrics.csv", rows)
        written.append(("metrics.csv", "metrics"))
    if "trajectory" in config.emit:
        traj.to_csv(out / "trajectory.csv")
        written.append(("trajectory.csv", "trajectory"))
    if "greedy" in config.emit and greedy_rows:
        write_acceptance_trace(out / "greedy.csv", greedy_rows)
        written.append(("greedy.csv", "greedy"))
    return written


def _opt(value: float | None) -> str:
    return "" if value is None else repr(value)


def _write_metrics(path: Path, rows: list[MetricsRow]) -> None:
    """Write the metrics CSV: a schema line, then a header and one line per row.

    Floats are written by ``repr`` and None as an empty field; rows end in
    \\r\\n, as the csv module's default dialect writes them.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# {METRICS_SCHEMA}\n")
        fh.write(",".join(METRICS_COLUMNS) + "\r\n")
        for r in rows:
            accepted = "" if r.accepted is None else "1" if r.accepted else "0"
            fh.write(
                f"{r.step},{r.estimator},{r.beta_hat!r},{r.gamma_hat!r},{_opt(r.r0_hat)},"
                f"{_opt(r.max_rel_err)},{_opt(r.log10_max_rel_err)},{r.fim_cond!r},"
                f"{_opt(r.p_cond)},{_opt(r.p_max_eig)},{accepted}\r\n"
            )
