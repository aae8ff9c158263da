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
    ef_rls_kernel,
    grls_kernel,
    ie_mmai_init,
    ie_mmai_kernel,
    ie_mmai_selected,
    pure_gd_kernel,
)
from .excitation import (
    GreedySet,
    Regressor,
    finite_pair,
    sis_regressor_pair,
    write_acceptance_trace,
)
from .linalg import (
    ConditioningError,
    Sym2,
    eigenvalue_condition,
    sym2_condition,
    sym2_eigenvalues,
)

METRICS_SCHEMA = "sisid-metrics-v1"


class MetricsRow(NamedTuple):
    """Per-step, per-estimator metrics; None marks a field without a defined value.

    A NamedTuple: it unpacks, indexes and compares equal to a plain tuple.
    """

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


METRICS_COLUMNS = MetricsRow._fields


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

    ``init(settings)`` builds the state from settings that passed
    ``ExperimentConfig.validate``. ``step(settings, state, phi, y)``
    returns the next state and the outcome of its excitation-set offer,
    None for estimators without a set; it raises
    ``ConditioningError`` when the estimator fails. ``theta(state)`` is the
    estimate, ``p(state)`` the covariance's entries (None without one).
    """

    init: Callable[[EstimatorSettings], Any]
    step: Callable[..., tuple[Any, _Offer | None]]
    theta: Callable[[Any], tuple[float, float]]
    p: Callable[[Any], Sym2 | None]


def _rls_init(est: EstimatorSettings) -> tuple[Sym2, tuple[float, ...]]:
    """EF-RLS's state, and GRLS's before its set and step: P0 = p0_scale * I and theta0."""
    p0 = float(est.p0_scale)
    return (p0, 0.0, p0), tuple(map(float, est.theta0))


def _pure_gd_step(est, theta, phi, y):
    return pure_gd_kernel(theta, phi, y), None


def _ef_rls_step(est, state, phi, y):
    return ef_rls_kernel(*state, phi, y, est.alpha), None


def _grls_step(est, state, phi, y):
    p, theta, before, k = state
    p, theta, after, accepted = grls_kernel(p, theta, before, phi, y, k, est.alpha, True)
    return (p, theta, after, k + 1), (accepted, before.cond, after.cond)


def _ie_mmai_step(est, state, phi, y):
    return ie_mmai_kernel(state, phi, y), None


_ESTIMATORS = {
    "pure_gd": _Estimator(
        lambda est: tuple(map(float, est.theta0)), _pure_gd_step, lambda t: t, lambda s: None
    ),
    "ef_rls": _Estimator(_rls_init, _ef_rls_step, lambda s: s[1], lambda s: s[0]),
    # GRLS's state: P's entries, theta, the excitation set, the step
    "grls": _Estimator(
        lambda est: (*_rls_init(est), GreedySet(), 0), _grls_step, lambda s: s[1], lambda s: s[0]
    ),
    "ie_mmai": _Estimator(
        lambda est: ie_mmai_init(est.theta0, est.models, est.spread, est.seed),
        _ie_mmai_step, lambda s: ie_mmai_selected(s[0]), lambda s: None,
    ),
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

    # in chunks: a whole trace file in memory would set the run's peak RSS
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


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

    A converged or stalled estimator repeats its values, and lanes that
    share an alpha share ``fim_cond``, so each float is formatted once per
    run of equal values: a row reuses the text of its estimator's previous
    row when its seven floats besides ``fim_cond`` equal that row's, and
    the text of the previous row's ``fim_cond`` when that value is equal.
    Text is never reused for a zero, as 0.0 == -0.0 but their reprs differ.
    NaN equals no value, so it is formatted anew unless the very same
    object repeats.
    """
    # estimator -> its previous row's floats (None if one was zero) and their text
    last: dict[str, tuple[tuple | None, str, str]] = {}
    last_fim, fim_text = None, ""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {METRICS_SCHEMA}\n")
        fh.write(",".join(METRICS_COLUMNS) + "\r\n")
        for step, estimator, beta, gamma, r0, rel, log_rel, fim, p_cond, p_max, accepted in rows:
            values = (beta, gamma, r0, rel, log_rel, p_cond, p_max)
            prev = last.get(estimator)
            if prev is None or prev[0] != values:
                prev = last[estimator] = (
                    None if 0.0 in values else values,
                    f"{beta!r},{gamma!r},{_opt(r0)},{_opt(rel)},{_opt(log_rel)}",
                    f"{_opt(p_cond)},{_opt(p_max)}",
                )
            if fim != last_fim:
                fim_text = repr(fim)
                last_fim = None if fim == 0.0 else fim
            _, head, tail = prev
            flag = "" if accepted is None else "1" if accepted else "0"
            fh.write(f"{step},{estimator},{head},{fim_text},{tail},{flag}\r\n")
