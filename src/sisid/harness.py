"""Experiment runner: simulate, run each identifier to the end in turn, emit traces.

A run produces one CSV per requested trace kind plus a ``manifest.json``
echoing the config, the library, Python and numpy versions, wall time and
per-phase timings, the GRLS excitation set, and the sha256 of every
written file, hashed from its bytes as they are written. Numerical
failures inside an estimator do not abort the run: the estimator is
frozen at its last state, the offending step is recorded in the manifest,
and the exit status becomes nonzero. CSV content is bitwise reproducible
for a fixed config; timings appear only in the manifest.

The step loop works on floats. Each estimator runs as one lane, a
generator that steps its float kernel over the run's regressor pairs and
observations and reports its estimate, covariance and greedy offer after
each step; EF-RLS is the GRLS lane with its excitation set disabled. The
regressor pairs are computed once per run and feed both the FIM condition
trace and the lanes. The trace is one pass per distinct alpha, largest
first, that checks the FIM entries at every step, names the first step
where they are not finite, and forms a condition number, and for a metrics
trace its text, only when they change. Lane by lane, ``_run_lane`` draws a
lane's reports to the end, or until it fails or settles (below), and forms
its metrics rows, and their CSV lines for a metrics trace, from them; it
returns them with the lane's greedy offers. A row holds eleven fields; its
line, in ``sisid-metrics-v2``, writes the nine of ``METRICS_COLUMNS`` and
leaves out ``r0_hat`` and ``log10_max_rel_err``, which the line's
``beta_hat``, ``gamma_hat`` and ``max_rel_err`` give exactly.
Rows and lines are interleaved step by step, and ``dynamics.write_trace``
writes and hashes the lines; no file is read back. Each FIM condition
number, and each row's ``p_cond`` and ``p_max_eig`` together, come from one
``linalg.sym2_spectrum`` call. The phases and the whole run are timed by
one ``time.perf_counter`` clock.

A noise-free run often reaches an exact fixed point, after which every step
has the same regressor pair and observation. The run finds the first such
step, ``settled``, from its states. From there on the FIM pass stops once its
entries repeat, and ``_run_lane`` stops drawing a pure-GD or RLS lane's
reports once one repeats the one before it (a lane only steps); the last
output is repeated to the end, bitwise what stepping on would give. IE-MMAI
steps to the end, as its models' costs decay every step. The manifest's
``settled`` block names the trajectory's settle step and, for each lane that
stopped stepping, the first step whose report every later step repeats.

A run pauses Python's cyclic garbage collector and restores the caller's
setting when it returns or raises. A run holds each lane's reports until its
rows are formed, and the rows until it returns: GC-tracked tuples (a
``MetricsRow``, a tuple subclass, is never untracked) that form no cycles,
so each automatic collection their allocation would trigger walks them and
frees nothing, and the longer the run, the more of those collections reach
the older generations. The collector's setting is process-wide, so under
threads the pause holds for every thread while a run is in progress.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, EstimatorSettings, ExperimentConfig, config_to_mapping
from .dynamics import Trajectory, simulate, write_trace
from .estimators import (
    grls_kernel,
    ie_mmai_init,
    ie_mmai_kernel,
    ie_mmai_selected,
    pure_gd_kernel,
    read_alpha,
)
from .excitation import GreedySet, regressor_pairs, sis_regressor_pair, write_acceptance_trace
from .linalg import ConditioningError, Sym2, sym2_spectrum

METRICS_SCHEMA = "sisid-metrics-v2"


class MetricsRow(NamedTuple):
    """Per-step, per-estimator metrics; None marks a field without a defined value.

    A NamedTuple: it unpacks, indexes and compares equal to a plain tuple. Of
    its eleven fields a metrics trace writes nine, ``METRICS_COLUMNS``: not
    ``r0_hat`` (beta_hat / gamma_hat, None when gamma_hat is 0) nor
    ``log10_max_rel_err`` (math.log10 of ``max_rel_err``, None when that is
    None or 0), which a line's own fields give exactly.
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


# the fields a metrics line writes
METRICS_COLUMNS = tuple(f for f in MetricsRow._fields if f not in ("r0_hat", "log10_max_rel_err"))


def fim_condition_trace(traj: Trajectory, reg: Callable, alpha: float) -> list[float]:
    """Condition number of the discounted FIM after each step (may contain inf).

    The FIM H = alpha H + phi^T phi is accumulated as its entries, so its
    condition number is the same closed form the greedy offer uses.
    ``ValueError`` naming alpha unless ``read_alpha`` reads it, and naming
    the first step whose FIM entries are not finite, as when the regressor
    overflows.
    """
    alpha = read_alpha(alpha)
    pairs = regressor_pairs(reg, traj.states[:-1].tolist())
    return _fim_condition_trace(pairs, alpha, with_texts=False)[0]


def _fim_condition_trace(
    pairs: Iterable[tuple[float, float]], alpha: float, settled: float = math.inf,
    with_texts: bool = True,
) -> tuple[list[float], list[str] | None]:
    """``fim_condition_trace`` over regressor pairs (u1, u2), one per step, and the
    text of each condition number, formed with it (None unless ``with_texts``). A
    step whose entries equal the previous step's repeats its condition number and
    text objects: the entries are finite, and the sign of a zero entry does not
    change them. From step ``settled`` on, the pairs (a list then) are one pair, so
    once the entries repeat there, every later step repeats them too.
    """
    a = b = d = 0.0
    last_a = last_b = last_d = math.nan
    trace, texts = [], [] if with_texts else None
    for k, (u1, u2) in enumerate(pairs):
        a, b, d = alpha * a + u1 * u1, alpha * b + u1 * u2, alpha * d + u2 * u2
        if a * 0.0 + b * 0.0 + d * 0.0:  # 0.0 for finite entries, NaN otherwise
            raise ValueError(f"the FIM entries {(a, b, d)!r} are not finite from step {k}")
        if a != last_a or b != last_b or d != last_d:
            kappa, last_a, last_b, last_d = sym2_spectrum(a, b, d)[2], a, b, d
            if with_texts:
                text = repr(kappa)
        elif k >= settled:  # steps k.. repeat this one
            rest = len(pairs) - k
            trace += [kappa] * rest
            if with_texts:
                texts += [text] * rest
            break
        trace.append(kappa)
        if with_texts:
            texts.append(text)
    return trace, texts


# What a lane yields before its first step and after each step: theta, P's
# entries (None without a covariance), and its greedy offer's outcome
# (accepted, kappa before, kappa after), None for estimators without an
# excitation set. A step that fails raises ``ConditioningError`` out of it.
# A lane starts from settings a config has read: floats, theta0 a float pair.
# A lane only steps, to the end of the run; ``_run_lane`` decides where it ends.
_Report = tuple[tuple[float, float], Sym2 | None, tuple[bool, float, float] | None]


def _pure_gd_lane(est: EstimatorSettings, pairs, ys) -> Iterator[_Report]:
    theta = est.theta0
    yield theta, None, None
    for phi, y in zip(pairs, ys):
        theta = pure_gd_kernel(theta, phi, y)
        yield theta, None, None


def _rls_lane(est: EstimatorSettings, pairs, ys) -> Iterator[_Report]:
    """GRLS, or EF-RLS: the same kernel with its excitation set disabled."""
    p, theta, gset = (est.p0_scale, 0.0, est.p0_scale), est.theta0, GreedySet()
    greedy = est.kind == "grls"
    yield theta, p, None
    for k, (phi, y) in enumerate(zip(pairs, ys)):
        before = gset.cond
        p, theta, gset, accepted = grls_kernel(p, theta, gset, phi, y, k, est.alpha, greedy)
        yield theta, p, (accepted, before, gset.cond) if greedy else None


def _ie_mmai_lane(est: EstimatorSettings, pairs, ys) -> Iterator[_Report]:
    state = ie_mmai_init(est.theta0, est.models, est.spread, est.seed)
    yield ie_mmai_selected(state[0]), None, None
    for phi, y in zip(pairs, ys):
        state = ie_mmai_kernel(state, phi, y)
        yield ie_mmai_selected(state[0]), None, None


_LANES = {
    "pure_gd": _pure_gd_lane, "ef_rls": _rls_lane, "grls": _rls_lane, "ie_mmai": _ie_mmai_lane
}


def _run_lane(
    est: EstimatorSettings, pairs, ys, settled: int, fim_trace: list[float], truth,
    clamp: bool, fim_texts: list[str] | None,
) -> tuple[list[MetricsRow], list[str], float, dict | None, list[tuple], int | None]:
    """One lane's metrics rows, their CSV lines, its stepping seconds, its error
    entry, its greedy offers, each as (step, accepted, kappa before, after), and
    the first step whose report every later step repeats, for a lane that
    settled (None otherwise).

    A lane only steps; this ends it early in two ways. A step that raises
    ``ConditioningError`` freezes it at its last report, with no offer from that
    step on, and makes the error entry (None otherwise). From step ``settled``
    on, every step has one regressor pair and observation, so a report there
    that equals the one before it, with no accepted offer, is a state that
    every later step repeats, and the lane is stepped no further. Two kinds of
    report are stepped on: IE-MMAI's, which is not its state (its models' costs
    decay every step), and one holding a zero in theta or P, as 0.0 == -0.0 and
    a zero's sign can change the next step.

    A frozen or converged lane repeats theta and P, so a row's derived values
    and their text are formed anew only when those change, or follow a zero, as
    their reprs differ; the rows of a settled or frozen lane's repeated tail are
    formed from its last report in one pass. A line takes its ``fim_cond`` text
    from ``fim_texts``; without them no line is formed.
    """
    reports, error, lane_settled = [], None, None
    lane = _LANES[est.kind](est, pairs, ys)
    unchecked = len(ys) if est.kind == "ie_mmai" else settled  # steps taken unchecked
    t0 = time.perf_counter()
    try:
        reports.extend(islice(lane, unchecked + 1))  # keeps what came before a raise
        for report in lane:
            reports.append(report)
            theta, p, offer = report
            if report == reports[-2] and not (offer and offer[0]) and 0.0 not in theta + (p or ()):
                break
    except ConditioningError as exc:
        failed_at = len(reports) - 1  # the first report precedes step 0
        error = {"estimator": est.kind, "step": failed_at, "message": str(exc)}
        reports.append((*reports[-1][:2], None))
    step_s = time.perf_counter() - t0
    n, rest = len(ys), len(reports) - 1  # steps from ``rest`` on repeat the last report
    if error is None and rest < n:
        lane_settled = rest - 1
        while lane_settled and reports[lane_settled] == reports[-1]:
            lane_settled -= 1

    kind, new, rows, lines, offers = est.kind, tuple.__new__, [], [], []
    append, add_line = rows.append, lines.append
    last = None  # the (theta, P) whose derived values are current, None after a zero
    for k, (theta, p, offer), fim in zip(range(n), islice(reports, 1, None), fim_trace):
        if last is None or theta != last[0] or p != last[1]:
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
                _, p_max_eig, p_cond = sym2_spectrum(*p)
            last = None if 0.0 in theta or p is not None and 0.0 in p else (theta, p)
            if fim_texts is not None:  # None is an empty field
                head = (f"{kind},{beta_hat!r},{gamma_hat!r},"
                        f"{'' if max_rel is None else repr(max_rel)},")
                tail = ",,," if p is None else f",{p_cond!r},{p_max_eig!r},"
        if offer is None:
            accepted, flag = None, ""
        else:
            accepted = offer[0]
            flag = "1" if accepted else "0"
            offers.append((k, *offer))
        append(new(MetricsRow, (k, kind, beta_hat, gamma_hat, r0_hat, max_rel, log_rel, fim,
                                p_cond, p_max_eig, accepted)))
        if fim_texts is not None:
            add_line(f"{k},{head}{fim_texts[k]}{tail}{flag}")
    # the repeated tail: the last report's row, line and offer at each later step
    steps = range(rest, n)
    rows += [new(MetricsRow, (k, kind, beta_hat, gamma_hat, r0_hat, max_rel, log_rel, fim,
                              p_cond, p_max_eig, accepted))
             for k, fim in zip(steps, islice(fim_trace, rest, None))]
    if fim_texts is not None:
        lines += [f"{k},{head}{text}{tail}{flag}"
                  for k, text in zip(steps, islice(fim_texts, rest, None))]
    if offer is not None:
        offers += [(k, *offer) for k in steps]
    return rows, lines, step_s, error, offers, lane_settled


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
    frozen at their last state for the remaining steps. Observation noise so
    large that the noisy states or their differences are not finite, or that
    the FIM entries overflow (then naming the step), raises ``ConfigError``
    naming ``noise.observation_std``, before any lane steps or file is
    written.

    ``manifest["timings"]`` holds seconds spent simulating, computing the
    FIM condition trace, stepping each estimator, forming metrics rows (and
    their CSV lines) and writing and hashing files. ``manifest["excitation"]``,
    present when a GRLS lane is configured, holds its excitation set: size,
    step indices and final condition number (null while the set is rank
    deficient or empty, as when GRLS fails at its first step).
    ``manifest["settled"]`` holds the first step from which the states never
    change (``"trajectory"``, None when the last step changes them) and, per
    estimator kind, the first step whose report every later step repeats
    when its lane stopped stepping there (None when it stepped to the end).

    The cyclic garbage collector is paused for the run, so that collections do
    not walk its live reports and rows, which form no cycles, to free nothing;
    only writing the manifest by ``json.dumps`` leaves cyclic garbage. When the
    run returns or raises, the collector is switched back on only if it was on
    when the run began. The pause is process-wide: while a run is in progress
    no thread gets automatic collections, and of runs overlapping in several
    threads, the one that paused the collector switches it back on.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_experiment(config, output_dir)
    finally:
        if collecting:
            gc.enable()


def _run_experiment(config: ExperimentConfig, output_dir: str | Path | None) -> RunResult:
    """``run_experiment`` with the collector's setting left to the caller."""
    clock = time.perf_counter

    t0 = clock()
    try:
        traj = simulate(config.x0, config.sis, config.steps, config.noise)
    except ValueError as exc:  # the config was read: only observation noise is left to fail
        raise ConfigError(str(exc)) from None
    t1 = clock()
    # the first step from which the states, and so the pairs and observations, repeat
    bits = traj.states.view(np.int64)  # bits, so that 0.0 and -0.0 differ
    changes = np.flatnonzero(bits[1:] != bits[:-1])
    settled = int(changes[-1]) + 1 if len(changes) else 0
    states = traj.states.tolist()
    pairs = [sis_regressor_pair(x) for x in states[:settled]]
    pairs += [sis_regressor_pair(states[settled])] * (config.steps - settled)
    try:
        # the largest alpha's entries are the largest, so it names the first failing step
        fim_traces = {
            alpha: _fim_condition_trace(pairs, alpha, settled, "metrics" in config.emit)
            for alpha in sorted({est.alpha for est in config.estimators}, reverse=True)
        }
    except ValueError as exc:
        # only observation noise takes states, and so the regressor, out of [0, 1]
        std = config.noise.observation_std
        raise ConfigError(f"noise.observation_std: {std!r} is too large: {exc}") from None
    t2 = clock()
    ys = traj.observations.tolist()
    beta, gamma = config.sis.beta, config.sis.gamma
    truth = (beta, gamma) if beta > 0 and gamma > 0 else None

    # lane by lane, so that only one lane's reports are held at a time
    lane_rows, lane_lines, errors, step_s, greedy_rows = [], [], [], {}, []
    settled_at = {"trajectory": settled if settled < config.steps else None}
    for est in config.estimators:
        fim_trace, fim_texts = fim_traces[est.alpha]  # texts only for a metrics trace
        est_rows, est_lines, step_s[est.kind], error, offers, settled_at[est.kind] = _run_lane(
            est, pairs, ys, settled, fim_trace, truth, config.clamp_estimates, fim_texts
        )
        lane_rows.append(est_rows)
        lane_lines.append(est_lines)
        greedy_rows += offers
        if error is not None:
            errors.append(error)
    rows: list[MetricsRow] = list(chain.from_iterable(zip(*lane_rows)))  # step by step
    lines = chain.from_iterable(zip(*lane_lines))
    t3 = clock()
    status = 1 if errors else 0

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
        "settled": settled_at,
        "files": [],
        "timings": {
            "simulate_s": t1 - t0,
            "fim_trace_s": t2 - t1,
            "step_s": step_s,
            "metrics_rows_s": t3 - t2 - sum(step_s.values()),
            "write_s": 0.0,
        },
    }
    if any(est.kind == "grls" for est in config.estimators):
        indices = [k for k, accepted, _, _ in greedy_rows if accepted]
        kappa = greedy_rows[-1][3] if greedy_rows else math.inf
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
        manifest["files"] = _write_traces(out, config, traj, lines, greedy_rows)
        manifest["timings"]["write_s"] = clock() - t3
        manifest["wall_time_s"] = clock() - t0
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    return RunResult(rows=rows, status=status, trajectory=traj, output_dir=out, manifest=manifest)


def _write_traces(out: Path, config: ExperimentConfig, traj: Trajectory,
                  metrics_lines: Iterable[str], greedy_rows: list[tuple]) -> list[dict]:
    """Write each emitted trace CSV; returns the manifest's ``files`` entries,
    each with the sha256 of the bytes its writer wrote."""
    written = []
    if "metrics" in config.emit:
        digest = write_trace(out / "metrics.csv", METRICS_SCHEMA, METRICS_COLUMNS, metrics_lines)
        written.append(("metrics", digest))
    if "trajectory" in config.emit:
        written.append(("trajectory", traj.to_csv(out / "trajectory.csv")))
    if "greedy" in config.emit and greedy_rows:
        written.append(("greedy", write_acceptance_trace(out / "greedy.csv", greedy_rows)))
    return [{"name": f"{kind}.csv", "kind": kind, "sha256": digest} for kind, digest in written]
