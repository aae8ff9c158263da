"""Independent reference computations used across the test modules.

Everything here deliberately avoids the library's own update recursions:
eigenvalues come from the quadratic formula or numpy's dense solvers,
inverses are formed explicitly, window scans accumulate outer products
from scratch, trace CSVs format every field anew, and trajectories are
simulated one numpy scalar and one process-noise redraw at a time,
IE-MMAI's models are drawn one pair at a time, the FIM condition trace
checks its entries at every step, and ``lockstep_run`` offers every step's
datum to the excitation set and steps every estimator's lane one step at a
time, forming each metrics row on its own.
``reference_sym2_spectrum`` keeps the two-step eigenvalue-then-condition
composition that the library's one closed form replaced.
These are the yardsticks the fast paths are measured against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from sisid import harness
from sisid.config import EstimatorSettings, ExperimentConfig
from sisid.dynamics import NoiseSpec, SisParams, Trajectory, simulate, sis_step
from sisid.estimators import WeightedCostSpec
from sisid.excitation import regressor_pairs, sis_regressor_pair
from sisid.harness import METRICS_COLUMNS, METRICS_SCHEMA, MetricsRow
from sisid.linalg import RANK_TOLERANCE, ConditioningError, Sym2, condition_number, solve_spd


def eig2x2_sym(m: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric 2x2 via the quadratic formula."""
    a, b, d = m[0, 0], m[0, 1], m[1, 1]
    mean = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), b)
    return mean - radius, mean + radius


def reference_sym2_spectrum(a: float, b: float, d: float) -> tuple[float, float, float]:
    """(lo, hi, kappa) of [[a, b], [b, d]] composed as two steps: the two
    eigenvalues, then the condition rule applied to them. The composition
    ``sisid.linalg`` used before one closed form gave all three; kept to
    check that the closed form changed no result."""
    lo, hi = _sym2_eigenvalues(a, b, d)
    return lo, hi, _eigenvalue_condition(lo, hi)


def _sym2_eigenvalues(a: float, b: float, d: float) -> tuple[float, float]:
    """(smallest, largest) eigenvalue: d - t and a + t for a >= d, with
    t = b^2 / (hypot((a - d)/2, b) + (a - d)/2), formed as b * (b / ...) where
    b^2 overflows or leaves the normal range."""
    if a < d:
        a, d = d, a
    half_gap = 0.5 * (a - d)
    shift = 0.0
    if b:
        denom = math.hypot(half_gap, b) + half_gap
        shift = b * b / denom if 2.0**-1022 <= b * b < math.inf else b * (b / denom)
    return d - shift, a + shift


def _eigenvalue_condition(lo: float, hi: float) -> float:
    """Larger over smaller of |lo| and |hi|; inf at ``RANK_TOLERANCE``, NaN from a NaN."""
    smax, smin = abs(hi), abs(lo)
    if smin > smax:
        smax, smin = smin, smax
    if smin > RANK_TOLERANCE * smax:
        return smax / smin
    return math.inf + smin + smax


def dense_inverse(m: np.ndarray) -> np.ndarray:
    return np.linalg.inv(m)


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return scale * (m @ m.T + n * np.eye(n))


def sis_phi_rows(states: np.ndarray) -> np.ndarray:
    """Stacked SIS regressor rows [(1-x)x, -x] for an array of states."""
    x = np.asarray(states, dtype=float)
    return np.column_stack([(1.0 - x) * x, -x])


def min_window_eig_scan(states: np.ndarray, window: int) -> tuple[float, int]:
    """(min over l of lambda_min, argmin l) of all window FIMs, via prefix sums.

    The window at l covers states l..l+window inclusive, matching
    sliding_fim's convention.
    """
    rows = sis_phi_rows(states)
    outers = np.einsum("ki,kj->kij", rows, rows)
    prefix = np.concatenate([np.zeros((1, 2, 2)), np.cumsum(outers, axis=0)])
    n_starts = len(states) - window
    best, best_l = np.inf, -1
    for l in range(n_starts):
        h = prefix[l + window + 1] - prefix[l]
        lmin, _ = eig2x2_sym(h)
        if lmin < best:
            best, best_l = lmin, l
    return best, best_l


def window_fim(phis: Iterable) -> np.ndarray:
    """Sum of phi^T phi over regressors (each 1x2 or two entries), from zero in order."""
    h = np.zeros((2, 2))
    for phi in phis:
        phi = np.atleast_2d(np.asarray(phi, dtype=float))
        h += phi.T @ phi
    return h


def brute_force_excitation_set(phis: Sequence) -> tuple[int, ...]:
    """Indices whose summed phi^T phi has the least ``condition_number``.

    Every subset of every size is tried; ties go to the smaller subset,
    then to the lexicographically smaller index tuple.
    """
    outers = [window_fim([phi]) for phi in phis]
    best, best_cond = None, math.inf
    for size in range(1, len(phis) + 1):
        for subset in itertools.combinations(range(len(phis)), size):
            cond = condition_number(sum(outers[k] for k in subset))
            if best is None or cond < best_cond:
                best, best_cond = subset, cond
    return best


def weighted_normal_solution(
    phi_rows: np.ndarray,
    ys: np.ndarray,
    weights: np.ndarray,
    prior_precision: np.ndarray,
    prior_mean: np.ndarray,
) -> np.ndarray:
    """Weighted least squares with a Gaussian prior, solved densely."""
    a = (phi_rows * weights[:, None]).T @ phi_rows + prior_precision
    rhs = phi_rows.T @ (weights * ys) + prior_precision @ prior_mean
    return np.linalg.solve(a, rhs)


def listed_batch_oracle(
    traj: Trajectory, reg, spec: WeightedCostSpec, k: int
) -> np.ndarray:
    """The batch oracle with its regressor rows built as a list of pairs first."""
    ages = k - np.arange(k + 1)
    weights = spec.alpha ** ages.astype(float)
    if spec.greedy_indices:
        greedy = np.fromiter(spec.greedy_indices, dtype=int)
        weights[greedy] = 1.0 - spec.alpha ** (ages[greedy] + 1.0)
    rows = np.array(list(regressor_pairs(reg, traj.states[: k + 1].tolist())))
    ys = traj.observations[: k + 1]
    prior_scale = spec.alpha ** (k + 1)
    a = (rows * weights[:, None]).T @ rows + prior_scale * spec.p0_inv
    rhs = rows.T @ (weights * ys) + prior_scale * (spec.p0_inv @ spec.theta0)
    return solve_spd(0.5 * (a + a.T), rhs)


def naive_fim_condition_trace(pairs: Iterable[tuple[float, float]], alpha: float) -> list[float]:
    """The discounted FIM's condition number after each step, its entries
    accumulated one by one and each checked by ``math.isfinite`` at every
    step; ``ValueError`` naming the first step whose entries are not finite."""
    a = b = d = 0.0
    trace = []
    for k, (u1, u2) in enumerate(pairs):
        a = alpha * a + u1 * u1
        b = alpha * b + u1 * u2
        d = alpha * d + u2 * u2
        if not all(math.isfinite(v) for v in (a, b, d)):
            raise ValueError(f"the FIM entries {(a, b, d)!r} are not finite from step {k}")
        trace.append(condition_number(np.array([[a, b], [b, d]])))
    return trace


def per_model_ie_mmai_init(theta0: Sequence[float], n_models: int, spread: float, seed: int):
    """IE-MMAI's initial state with its models drawn one pair at a time."""
    t1, t2 = map(float, theta0)
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n_models):
        z1, z2 = rng.standard_normal(2).tolist()
        models.append((t1 + spread * z1, t2 + spread * z2, 0.0))
    return tuple(models), (0.0, 0.0, 0.0), (0.0, 0.0), False


def naive_trace_csv(schema: str, columns: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    """A trace CSV with every field formatted on its own: ``repr`` for each
    number, None as an empty field, booleans as 1/0 and strings as they are.
    A schema line ends in \\n, the header and each row in \\r\\n.
    """

    def field(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, str):
            return value
        return repr(value)

    lines = [f"# {schema}\n", ",".join(columns) + "\r\n"]
    lines += [",".join(field(v) for v in row) + "\r\n" for row in rows]
    return "".join(lines).encode()


def naive_metrics_csv(rows: Iterable[MetricsRow]) -> bytes:
    """A metrics trace as ``naive_trace_csv`` writes it: each row projected onto
    the fields a metrics line writes, ``METRICS_COLUMNS``."""
    index = [MetricsRow._fields.index(column) for column in METRICS_COLUMNS]
    written = ([row[i] for i in index] for row in rows)
    return naive_trace_csv(METRICS_SCHEMA, METRICS_COLUMNS, written)


def _truncated_normal(rng: np.random.Generator, std: float, bound: float) -> float:
    while True:
        sample = rng.normal(0.0, std)
        if abs(sample) <= bound:
            return float(sample)


def naive_simulate(
    x0: float,
    params: SisParams,
    steps: int,
    noise: NoiseSpec | None = None,
) -> Trajectory:
    """Simulate ``steps`` transitions from ``x0``; deterministic for a fixed seed."""
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must lie in [0, 1], got {x0}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")

    rng = np.random.default_rng(noise.seed) if noise is not None else None
    true_states = np.empty(steps + 1)
    xi = np.zeros(steps)
    true_states[0] = x0
    for k in range(steps):
        x_next = sis_step(true_states[k], params)
        if noise is not None and noise.process_std > 0:
            xi[k] = _truncated_normal(rng, noise.process_std, noise.bound_nu)
            x_next = min(1.0, max(0.0, x_next + xi[k]))
        true_states[k + 1] = x_next

    states = true_states
    if noise is not None and noise.observation_std > 0:
        states = true_states + rng.normal(0.0, noise.observation_std, size=steps + 1)

    return Trajectory(states=states, process_noise=xi)


@dataclass(slots=True)
class _Lane:
    """One estimator's run: its settings, its steps, its last report and failure."""

    settings: EstimatorSettings
    steps: Iterator
    report: tuple
    fim_trace: list[float]
    failed_at: int | None = None
    error: str | None = None


def _metrics_row(
    k: int,
    kind: str,
    theta: tuple[float, float],
    p: Sym2 | None,
    fim_cond: float,
    accepted: bool | None,
    truth: tuple[float, float] | None,
) -> MetricsRow:
    beta_hat, gamma_hat = theta
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
        _, p_max_eig, p_cond = reference_sym2_spectrum(*p)
    return MetricsRow(
        k, kind, beta_hat, gamma_hat, r0_hat, max_rel, log_rel,
        fim_cond, p_cond, p_max_eig, accepted,
    )


def lockstep_run(config: ExperimentConfig):
    """(rows, greedy rows, errors, status) of ``run_experiment``, stepped in lockstep.

    Steps every estimator's lane (``harness._LANES``) one step at a time, all
    lanes at step k before any at step k + 1, to the end, over plain per-step
    lists: the (u1, u2, y) rows and the offers of an excitation pass given no
    settle step, read as one row per step. The FIM traces are given no settle
    step either. Each metrics row is formed on its own from that lane's latest
    report and, for GRLS, step k's offer. A lane whose step raises
    ``ConditioningError`` is frozen at its last report, with no offer from
    that step on.
    """
    traj = simulate(config.x0, config.sis, config.steps, config.noise)
    data = [(*sis_regressor_pair(x), y)
            for x, y in zip(traj.states[:-1].tolist(), traj.observations.tolist())]
    fim_traces = {
        alpha: harness._fim_condition_trace(data, alpha).data.tolist()
        for alpha in sorted({est.alpha for est in config.estimators}, reverse=True)
    }
    excitation = harness._excitation_pass(data)  # an offer at every step
    flat = excitation.offers.data.tolist()
    offers = [tuple(flat[3 * k:3 * k + 3]) for k in range(len(flat) // 3)]
    assert len(offers) == len(data)
    rejections = [(0.0, math.inf, math.inf)] * len(data)
    lanes = []
    for est in config.estimators:
        grls = est.kind == "grls"
        steps = harness._LANES[est.kind](
            est, data, offers if grls else rejections, excitation.sets if grls else [])
        lanes.append(_Lane(est, steps, next(steps), fim_traces[est.alpha]))
    beta, gamma = config.sis.beta, config.sis.gamma
    truth = (beta, gamma) if beta > 0 and gamma > 0 else None

    rows: list[MetricsRow] = []
    greedy_rows: list[tuple[int, bool, float, float]] = []
    for k in range(len(data)):
        for lane in lanes:
            if lane.failed_at is None:
                try:
                    lane.report = next(lane.steps)
                except ConditioningError as exc:
                    # frozen at its last estimate, with no offer from here on
                    lane.failed_at, lane.error = k, str(exc)
            theta, p = lane.report[:2], lane.report[2:] or None
            accepted = None
            if lane.settings.kind == "grls" and lane.failed_at is None:
                verdict, before, after = offers[k]
                accepted = verdict == 1.0
                greedy_rows.append((k, accepted, before, after))
            rows.append(
                _metrics_row(
                    k, lane.settings.kind, theta, p, lane.fim_trace[k], accepted, truth,
                )
            )

    errors = [
        {"estimator": lane.settings.kind, "step": lane.failed_at, "message": lane.error}
        for lane in lanes
        if lane.failed_at is not None
    ]
    return rows, greedy_rows, errors, 1 if errors else 0
