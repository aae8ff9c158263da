"""Independent reference computations used across the test modules.

Everything here deliberately avoids the library's own update recursions:
eigenvalues come from the quadratic formula or numpy's dense solvers,
inverses are formed explicitly, window scans accumulate outer products
from scratch, trace CSVs format every field anew, and trajectories are
simulated one numpy scalar and one process-noise redraw at a time. These are the
yardsticks the fast paths are measured against.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from sisid.dynamics import NoiseSpec, SisParams, Trajectory, sis_step
from sisid.estimators import WeightedCostSpec
from sisid.excitation import regressor_pairs
from sisid.linalg import condition_number, solve_spd


def eig2x2_sym(m: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric 2x2 via the quadratic formula."""
    a, b, d = m[0, 0], m[0, 1], m[1, 1]
    mean = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), b)
    return mean - radius, mean + radius


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
    rows = np.array(regressor_pairs(reg, traj.states[: k + 1].tolist()))
    ys = traj.observations[: k + 1]
    prior_scale = spec.alpha ** (k + 1)
    a = (rows * weights[:, None]).T @ rows + prior_scale * spec.p0_inv
    rhs = rows.T @ (weights * ys) + prior_scale * (spec.p0_inv @ spec.theta0)
    return solve_spd(0.5 * (a + a.T), rhs)


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
