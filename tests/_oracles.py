"""Independent reference computations used across the test modules.

Everything here deliberately avoids the library's own update recursions:
eigenvalues come from the quadratic formula or numpy's dense solvers,
inverses are formed explicitly, window scans accumulate outer products
from scratch, and trace CSVs format every field anew. These are the
yardsticks the fast paths are measured against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


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
