"""Regressors, Fisher information accumulation, and excitation diagnostics.

The identification problem is linear in the parameters: the observation
satisfies y[k] = phi(x[k]) @ theta + noise, with the scalar SIS regressor
phi(x) = [(1-x)x, -x]. Excitation is judged through the Fisher information
matrix, the (possibly discounted) sum of regressor outer products; its
smallest eigenvalue and condition number decide whether the parameters are
practically identifiable from a window of data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .dynamics import Trajectory
from .linalg import Sym2, condition_number, min_eigenvalue_sym, sym2_array, sym2_condition

# Regressor rows with norm below this contribute nothing and are never
# admitted into an excitation set.
ZERO_REGRESSOR_NORM = 1e-14


@dataclass(frozen=True)
class Regressor:
    """State-to-regressor map producing an (n_outputs x n_params) matrix."""

    fn: Callable[[float], np.ndarray]
    n_outputs: int
    n_params: int

    def __call__(self, x: float) -> np.ndarray:
        phi = np.atleast_2d(np.asarray(self.fn(x), dtype=float))
        if phi.shape != (self.n_outputs, self.n_params):
            raise ValueError(
                f"regressor returned shape {phi.shape}, "
                f"expected {(self.n_outputs, self.n_params)}"
            )
        return phi


def sis_regressor_pair(x: float) -> tuple[float, float]:
    """The SIS regressor [(1-x)x, -x] as two floats."""
    return (1.0 - x) * x, -x


def sis_regressor(x: float) -> np.ndarray:
    """1x2 regressor [(1-x)x, -x] of the scalar SIS model."""
    return np.array([sis_regressor_pair(x)])


SIS_REGRESSOR = Regressor(fn=sis_regressor, n_outputs=1, n_params=2)


def residual(y: np.ndarray, phi: np.ndarray, theta_hat: np.ndarray) -> np.ndarray:
    """Prediction residual y - phi @ theta_hat."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    theta_hat = np.asarray(theta_hat, dtype=float)
    if phi.shape[0] != y.shape[0] or phi.shape[1] != theta_hat.shape[0]:
        raise ValueError(
            f"shape mismatch: y {y.shape}, phi {phi.shape}, theta {theta_hat.shape}"
        )
    return y - phi @ theta_hat


@dataclass
class FisherInfo:
    """Discounted accumulation H = sum_i discount^(k-i) phi_i^T phi_i."""

    h: np.ndarray
    discount: float = 1.0

    @classmethod
    def zero(cls, n_params: int, discount: float = 1.0) -> "FisherInfo":
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {discount}")
        return cls(h=np.zeros((n_params, n_params)), discount=discount)

    def accumulate(self, phi: np.ndarray) -> None:
        phi = np.atleast_2d(np.asarray(phi, dtype=float))
        self.h = self.discount * self.h + phi.T @ phi

    def condition_number(self) -> float:
        return condition_number(self.h)

    def min_eigenvalue(self) -> float:
        return min_eigenvalue_sym(self.h)


def sliding_fim(traj: Trajectory, reg: Regressor, l: int, window: int) -> np.ndarray:
    """FIM of the window sum_{k=l}^{l+window} phi(x_k)^T phi(x_k) (inclusive)."""
    if l < 0 or window < 0 or l + window > traj.step_count:
        raise ValueError(
            f"window [{l}, {l + window}] out of range for {traj.step_count} steps"
        )
    h = np.zeros((reg.n_params, reg.n_params))
    for k in range(l, l + window + 1):
        phi = reg(traj.states[k])
        h += phi.T @ phi
    return h


def is_initially_exciting(
    traj: Trajectory, reg: Regressor, horizon: int, alpha_threshold: float
) -> bool:
    """Whether the undiscounted FIM over steps 0..horizon clears alpha_threshold."""
    if alpha_threshold <= 0:
        raise ValueError("alpha_threshold must be positive")
    h = sliding_fim(traj, reg, 0, horizon)
    return min_eigenvalue_sym(h) >= alpha_threshold


@dataclass(frozen=True)
class GreedySet:
    """Excitation set grown online by the condition-number acceptance rule.

    A data point is admitted when adding its regressor outer product does not
    increase the condition number of the accumulated FIM. Before the FIM
    reaches full rank both sides of that comparison are +inf, which counts as
    acceptance; that is what lets the set bootstrap from empty. The set is
    kept as the sums it contributes to the cost: the FIM of the accepted
    regressors as its entries (a, b, d), and the right-hand side
    sum phi_i^T y_i as two floats. Sets are over two parameters only.
    """

    indices: tuple[int, ...] = ()
    fim_entries: Sym2 = (0.0, 0.0, 0.0)
    rhs_entries: tuple[float, float] = (0.0, 0.0)
    cond: float = math.inf

    @classmethod
    def empty(cls, n_params: int = 2) -> "GreedySet":
        if n_params != 2:
            raise ValueError(f"excitation sets are over 2 parameters, got {n_params}")
        return cls()

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def fim(self) -> np.ndarray:
        return sym2_array(self.fim_entries)

    @property
    def rhs(self) -> np.ndarray:
        return np.array(self.rhs_entries)


def finite_pair(value, name: str) -> tuple[float, float]:
    """Two finite floats from a pair of floats or any array with two entries."""
    if type(value) is not tuple:
        arr = np.asarray(value, dtype=float)
        if arr.size != 2:
            raise ValueError(f"{name} must have 2 entries, got shape {arr.shape}")
        value = tuple(arr.ravel().tolist())
    u1, u2 = value
    if not (math.isfinite(u1) and math.isfinite(u2)):
        raise ValueError(f"{name} must be finite, got {value}")
    return u1, u2


def finite_scalar(value, name: str) -> float:
    """A finite float from a number or a one-entry array."""
    if isinstance(value, (int, float)):
        value = float(value)
    else:
        arr = np.asarray(value, dtype=float)
        if arr.size != 1:
            raise ValueError(f"{name} must be a scalar, got shape {arr.shape}")
        value = arr.item()
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def greedy_offer(gset: GreedySet, phi_k, y_k, k: int) -> tuple[GreedySet, bool]:
    """Offer datum k to the set; returns the (possibly new) set and the verdict.

    ``phi_k`` is the 1x2 regressor (an array, or a pair of floats) and
    ``y_k`` the scalar observation; either raises ``ValueError`` when not
    finite. Exact-zero regressors are rejected outright: they cannot change
    the FIM or the right-hand side.
    """
    u1, u2 = finite_pair(phi_k, "phi_k")
    y = finite_scalar(y_k, "y_k")
    if math.hypot(u1, u2) < ZERO_REGRESSOR_NORM:
        return gset, False

    a, b, d = gset.fim_entries
    a, b, d = a + u1 * u1, b + u1 * u2, d + u2 * u2
    cond_test = sym2_condition(a, b, d)
    if not cond_test <= gset.cond:
        return gset, False

    r1, r2 = gset.rhs_entries
    accepted = GreedySet(
        indices=gset.indices + (k,),
        fim_entries=(a, b, d),
        rhs_entries=(r1 + u1 * y, r2 + u2 * y),
        cond=cond_test,
    )
    return accepted, True


def build_greedy_set(traj: Trajectory, reg: Regressor, upto: int | None = None) -> GreedySet:
    """Run the acceptance rule over steps 0..upto-1 of a trajectory."""
    upto = traj.step_count if upto is None else upto
    gset = GreedySet.empty(reg.n_params)
    for k in range(upto):
        gset, _ = greedy_offer(gset, reg(traj.states[k]), traj.observations[k], k)
    return gset


# Exhaustive search over subsets is exponential; refuse anything bigger.
EXHAUSTIVE_LIMIT = 20


def optimal_excitation_set(
    traj: Trajectory, reg: Regressor, limit: int = EXHAUSTIVE_LIMIT
) -> tuple[int, ...]:
    """Brute-force subset of step indices minimizing the FIM condition number.

    Ties break toward smaller subsets, then lexicographically smaller index
    tuples. Intended for verification at desk scale only.
    """
    n = traj.step_count
    if limit > EXHAUSTIVE_LIMIT:
        raise ValueError(f"limit {limit} exceeds exhaustive budget {EXHAUSTIVE_LIMIT}")
    if n > limit:
        raise ValueError(f"trajectory has {n} steps, more than the limit {limit}")

    outers = [None] * n
    for k in range(n):
        phi = reg(traj.states[k])
        outers[k] = phi.T @ phi

    best: tuple[int, ...] | None = None
    best_cond = math.inf
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            h = sum(outers[k] for k in subset)
            cond = condition_number(h)
            if best is None or cond < best_cond:
                best = subset
                best_cond = cond
    return best


GREEDY_SCHEMA = "sisid-greedy-v1"


def write_acceptance_trace(
    path: str | Path, rows: Iterable[tuple[int, bool, float, float]]
) -> None:
    """Write the acceptance-trace CSV: a schema line, then a header and one
    (step, accepted, kappa before, kappa after) row per offer.

    Rows end in \\r\\n, as the csv module's default dialect writes them.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# {GREEDY_SCHEMA}\n")
        fh.write("step,accepted,kappa_before,kappa_after\r\n")
        for step, accepted, before, after in rows:
            fh.write(f"{step},{int(accepted)},{before!r},{after!r}\r\n")


def export_acceptance_trace(
    traj: Trajectory, reg: Regressor, path: str | Path
) -> list[tuple[int, bool, float, float]]:
    """Run the acceptance rule over a trajectory and write its trace CSV."""
    gset = GreedySet.empty(reg.n_params)
    rows = []
    for k in range(traj.step_count):
        before = gset.cond
        gset, accepted = greedy_offer(
            gset, reg(traj.states[k]), traj.observations[k], k
        )
        rows.append((k, accepted, before, gset.cond))
    write_acceptance_trace(path, rows)
    return rows
