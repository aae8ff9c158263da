"""The SIS regressor, Fisher information accumulation, and excitation diagnostics.

The identification problem is linear in the parameters: the observation
satisfies y[k] = phi(x[k]) @ theta + noise, with the scalar SIS regressor
phi(x) = [(1-x)x, -x]. A regressor is any callable from a state to two
entries (a pair of numbers, or an array with two entries, such as
``sis_regressor``'s 1x2 row); ``sis_regressor`` is read as
``sis_regressor_pair``, no array. ``regressor_pairs`` reads a regressor
given by the caller over a trajectory: it yields each point as two finite
floats when it is consumed, so ``sliding_fim``, ``build_greedy_set``,
``optimal_excitation_set``, ``fim_condition_trace`` and ``batch_oracle``
read every point once, in the pass that uses it. It is not the only
reader: ``run_experiment`` calls ``sis_regressor_pair`` on each state
itself, and ``grls_step`` reads its state's regressor at one state per
step. The analysis accumulates the Fisher information matrix, the
(possibly discounted) sum of regressor outer products, as its entries
(a, b, d). The FIM's smallest eigenvalue and condition number decide
whether the parameters are practically identifiable from a window of data.

Every value from outside is read by the library's one number rule
(``linalg.finite_pair``, ``linalg.finite_scalar``; importable from here too);
a step index or window length is read as an integer by ``linalg.read_count``
(no bool, no real), and the IE threshold as one number by
``linalg.read_number``. ``write_acceptance_trace`` writes by ``write_trace``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .dynamics import Trajectory, write_trace
from .linalg import (
    Sym2, _shown, finite_pair, finite_scalar, read_count, read_number, sym2_array, sym2_spectrum,
)

# A regressor with norm below this contributes nothing and is never
# admitted into an excitation set.
ZERO_REGRESSOR_NORM = 1e-14


def sis_regressor_pair(x: float) -> tuple[float, float]:
    """The SIS regressor [(1-x)x, -x] as two floats."""
    return (1.0 - x) * x, -x


def sis_regressor(x: float) -> np.ndarray:
    """1x2 regressor [(1-x)x, -x] of the scalar SIS model."""
    return np.array([sis_regressor_pair(x)])


SIS_REGRESSOR = sis_regressor


def _pair_reader(reg: Callable) -> Callable:
    """What reads ``reg`` as two floats; ``ValueError`` unless ``reg`` is callable."""
    if not callable(reg):
        raise ValueError(f"regressor must be callable, got {reg!r}")
    return sis_regressor_pair if reg is sis_regressor else reg


def regressor_pairs(reg: Callable, states: Iterable[float]) -> Iterator[tuple[float, float]]:
    """``reg`` at each state as two finite floats, read as they are consumed;
    ``ValueError`` naming the regressor, at once unless it is callable."""
    read = _pair_reader(reg)
    return (finite_pair(read(x), "regressor") for x in states)


def sliding_fim(traj: Trajectory, reg: Callable, l: int, window: int) -> np.ndarray:
    """FIM of the window sum_{k=l}^{l+window} phi(x_k)^T phi(x_k) (inclusive);
    ``ValueError`` naming the first step from which its entries are not finite,
    as when a finite regressor squares past the float range."""
    return sym2_array(_window_entries(traj, reg, l, window))


def _window_entries(traj: Trajectory, reg: Callable, l: int, window: int) -> Sym2:
    """``sliding_fim``'s entries (a, b, d), each sum checked as it is formed."""
    l, window = read_count(l, "l"), read_count(window, "window")
    if l < 0 or window < 0 or l + window > traj.step_count:
        raise ValueError(
            f"window [{_shown(l)}, {_shown(l + window)}] out of range for {traj.step_count} steps"
        )
    a = b = d = 0.0
    pairs = regressor_pairs(reg, traj.states[l : l + window + 1].tolist())
    for k, (u1, u2) in enumerate(pairs, l):
        a, b, d = a + u1 * u1, b + u1 * u2, d + u2 * u2
        if a * 0.0 + b * 0.0 + d * 0.0:  # 0.0 for finite entries, NaN otherwise
            raise ValueError(f"the FIM entries {(a, b, d)!r} are not finite from step {k}")
    return a, b, d


def is_initially_exciting(
    traj: Trajectory, reg: Callable, horizon: int, alpha_threshold: float
) -> bool:
    """Whether the undiscounted FIM over steps 0..horizon clears alpha_threshold,
    a positive number."""
    horizon = read_count(horizon, "horizon", 0, traj.step_count)
    alpha_threshold = read_number(alpha_threshold, "alpha_threshold")
    if not alpha_threshold > 0.0:
        raise ValueError(f"alpha_threshold must be positive, got {alpha_threshold!r}")
    return sym2_spectrum(*_window_entries(traj, reg, 0, horizon))[0] >= alpha_threshold


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

    @property
    def size(self) -> int:
        return len(self.indices)


def greedy_offer(gset: GreedySet, phi_k, y_k, k: int) -> tuple[GreedySet, bool]:
    """Offer datum k to the set; returns the (possibly new) set and the verdict.

    ``phi_k`` is the 1x2 regressor (an array, or a pair of floats) and
    ``y_k`` the scalar observation; either raises ``ValueError`` when not
    finite. Exact-zero regressors are rejected outright: they cannot change
    the FIM or the right-hand side.
    """
    phi_k, y_k = finite_pair(phi_k, "phi_k"), finite_scalar(y_k, "y_k")
    sums = _offer_floats(gset.fim_entries, gset.rhs_entries, gset.cond, phi_k, y_k)
    if sums is None:
        return gset, False
    return GreedySet(gset.indices + (k,), *sums), True


def _offer_floats(
    fim: Sym2, rhs: tuple[float, float], cond: float, phi, y: float,
) -> tuple[Sym2, tuple[float, float], float] | None:
    """The acceptance rule: the FIM entries, right-hand side and condition number
    of the set (``fim``, ``rhs``, ``cond``) after datum (``phi``, ``y``), which the
    caller has checked, is offered to it; None for a rejection. The set's
    indices are the caller's to keep, so an offer costs the same at any size."""
    u1, u2 = phi
    if math.hypot(u1, u2) < ZERO_REGRESSOR_NORM:
        return None

    a, b, d = fim
    a, b, d = a + u1 * u1, b + u1 * u2, d + u2 * u2
    cond_test = sym2_spectrum(a, b, d)[2]
    if not cond_test <= cond:
        return None

    r1, r2 = rhs
    return (a, b, d), (r1 + u1 * y, r2 + u2 * y), cond_test


def build_greedy_set(traj: Trajectory, reg: Callable, upto: int | None = None) -> GreedySet:
    """Run the acceptance rule over steps 0..upto-1 of a trajectory; ``ValueError``
    when the set's FIM entries or right-hand side are not finite at the end, as
    when a finite regressor squares past the float range."""
    upto = traj.step_count if upto is None else read_count(upto, "upto", 0, traj.step_count)
    gset = GreedySet()
    sums, indices = (gset.fim_entries, gset.rhs_entries, gset.cond), []
    pairs = regressor_pairs(reg, traj.states[:upto].tolist())
    for k, (phi, y) in enumerate(zip(pairs, traj.observations[:upto].tolist())):
        accepted = _offer_floats(*sums, phi, y)  # pairs and observations are checked
        if accepted is not None:
            sums = accepted
            indices.append(k)
    fim, rhs, _ = sums
    if not all(map(math.isfinite, fim + rhs)):  # a non-finite sum stays so once formed
        raise ValueError(f"the excitation set's FIM entries and right-hand side {fim + rhs!r} "
                         "are not all finite")
    return GreedySet(tuple(indices), *sums)


# Exhaustive search over subsets is exponential; refuse anything bigger.
EXHAUSTIVE_LIMIT = 20


def optimal_excitation_set(traj: Trajectory, reg: Callable) -> tuple[int, ...]:
    """Brute-force subset of step indices minimizing the FIM condition number.

    Ties break toward smaller subsets, then lexicographically smaller index
    tuples; no steps give ``()``. Intended for verification at desk scale
    only: a trajectory of more than ``EXHAUSTIVE_LIMIT`` steps raises ``ValueError``.
    """
    n = traj.step_count
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"trajectory has {n} steps, more than the limit {EXHAUSTIVE_LIMIT}")

    # each point's FIM entries; a subset's FIM is their sum in index order
    pairs = regressor_pairs(reg, traj.states[:n].tolist())
    outers = [(u1 * u1, u1 * u2, u2 * u2) for u1, u2 in pairs]

    best: tuple[int, ...] = ()
    best_cond = math.inf
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            fim = tuple(map(sum, zip(*(outers[k] for k in subset))))
            if not all(map(math.isfinite, fim)):
                raise ValueError(f"the FIM of steps {subset} is not finite: {fim}")
            cond = sym2_spectrum(*fim)[2]
            if not best or cond < best_cond:
                best = subset
                best_cond = cond
    return best


GREEDY_SCHEMA = "sisid-greedy-v1"


def write_acceptance_trace(
    path: str | Path, rows: Iterable[tuple[int, bool, float, float]]
) -> str:
    """Write the acceptance-trace CSV by ``write_trace`` and return its sha256:
    one (step, accepted, kappa before, kappa after) row per offer.

    A row whose (kappa before, kappa after) equals the previous row's reuses
    that row's text, unless a value is zero (0.0 == -0.0, but their reprs
    differ). NaN equals no value, so it is formatted anew unless the very
    same object repeats.
    """

    def lines() -> Iterator[str]:
        last, text = None, ""
        for step, accepted, before, after in rows:
            kappas = (before, after)
            if kappas != last:
                text = f"{before!r},{after!r}"
                last = None if 0.0 in kappas else kappas
            yield f"{step},{int(accepted)},{text}"

    columns = ("step", "accepted", "kappa_before", "kappa_after")
    return write_trace(path, GREEDY_SCHEMA, columns, lines())
