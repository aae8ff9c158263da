"""Online identifiers of the scalar SIS model's two rates (beta, gamma).

Four identifiers are provided:

* ``pure_gd_kernel`` -- unit-gain gradient descent on the stage cost.
* ``ef_rls_step`` -- recursive least squares with exponential forgetting.
* ``grls_step`` -- greedily-weighted RLS: exciting data points are kept in
  an excitation set whose contribution is refreshed every step instead of
  being forgotten, which prevents covariance windup once the trajectory
  settles onto an equilibrium.
* ``ie_mmai_kernel`` (state from ``ie_mmai_init``) -- a multi-model
  gradient baseline with a one-shot least squares correction once the data
  pass the initial-excitation test. This is a deliberately approximate
  reconstruction of the published method; only its qualitative behavior is
  relied upon.

Every identifier steps through a kernel on floats (``pure_gd_kernel``,
``_rls_update``, ``ie_mmai_kernel``): two parameters and one scalar
observation per step, which the caller has checked. The weighted-RLS
update, the covariance update and the estimate update, exists once, in
``_rls_update``: it reads the excitation set that the greedy offer
(``excitation._offer_floats``) left, and EF-RLS is that update with no set.
``ef_rls_step`` is an array adapter over it that checks its input;
``grls_step`` steps a ``GrlsState`` checked when it was built, checks only
the transition, calls the offer and then the update, and reads
``SIS_REGRESSOR`` as ``sis_regressor_pair``'s two floats, no array. The
offer reads neither alpha, P nor theta, so ``sisid.harness`` makes one
offer pass per trajectory and runs its GRLS lane as the update alone.

``batch_oracle`` solves the weighted normal equations that the greedy
recursion provably minimizes, from scratch at any step, and exists so the
recursive and batch routes can be checked against each other.

Each setting has one reader, called by every entry that takes it and by the
config, with the name its ``ValueError`` reports: ``read_alpha`` (a
forgetting factor), ``read_p0_scale`` (the prior covariance scale),
``read_theta0`` (the initial estimate) and ``linalg.read_count`` (a count),
each by the number rule of ``sisid.linalg``. The per-step kernels read nothing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import Trajectory
from .excitation import (
    GreedySet, _offer_floats, _pair_reader, regressor_pairs, sis_regressor, sis_regressor_pair,
)
from .linalg import (
    ConditioningError,
    Sym2,
    _read_floats,
    _scalar_float,
    _scalar_pair,
    _shown,
    finite_pair,
    finite_scalar,
    read_count,
    read_number,
    solve_spd,
    sym2,
    sym2_array,
    sym2_spectrum,
)


def read_alpha(value, name: str = "alpha", below_one: bool = False) -> float:
    """A forgetting factor: one number in (0, 1], or in (0, 1) with ``below_one``
    (an enabled excitation set refreshes with weight 1 - alpha, which must be
    positive); else ``ValueError`` naming it."""
    alpha = read_number(value, name)
    if not (0.0 < alpha < 1.0 or alpha == 1.0 and not below_one):
        interval = "(0, 1)" if below_one else "(0, 1]"
        raise ValueError(f"{name} must be in {interval}, got {alpha!r}")
    return alpha


def read_p0_scale(value, name: str = "p0_scale") -> float:
    """The prior covariance scale p0 of P0 = p0 I: one positive finite number;
    else ``ValueError`` naming it."""
    p0 = read_number(value, name)
    if not 0.0 < p0 < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {p0!r}")
    return p0


def read_theta0(value, name: str = "theta0") -> tuple[float, float]:
    """An initial estimate: two finite numbers, as a pair that ``finite_pair``
    reads or an array of shape (2,), read once; else ``ValueError`` naming it."""
    pair = _scalar_pair(value)
    if pair is None:
        theta0 = _read_floats(value, name)
        if theta0.shape != (2,):
            raise ValueError(f"{name} has shape {theta0.shape}, expected (2,)")
        pair = tuple(theta0.tolist())
    if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
        raise ValueError(f"{name} must be finite, got {pair}")
    return pair


def _finite_row(value, name: str) -> tuple[float, float]:
    """A regressor row (u1, u2) as ``finite_pair`` reads it, whose u1^2 + u2^2 is
    finite, since phi P phi^T and the greedy offer's phi^T phi square it; else
    ``ValueError`` naming it."""
    u1, u2 = finite_pair(value, name)
    if not math.isfinite(u1 * u1 + u2 * u2):
        raise ValueError(f"{name} must have a finite u1^2 + u2^2, got {(u1, u2)!r}")
    return u1, u2


def pure_gd_kernel(
    theta: tuple[float, float], phi: tuple[float, float], y: float
) -> tuple[float, float]:
    """Unit-gain gradient step on floats: theta + phi^T (y - phi theta).

    Raises ``ConditioningError`` when the new estimate is not finite.
    """
    t1, t2 = theta
    u1, u2 = phi
    e = y - (u1 * t1 + u2 * t2)
    t1, t2 = t1 + u1 * e, t2 + u2 * e
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ConditioningError(f"the gradient step gave non-finite theta' = {(t1, t2)!r}")
    return t1, t2


def ef_rls_step(
    state: tuple[np.ndarray, np.ndarray],
    phi: np.ndarray,
    y: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One exponentially-forgetting RLS update on a (P, theta_hat) pair.

    The GRLS kernel with its excitation set disabled: P' = (alpha P^-1 +
    phi^T phi)^-1 by a Sherman-Morrison step and theta' = theta_hat +
    P' phi^T (y - phi theta_hat). The estimator fails with
    ``ConditioningError`` when alpha + phi P phi^T <= 0 or is not finite:
    its covariance has wound up until round-off destroyed its positive
    definiteness. It also fails when the new P or theta_hat is not finite.
    Non-finite P, theta_hat, phi or y raise ``ValueError`` naming the
    argument, as do a phi whose u1^2 + u2^2 overflows and an alpha that
    ``read_alpha`` refuses.
    """
    p, theta = sym2(state[0], "state P"), finite_pair(state[1], "state theta")
    row = _finite_row(phi, "phi")
    y = finite_scalar(y, "y")
    alpha = read_alpha(alpha)
    p_next, theta_next = _rls_update(p, theta, None, None, row, y, alpha, False)
    return sym2_array(p_next), np.array(theta_next)


def read_excitation(gset) -> GreedySet:
    """A ``GreedySet`` read field by field, as a set of ints and floats: its
    indices, a tuple or list, ints >= 0 by ``read_count``, strictly increasing;
    three finite FIM entries; two finite right-hand-side entries; ``cond`` the
    condition number of those entries by ``sym2_spectrum`` (inf for the empty
    set). Else ``ValueError`` naming ``excitation``. Only a
    state's set is read: each accepted offer builds its successor from these."""
    if not isinstance(gset, GreedySet):
        raise ValueError(f"excitation must be a GreedySet, got {_shown(gset)}")
    if type(gset.indices) not in (tuple, list):
        raise ValueError(f"excitation indices must be a tuple, got {_shown(gset.indices)}")
    indices = tuple(read_count(k, "excitation indices", 0) for k in gset.indices)
    if any(later <= k for k, later in zip(indices, indices[1:])):
        raise ValueError(f"excitation indices must be strictly increasing, got {_shown(indices)}")
    fim = tuple(_read_floats(gset.fim_entries, "excitation fim_entries", "be 3 numbers", 3)
                .ravel().tolist())
    if not all(map(math.isfinite, fim)):
        raise ValueError(f"excitation fim_entries must be finite, got {fim}")
    rhs = finite_pair(gset.rhs_entries, "excitation rhs_entries")
    cond = read_number(gset.cond, "excitation cond")
    kappa = sym2_spectrum(*fim)[2]
    if cond != kappa:  # the acceptance rule compares an offer's kappa with it
        raise ValueError(f"excitation cond must be the FIM's condition number {kappa!r}, "
                         f"got {cond!r}")
    return GreedySet(indices, fim, rhs, cond)


@dataclass(frozen=True, init=False, eq=False)
class GrlsState:
    """Full state of the greedily-weighted RLS recursion.

    ``P`` is the 2x2 inverse Hessian of the weighted cost (symmetric
    positive definite throughout), ``theta`` the current estimate of
    (beta, gamma), ``excitation`` the greedy excitation set. ``regressor``
    maps a state to its two regressor entries (``SIS_REGRESSOR`` for the
    SIS model); ``grls_step`` reads it once per step as two finite floats,
    ``SIS_REGRESSOR`` as ``sis_regressor_pair``. Setting ``greedy_enabled``
    to False makes every offer a rejection, which leaves the set empty and
    the recursion EF-RLS.

    P is kept as its entries (a, b, d), theta as two floats; ``P`` and
    ``theta`` read as new arrays. A state reads every field once, when built
    (``dataclasses.replace`` too): ``ValueError`` names ``state P`` unless a
    finite, exactly symmetric 2x2 array, ``greedy_enabled`` unless a bool,
    alpha unless ``read_alpha`` reads it (in (0, 1), or 1 with the set off),
    ``state theta`` unless two finite numbers, ``regressor`` unless callable,
    ``excitation`` unless ``read_excitation`` reads it and each of its
    indices is below ``step``, and ``step`` unless ``read_count`` reads an
    integer >= 0; ``initial`` reads theta0 and p0_scale by their
    readers and builds the state through these checks. Only ``grls_step``
    builds a state without them, from the update's checked floats. States
    compare and hash by those floats and the other fields.
    """

    P: np.ndarray = property(lambda self: sym2_array(self._P))
    theta: np.ndarray = property(lambda self: np.array(self._theta))
    excitation: GreedySet
    alpha: float
    regressor: Callable
    step: int = 0
    greedy_enabled: bool = True

    def __init__(self, P, theta, excitation, alpha, regressor, step=0, greedy_enabled=True):
        P = sym2(P, "state P")
        if not isinstance(greedy_enabled, (bool, np.bool_)):
            raise ValueError(f"greedy_enabled must be a bool, got {_shown(greedy_enabled)}")
        greedy_enabled = bool(greedy_enabled)
        alpha = read_alpha(alpha, below_one=greedy_enabled)
        theta = finite_pair(theta, "state theta")
        _pair_reader(regressor)  # ValueError naming the regressor unless callable
        excitation = read_excitation(excitation)
        step = read_count(step, "step", 0)
        if excitation.indices and excitation.indices[-1] >= step:  # steps 0..step-1 were offered
            raise ValueError(f"excitation indices must be below step {step}, "
                             f"got {_shown(excitation.indices)}")
        # the one place that orders __dict__, whose values __eq__ and __hash__ read;
        # grls_step copies it
        fields = self.__dict__
        fields["_P"] = P
        fields["_theta"] = theta
        fields["excitation"] = excitation
        fields["alpha"] = alpha
        fields["regressor"] = regressor
        fields["step"] = step
        fields["greedy_enabled"] = greedy_enabled

    def __eq__(self, other):  # __dict__ holds the floats and the other fields
        return self.__dict__ == other.__dict__ if type(other) is GrlsState else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    @classmethod
    def initial(
        cls, theta0: Sequence[float], regressor: Callable, alpha: float = 0.94,
        p0_scale: float = 100.0, greedy_enabled: bool = True,
    ) -> "GrlsState":
        theta0, p0 = read_theta0(theta0), read_p0_scale(p0_scale)
        return cls(sym2_array((p0, 0.0, p0)), theta0, GreedySet(), alpha, regressor, 0,
                   greedy_enabled)


def _rls_update(
    p: Sym2, theta: tuple[float, float], fim: Sym2 | None, rhs: tuple[float, float] | None,
    phi: tuple[float, float], y: float, alpha: float, accepted: bool,
) -> tuple[Sym2, tuple[float, float]]:
    """One step of the weighted RLS recursion on floats, shared by GRLS and EF-RLS.

    Minimizes alpha * (old cost) + (1 - alpha) * (excitation-set cost) +
    (datum cost): P' = (alpha P^-1 + G + phi^T phi)^-1 and
    theta' = theta + P' ((1 - alpha) (r - F theta) + phi^T (y - phi theta)),
    where F and r are the set's FIM entries ``fim`` and right-hand side
    ``rhs`` (``fim`` None for an empty set, EF-RLS's) and G = (1 - alpha) F.
    The set is the one after datum k (regressor ``phi``, observation ``y``)
    was offered to it; a datum it has just ``accepted`` enters through it, so
    its phi terms drop. Returns (P', theta'), for alpha in (0, 1] (below 1
    with a set), which the caller has read.

    P stays in covariance form, never inverted. The rank-two refresh
    Q = (P^-1 + G/alpha)^-1 is the 2x2 identity
    (P + det(P) adj(G)/alpha) / (1 + tr(P G)/alpha + det(P) det(G)/alpha^2);
    the datum is a Sherman-Morrison step Q - Q phi^T phi Q / g with
    g = alpha + phi Q phi^T; and P' = Q / alpha. Raises ``ConditioningError``
    when g <= 0 or g is not finite: P has lost positive definiteness to
    round-off, which is how forgetting RLS dies once its covariance has wound
    up. It also raises when the refresh's denominator is exactly 0.0 (a
    negative one is left to the later checks: a P that is not positive
    definite can recover), when an entry of P' is not finite, as when det(P)
    overflows in the refresh of a huge P, so that no caller carries a NaN
    covariance on, and when theta' is not finite.
    """
    a, b, d = p
    t1, t2 = theta
    g1 = g2 = 0.0
    if fim is not None:
        w = 1.0 - alpha
        f11, f12, f22 = fim
        r1, r2 = rhs
        g1 = w * (r1 - (f11 * t1 + f12 * t2))
        g2 = w * (r2 - (f12 * t1 + f22 * t2))
        e, f, h = w * f11, w * f12, w * f22
        s = (a * d - b * b) / alpha
        trace_pg = a * e + 2.0 * b * f + d * h
        den = 1.0 + trace_pg / alpha + s * (e * h - f * f) / alpha
        if den == 0.0:  # P is not positive definite; a nonzero den can still recover
            raise ConditioningError("the refresh's 1 + tr(PG)/alpha + det(P) det(G)/alpha^2 = 0.0")
        scale = 1.0 / den
        a, b, d = (a + s * h) * scale, (b - s * f) * scale, (d + s * e) * scale
    if not accepted:
        u1, u2 = phi
        err = y - (u1 * t1 + u2 * t2)
        g1 += u1 * err
        g2 += u2 * err
        v1 = a * u1 + b * u2
        v2 = b * u1 + d * u2
        g = alpha + u1 * v1 + u2 * v2
        if not 0.0 < g < math.inf:
            raise ConditioningError(
                f"alpha + phi P phi^T = {g!r} is not a positive number; the "
                "covariance has wound up beyond working precision"
            )
        k1, k2 = v1 / g, v2 / g
        a, b, d = a - v1 * k1, b - v1 * k2, d - v2 * k2
    a, b, d = a / alpha, b / alpha, d / alpha
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(d)):
        raise ConditioningError(f"the covariance update gave non-finite P' = {(a, b, d)!r}")
    t1, t2 = t1 + (a * g1 + b * g2), t2 + (b * g1 + d * g2)
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ConditioningError(f"the RLS step gave non-finite theta' = {(t1, t2)!r}")
    return (a, b, d), (t1, t2)


def _read_transition(regressor: Callable, x_k, x_next) -> tuple[float, tuple[float, float]]:
    """The observation x_next - x_k and the regressor row at x_k, each read and
    checked in ``grls_step``'s order; ``ValueError`` at the first that fails."""
    x_k = finite_scalar(x_k, "x_k")
    x_next = finite_scalar(x_next, "x_next")
    y = x_next - x_k
    if not math.isfinite(y * y):
        raise ValueError(f"x_next - x_k must have a finite square, got {x_next!r} - {x_k!r}")
    return y, _finite_row(_pair_reader(regressor)(x_k), "regressor")


def grls_step(state: GrlsState, x_k: float, x_next: float) -> GrlsState:
    """Consume the transition (x_k -> x_next) and return the updated state.

    The incoming regressor is offered to the excitation set. The set, new
    point included on acceptance, is refreshed into the covariance with
    weight 1 - alpha; a rejected point enters by a Sherman-Morrison step
    with unit weight, to be forgotten exponentially like ordinary RLS data.
    The state's floats were checked when it was built, so only the
    transition raises ``ValueError`` here: naming ``x_k`` or ``x_next`` when
    it is not finite (an int beyond the float range counts as an infinity),
    naming ``x_next`` when the observation x_next - x_k has no finite square
    (|x_next - x_k| beyond about 1.3e154, where the squared residual of the
    cost overflows), and naming the regressor when its entries (u1, u2) at
    x_k, or u1^2 + u2^2, are not finite (with ``SIS_REGRESSOR``, |x_k|
    beyond about 1.16e77), all before the step. A covariance that loses
    positive definiteness, or a non-finite new P or theta, raises
    ``ConditioningError``. With the excitation set on, the set's refresh
    holds u1^4, so with ``SIS_REGRESSOR`` and x_k = x_next an |x_k| from
    about 1e52 up to the 1.16e77 rule overflows it: P' is not finite and
    ``ConditioningError`` is raised, not ``ValueError``.

    Two floats (``np.float64`` too) stepped by ``SIS_REGRESSOR`` are checked
    at once: y^2 + u1^2 + u2^2 is finite exactly when every check passes, and
    any other input is read check by check. The next state is a copy of
    ``state``'s fields with P, theta, the set and the step count replaced by
    the offer's set and the update's floats, finite since it did not raise,
    with no second check.
    """
    regressor = state.regressor
    if regressor is sis_regressor and isinstance(x_k, float) and isinstance(x_next, float):
        x_k = float(x_k)
        y = float(x_next) - x_k
        phi = u1, u2 = sis_regressor_pair(x_k)
        total = y * y + u1 * u1 + u2 * u2
        if total - total:  # NaN: some check fails, and says which
            y, phi = _read_transition(regressor, x_k, x_next)
    else:
        y, phi = _read_transition(regressor, x_k, x_next)
    excitation, accepted = state.excitation, False
    if state.greedy_enabled:
        sums = _offer_floats(excitation.fim_entries, excitation.rhs_entries, excitation.cond,
                             phi, y)
        if sums is not None:
            excitation, accepted = GreedySet(excitation.indices + (state.step,), *sums), True
    p, theta = _rls_update(
        state._P, state._theta, excitation.fim_entries if excitation.indices else None,
        excitation.rhs_entries, phi, y, state.alpha, accepted,
    )
    successor = object.__new__(GrlsState)
    fields = successor.__dict__
    fields.update(state.__dict__)  # the field order of __init__
    fields["_P"] = p
    fields["_theta"] = theta
    fields["excitation"] = excitation
    fields["step"] += 1
    return successor


def run_grls(state: GrlsState, traj: Trajectory) -> list[GrlsState]:
    """Drive the recursion over a whole trajectory; returns the state after each step."""
    states = []
    for k in range(traj.step_count):
        state = grls_step(state, traj.states[k], traj.states[k + 1])
        states.append(state)
    return states


@dataclass(frozen=True)
class WeightedCostSpec:
    """Ingredients of the weighted least-squares cost the recursion minimizes.

    ``alpha``, ``p0_inv`` and ``theta0`` are read as a float, a float 2x2
    array and a float pair. ``ValueError`` naming the field unless
    ``read_alpha`` and ``read_theta0`` read alpha and theta0, ``p0_inv`` is
    a finite, exactly symmetric, positive definite 2x2 array and
    ``greedy_indices`` is a collection (not a ``str`` or ``bytes``) whose
    members ``read_count`` reads as integers >= 0 (no bool, no real such as
    2.0), kept as a frozenset of ints. ``from_grls`` reads
    ``p0_scale`` by ``read_p0_scale``.
    """

    alpha: float
    p0_inv: np.ndarray
    theta0: np.ndarray
    greedy_indices: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", read_alpha(self.alpha, "spec.alpha"))
        a, b, d = sym2(self.p0_inv, "spec.p0_inv")
        if not sym2_spectrum(a, b, d)[0] > 0.0:
            raise ValueError(f"spec.p0_inv must be positive definite, got {[[a, b], [b, d]]}")
        object.__setattr__(self, "p0_inv", sym2_array((a, b, d)))
        object.__setattr__(self, "theta0", np.array(read_theta0(self.theta0, "spec.theta0")))
        indices = self.greedy_indices
        try:
            if isinstance(indices, (str, bytes)):  # iterable, but not of indices
                raise TypeError
            members = iter(indices)
        except TypeError:
            raise ValueError(
                f"spec.greedy_indices must be a collection of step indices, got {_shown(indices)}"
            ) from None
        indices = frozenset(read_count(i, "spec.greedy_indices", 0) for i in members)
        object.__setattr__(self, "greedy_indices", indices)

    @classmethod
    def from_grls(cls, state: GrlsState, p0_scale: float, theta0: Sequence[float]):
        inv = 1.0 / read_p0_scale(p0_scale)
        return cls(alpha=state.alpha, p0_inv=sym2_array((inv, 0.0, inv)), theta0=theta0,
                   greedy_indices=frozenset(state.excitation.indices))


def cost_weight(spec: WeightedCostSpec, i: int, k: int) -> float:
    """Weight of residual i in the step-k cost.

    Excitation-set members get the refreshed weight (1 - alpha) * sum of
    alpha^(k-l) for l = i..k, which telescopes to 1 - alpha^(k-i+1); all
    other points keep the plain exponential discount alpha^(k-i). ``i`` and
    ``k`` are read by ``read_count``; ``ValueError`` names ``k`` unless it is
    >= 0, and ``i`` unless it lies in 0..k.
    """
    i, k = read_count(i, "i"), read_count(k, "k", 0)
    if not 0 <= i <= k:
        raise ValueError(f"i must be in 0..k, got i={_shown(i)} with k={_shown(k)}")
    age = _scalar_float(k - i)  # an age beyond the float range is an infinite one
    if i in spec.greedy_indices:
        return 1.0 - spec.alpha ** (age + 1.0)
    return spec.alpha ** age


def batch_oracle(
    traj: Trajectory, reg: Callable, spec: WeightedCostSpec, k: int
) -> np.ndarray:
    """Minimize the weighted cost over data 0..k directly via the normal equations.

    Forms A = sum_i w_{i,k} phi_i^T phi_i + alpha^(k+1) P0^-1 and the matching
    right-hand side, then solves. Independent of the recursive route on
    purpose: this is the ground truth the recursion is checked against.
    ``ValueError``, with no numpy warning, when A or the right-hand side is
    not finite, as when a finite regressor squares past the float range.
    """
    k = read_count(k, "k")
    if not 0 <= k < traj.step_count:
        raise ValueError(f"k {_shown(k)} out of range for {traj.step_count} observations")
    if any(i > k for i in spec.greedy_indices):
        raise ValueError("greedy_indices contains points beyond step k")
    ages = k - np.arange(k + 1)
    weights = spec.alpha ** ages.astype(float)
    if spec.greedy_indices:
        greedy = np.fromiter(spec.greedy_indices, dtype=int)
        weights[greedy] = 1.0 - spec.alpha ** (ages[greedy] + 1.0)
    pairs = regressor_pairs(reg, memoryview(traj.states[: k + 1]))  # a float at a time
    rows = np.fromiter(pairs, dtype=np.dtype((float, 2)), count=k + 1)  # filled in place
    ys = traj.observations[: k + 1]
    prior_scale = spec.alpha ** (k + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        a = (rows * weights[:, None]).T @ rows + prior_scale * spec.p0_inv
        a = 0.5 * (a + a.T)
        rhs = rows.T @ (weights * ys) + prior_scale * (spec.p0_inv @ spec.theta0)
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise ValueError(f"the normal equations over steps 0..{k} are not finite")
    return solve_spd(a, rhs)


# IE-MMAI's fixed settings. IE_MODELS models start at theta0 + IE_SPREAD * z,
# z standard normal. The one-shot correction fires once the smallest
# eigenvalue of the accumulated FIM reaches IE_THRESHOLD; IE_PROX_WEIGHT
# regularizes that correction toward each model's own estimate, so models
# stay distinguishable in directions the data leave flat; IE_COST_ALPHA
# discounts the running residual cost used for model selection.
IE_MODELS = 3
IE_SPREAD = 0.25
IE_THRESHOLD = 1e-4
IE_PROX_WEIGHT = 1e-8
IE_COST_ALPHA = 0.94


# IE-MMAI's state on floats: (theta1, theta2, cost) per model, the FIM's
# entries, the right-hand side, and whether the correction has fired.
IeFloats = tuple[tuple[tuple[float, float, float], ...], Sym2, tuple[float, float], bool]
_COST = operator.itemgetter(2)  # a model's cost


def ie_mmai_init(theta0: Sequence[float], *, seed: int = 0) -> IeFloats:
    """IE-MMAI's initial state: ``IE_MODELS`` models drawn around ``theta0``.

    Model i is theta0 + IE_SPREAD * z_i, with z_i the i-th pair of standard
    normals from ``numpy.random.default_rng(seed)``, all drawn by one call;
    every cost, the FIM and the right-hand side start at zero. ``ValueError``
    names ``seed`` unless an integer >= 0 and ``theta0`` unless
    ``read_theta0`` reads it. Every model is finite: IE_SPREAD * z_i is far
    below the float spacing near the float maximum.
    """
    seed, theta0 = read_count(seed, "seed", 0), read_theta0(theta0)
    z = np.random.default_rng(seed).standard_normal((IE_MODELS, 2))
    drawn = np.array(theta0) + IE_SPREAD * z
    return tuple((t1, t2, 0.0) for t1, t2 in drawn.tolist()), (0.0, 0.0, 0.0), (0.0, 0.0), False


def ie_mmai_kernel(state: IeFloats, phi: tuple[float, float], y: float) -> IeFloats:
    """Advance every model one gradient step; returns the next state.

    Residual costs are discounted and accumulated before the update. Once the
    undiscounted FIM over all data so far passes the initial-excitation
    threshold, each model jumps to the proximally-regularized least squares
    solution over that window; afterwards the models keep descending as
    before. ``ie_mmai_selected`` reads the estimate. Raises
    ``ConditioningError`` when a model's new estimate is not finite.
    """
    models, (a, b, d), (r1, r2), corrected = state
    u1, u2 = phi
    stepped = []
    for t1, t2, cost in models:
        # the pure-GD step, whose residual also feeds the model's cost
        e = y - (u1 * t1 + u2 * t2)
        stepped.append((t1 + u1 * e, t2 + u2 * e, IE_COST_ALPHA * cost + 0.5 * (e * e)))
    a, b, d = a + u1 * u1, b + u1 * u2, d + u2 * u2
    r1, r2 = r1 + u1 * y, r2 + u2 * y
    if not corrected and sym2_spectrum(a, b, d)[0] >= IE_THRESHOLD:
        w = IE_PROX_WEIGHT
        regularized = sym2_array((a + w, b, d + w))
        stepped = [
            (*solve_spd(regularized, np.array([r1 + w * t1, r2 + w * t2])).tolist(), cost)
            for t1, t2, cost in stepped
        ]
        corrected = True
    for t1, t2, _ in stepped:
        if not (math.isfinite(t1) and math.isfinite(t2)):
            raise ConditioningError(f"IE-MMAI gave a non-finite model theta' = {(t1, t2)!r}")
    return tuple(stepped), (a, b, d), (r1, r2), corrected


def ie_mmai_selected(models: tuple[tuple[float, float, float], ...]) -> tuple[float, float]:
    """(theta1, theta2) of the first model with the lowest cost.

    After the one-shot correction the models agree to within a few 1e-5
    relative, and on noise-free data their costs fall to rounding noise
    (below the cost of a two-ulp residual), so the model picked there, and
    the last digits of the reported estimate, are decided by rounding.
    """
    t1, t2, _ = min(models, key=_COST)
    return t1, t2
