"""Online identifiers for linear-in-parameters dynamics.

Four identifiers are provided:

* ``pure_gd_step`` -- unit-gain gradient descent on the stage cost.
* ``ef_rls_step`` -- recursive least squares with exponential forgetting.
* ``grls_step`` -- greedily-weighted RLS: exciting data points are kept in
  an excitation set whose contribution is refreshed every step instead of
  being forgotten, which prevents covariance windup once the trajectory
  settles onto an equilibrium.
* ``ie_mmai_step`` -- a multi-model gradient baseline with a one-shot least
  squares correction once the data pass the initial-excitation test. This
  is a deliberately approximate reconstruction of the published method; only
  its qualitative behavior is relied upon.

``batch_oracle`` solves the weighted normal equations that the greedy
recursion provably minimizes, from scratch at any step, and exists so the
recursive and batch routes can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Trajectory
from .excitation import GreedySet, Regressor, finite_pair, finite_scalar, greedy_offer
from .linalg import (
    Sym2,
    covariance_update,
    solve_spd,
    sym2,
    sym2_array,
    sym2_eigenvalues,
    symmetrize,
)


def pure_gd_kernel(
    theta: tuple[float, float], phi: tuple[float, float], y: float
) -> tuple[float, float]:
    """Unit-gain gradient step on floats: theta + phi^T (y - phi theta)."""
    t1, t2 = theta
    u1, u2 = phi
    e = y - (u1 * t1 + u2 * t2)
    return t1 + u1 * e, t2 + u2 * e


def pure_gd_step(theta_hat: np.ndarray, phi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One unit-gain negative-gradient step: theta + phi^T (y - phi theta).

    Two parameters and one scalar observation, like the RLS kernels; a
    non-finite theta_hat, phi or y raises ``ValueError`` naming it.
    """
    theta = finite_pair(theta_hat, "theta_hat")
    return np.array(pure_gd_kernel(theta, finite_pair(phi, "phi"), finite_scalar(y, "y")))


def _rls_kernel(
    p: Sym2,
    theta: tuple[float, float],
    alpha: float,
    gset: GreedySet,
    phi: tuple[float, float] | None,
    y: float,
) -> tuple[Sym2, tuple[float, float]]:
    """One step of the weighted RLS recursion shared by EF-RLS and GRLS.

    Minimizes alpha * (old cost) + (1 - alpha) * (excitation-set cost) +
    (datum cost): P' = (alpha P^-1 + (1 - alpha) F + phi^T phi)^-1 and
    theta' = theta + P' ((1 - alpha) (r - F theta) + phi^T (y - phi theta)),
    where F and r are the set's FIM and right-hand side. ``phi`` is None
    when the datum has just joined the set, which then carries it.
    """
    t1, t2 = theta
    g1 = g2 = 0.0
    refresh = None
    if gset.indices:
        w = 1.0 - alpha
        f11, f12, f22 = gset.fim_entries
        r1, r2 = gset.rhs_entries
        refresh = (w * f11, w * f12, w * f22)
        g1 = w * (r1 - (f11 * t1 + f12 * t2))
        g2 = w * (r2 - (f12 * t1 + f22 * t2))
    if phi is not None:
        u1, u2 = phi
        e = y - (u1 * t1 + u2 * t2)
        g1 += u1 * e
        g2 += u2 * e
    a, b, d = covariance_update(p, alpha, refresh, phi)
    return (a, b, d), (t1 + (a * g1 + b * g2), t2 + (b * g1 + d * g2))


def _finite_state(p: np.ndarray, theta: np.ndarray) -> tuple[Sym2, tuple[float, float]]:
    """An estimator's (P, theta) as floats; ``ValueError`` when not finite."""
    return sym2(p, "state P"), finite_pair(theta, "state theta")


_NO_SET = GreedySet()


def ef_rls_kernel(
    p: Sym2, theta: tuple[float, float], phi: tuple[float, float], y: float, alpha: float
) -> tuple[Sym2, tuple[float, float]]:
    """EF-RLS on floats: the RLS kernel with an excitation set that stays empty."""
    return _rls_kernel(p, theta, alpha, _NO_SET, phi, y)


def ef_rls_step(
    state: tuple[np.ndarray, np.ndarray],
    phi: np.ndarray,
    y: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One exponentially-forgetting RLS update on a (P, theta_hat) pair.

    The GRLS kernel with an empty excitation set: P' = (alpha P^-1 +
    phi^T phi)^-1 by a Sherman-Morrison step and theta' = theta_hat +
    P' phi^T (y - phi theta_hat). The estimator fails with
    ``ConditioningError`` when alpha + phi P phi^T <= 0 or is not finite:
    its covariance has wound up until round-off destroyed its positive
    definiteness. Non-finite P, theta_hat, phi or y raise ``ValueError``
    naming the argument.
    """
    p, theta = _finite_state(*state)
    row = finite_pair(phi, "phi")
    p_next, theta_next = ef_rls_kernel(p, theta, row, finite_scalar(y, "y"), alpha)
    return sym2_array(p_next), np.array(theta_next)


@dataclass(frozen=True)
class GrlsState:
    """Full state of the greedily-weighted RLS recursion.

    ``P`` is the inverse Hessian of the weighted cost (symmetric positive
    definite throughout), ``theta`` the current estimate, ``excitation`` the
    greedy excitation set. ``alpha`` must be strictly below 1: the excitation
    set's refresh weight is 1 - alpha. Setting ``greedy_enabled`` to False
    makes every offer a rejection, which leaves the set empty and the
    recursion EF-RLS.
    """

    P: np.ndarray
    theta: np.ndarray
    excitation: GreedySet
    alpha: float
    regressor: Regressor
    step: int = 0
    greedy_enabled: bool = True

    @classmethod
    def initial(
        cls,
        theta0: Sequence[float],
        regressor: Regressor,
        alpha: float = 0.94,
        p0_scale: float = 100.0,
        greedy_enabled: bool = True,
    ) -> "GrlsState":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if (regressor.n_outputs, regressor.n_params) != (1, 2):
            raise ValueError(
                "the RLS kernel needs a 1x2 regressor, got "
                f"{regressor.n_outputs}x{regressor.n_params}"
            )
        theta0 = np.asarray(theta0, dtype=float)
        if theta0.shape != (2,):
            raise ValueError(f"theta0 has shape {theta0.shape}, expected (2,)")
        finite_pair(theta0, "theta0")
        p0_scale = finite_scalar(p0_scale, "p0_scale")
        if p0_scale <= 0.0:
            raise ValueError(f"p0_scale must be positive, got {p0_scale}")
        return cls(
            P=p0_scale * np.eye(2),
            theta=theta0,
            excitation=GreedySet.empty(),
            alpha=alpha,
            regressor=regressor,
            greedy_enabled=greedy_enabled,
        )


def grls_kernel(
    p: Sym2,
    theta: tuple[float, float],
    gset: GreedySet,
    phi: tuple[float, float],
    y: float,
    k: int,
    alpha: float,
    greedy_enabled: bool,
) -> tuple[Sym2, tuple[float, float], GreedySet, bool]:
    """One GRLS step on floats; see ``grls_step``.

    Offers datum k (regressor ``phi``, observation ``y``) to the excitation
    set, then runs the RLS kernel; returns (P, theta, set, accepted).
    """
    if greedy_enabled:
        gset, accepted = greedy_offer(gset, phi, y, k)
    else:
        accepted = False
    p, theta = _rls_kernel(p, theta, alpha, gset, None if accepted else phi, y)
    return p, theta, gset, accepted


def grls_step(state: GrlsState, x_k: float, x_next: float) -> GrlsState:
    """Consume the transition (x_k -> x_next) and return the updated state.

    The incoming regressor is offered to the excitation set. The set, new
    point included on acceptance, is refreshed into the covariance with
    weight 1 - alpha; a rejected point enters by a Sherman-Morrison step
    with unit weight, to be forgotten exponentially like ordinary RLS data.
    A non-finite ``x_k``, ``x_next``, regressor, ``state.P`` or
    ``state.theta`` raises ``ValueError``; a covariance that loses positive
    definiteness raises ``ConditioningError``.
    """
    p, theta = _finite_state(state.P, state.theta)
    x_k = finite_scalar(x_k, "x_k")
    x_next = finite_scalar(x_next, "x_next")
    phi = finite_pair(state.regressor(x_k), "regressor")
    p, theta, excitation, _ = grls_kernel(
        p, theta, state.excitation, phi, x_next - x_k, state.step, state.alpha,
        state.greedy_enabled,
    )
    return GrlsState(
        sym2_array(p), np.array(theta), excitation, state.alpha, state.regressor,
        state.step + 1, state.greedy_enabled,
    )


def run_grls(state: GrlsState, traj: Trajectory) -> list[GrlsState]:
    """Drive the recursion over a whole trajectory; returns the state after each step."""
    states = []
    for k in range(traj.step_count):
        state = grls_step(state, traj.states[k], traj.states[k + 1])
        states.append(state)
    return states


@dataclass(frozen=True)
class WeightedCostSpec:
    """Ingredients of the weighted least-squares cost the recursion minimizes."""

    alpha: float
    p0_inv: np.ndarray
    theta0: np.ndarray
    greedy_indices: frozenset[int]

    @classmethod
    def from_grls(cls, state: GrlsState, p0_scale: float, theta0: Sequence[float]):
        n = state.regressor.n_params
        return cls(
            alpha=state.alpha,
            p0_inv=np.eye(n) / p0_scale,
            theta0=np.asarray(theta0, dtype=float),
            greedy_indices=frozenset(state.excitation.indices),
        )


def cost_weight(spec: WeightedCostSpec, i: int, k: int) -> float:
    """Weight of residual i in the step-k cost.

    Excitation-set members get the refreshed weight (1 - alpha) * sum of
    alpha^(k-l) for l = i..k, which telescopes to 1 - alpha^(k-i+1); all
    other points keep the plain exponential discount alpha^(k-i).
    """
    if i > k:
        raise ValueError(f"weight requested for future point i={i} > k={k}")
    if i in spec.greedy_indices:
        if spec.alpha == 1.0:
            return 0.0
        return 1.0 - spec.alpha ** (k - i + 1)
    return spec.alpha ** (k - i)


def limiting_cost_weights(spec: WeightedCostSpec, i: int, k: int) -> float:
    """Limit of cost_weight as k grows with i fixed: 1 inside the set, else alpha^(k-i)."""
    if i > k:
        raise ValueError(f"weight requested for future point i={i} > k={k}")
    if i in spec.greedy_indices:
        return 1.0
    return spec.alpha ** (k - i)


def batch_oracle(
    traj: Trajectory, reg: Regressor, spec: WeightedCostSpec, k: int
) -> np.ndarray:
    """Minimize the weighted cost over data 0..k directly via the normal equations.

    Forms A = sum_i w_{i,k} phi_i^T phi_i + alpha^(k+1) P0^-1 and the matching
    right-hand side, then solves. Independent of the recursive route on
    purpose: this is the ground truth the recursion is checked against.
    """
    if k >= traj.step_count:
        raise ValueError(f"step {k} out of range for {traj.step_count} observations")
    if any(i > k for i in spec.greedy_indices):
        raise ValueError("greedy_indices contains points beyond step k")
    for name in ("p0_inv", "theta0"):
        if not np.isfinite(getattr(spec, name)).all():
            raise ValueError(f"spec.{name} must be finite, got {getattr(spec, name)!r}")
    ages = k - np.arange(k + 1)
    weights = spec.alpha ** ages.astype(float)
    if spec.greedy_indices:
        greedy = np.fromiter(spec.greedy_indices, dtype=int)
        weights[greedy] = (
            0.0 if spec.alpha == 1.0 else 1.0 - spec.alpha ** (ages[greedy] + 1.0)
        )
    rows = np.empty((k + 1, reg.n_params))
    for i in range(k + 1):
        rows[i] = reg(traj.states[i])
    ys = traj.observations[: k + 1]
    prior_scale = spec.alpha ** (k + 1)
    a = (rows * weights[:, None]).T @ rows + prior_scale * spec.p0_inv
    rhs = rows.T @ (weights * ys) + prior_scale * (spec.p0_inv @ spec.theta0)
    return solve_spd(symmetrize(a), rhs)


@dataclass(frozen=True)
class IeMmaiConfig:
    """Knobs of the multi-model baseline.

    ``ie_threshold`` is the smallest-eigenvalue level the accumulated FIM
    must clear before the one-shot correction fires; ``prox_weight``
    regularizes that correction toward each model's own estimate, so models
    stay distinguishable in directions the data leave flat; ``cost_alpha``
    discounts the running residual cost used for model selection.
    """

    ie_threshold: float = 1e-4
    prox_weight: float = 1e-8
    cost_alpha: float = 0.94


@dataclass(frozen=True)
class IeModel:
    theta: np.ndarray
    cost: float = 0.0


# IE-MMAI's state on floats: (theta1, theta2, cost) per model, the FIM's
# entries, the right-hand side, and whether the correction has fired.
IeFloats = tuple[tuple[tuple[float, float, float], ...], Sym2, tuple[float, float], bool]


@dataclass(frozen=True)
class IeMmaiState:
    """Models plus the shared excitation accumulators of the IE-MMAI baseline."""

    models: tuple[IeModel, ...]
    fim: np.ndarray
    rhs: np.ndarray
    corrected: bool
    config: IeMmaiConfig
    step: int = 0

    @classmethod
    def initialize(
        cls,
        theta0: Sequence[float],
        n_models: int,
        spread: float = 0.25,
        seed: int = 0,
        config: IeMmaiConfig | None = None,
    ) -> "IeMmaiState":
        if n_models < 1:
            raise ValueError("need at least one model")
        theta0 = np.asarray(theta0, dtype=float)
        rng = np.random.default_rng(seed)
        models = tuple(
            IeModel(theta=theta0 + spread * rng.standard_normal(theta0.shape))
            for _ in range(n_models)
        )
        n = theta0.shape[0]
        return cls(
            models=models,
            fim=np.zeros((n, n)),
            rhs=np.zeros(n),
            corrected=False,
            config=config or IeMmaiConfig(),
        )

    def selected(self) -> np.ndarray:
        best = min(range(len(self.models)), key=lambda i: self.models[i].cost)
        return self.models[best].theta

    def floats(self) -> IeFloats:
        """The state as ``ie_mmai_kernel`` steps it; ``ValueError`` when not finite."""
        models = tuple(
            (*finite_pair(m.theta, "model theta"), finite_scalar(m.cost, "model cost"))
            for m in self.models
        )
        fim = sym2(self.fim, "state fim")
        return models, fim, finite_pair(self.rhs, "state rhs"), self.corrected


def ie_mmai_kernel(
    state: IeFloats, config: IeMmaiConfig, phi: tuple[float, float], y: float
) -> IeFloats:
    """One IE-MMAI step on floats; see ``ie_mmai_step``."""
    models, (a, b, d), (r1, r2), corrected = state
    u1, u2 = phi
    stepped = []
    for t1, t2, cost in models:
        # the pure-GD step, whose residual also feeds the model's cost
        e = y - (u1 * t1 + u2 * t2)
        stepped.append((t1 + u1 * e, t2 + u2 * e, config.cost_alpha * cost + 0.5 * (e * e)))
    a, b, d = a + u1 * u1, b + u1 * u2, d + u2 * u2
    r1, r2 = r1 + u1 * y, r2 + u2 * y
    if not corrected and sym2_eigenvalues(a, b, d)[0] >= config.ie_threshold:
        w = config.prox_weight
        regularized = sym2_array((a + w, b, d + w))
        stepped = [
            (*solve_spd(regularized, np.array([r1 + w * t1, r2 + w * t2])).tolist(), cost)
            for t1, t2, cost in stepped
        ]
        corrected = True
    return tuple(stepped), (a, b, d), (r1, r2), corrected


def ie_mmai_selected(models: tuple[tuple[float, float, float], ...]) -> tuple[float, float]:
    """(theta1, theta2) of the first model with the lowest cost.

    After the one-shot correction the models agree to within a few 1e-5
    relative, and on noise-free data their costs fall to rounding noise
    (below the cost of a two-ulp residual), so the model picked there, and
    the last digits of the reported estimate, are decided by rounding.
    """
    t1, t2, _ = min(models, key=lambda m: m[2])
    return t1, t2


def ie_mmai_step(
    state: IeMmaiState, phi: np.ndarray, y: np.ndarray
) -> tuple[IeMmaiState, np.ndarray]:
    """Advance every model one gradient step and return (state, selected estimate).

    Residual costs are discounted and accumulated before the update. Once the
    undiscounted FIM over all data so far passes the initial-excitation
    threshold, each model jumps to the proximally-regularized least squares
    solution over that window; afterwards the models keep descending as before.
    Two parameters and one scalar observation; a non-finite phi or y raises
    ``ValueError`` naming it.
    """
    row, y = finite_pair(phi, "phi"), finite_scalar(y, "y")
    models, fim, rhs, corrected = ie_mmai_kernel(state.floats(), state.config, row, y)
    new_state = IeMmaiState(
        models=tuple(IeModel(theta=np.array(m[:2]), cost=m[2]) for m in models),
        fim=sym2_array(fim),
        rhs=np.array(rhs),
        corrected=corrected,
        config=state.config,
        step=state.step + 1,
    )
    return new_state, new_state.selected()
