"""Closed-form 2x2 linear algebra shared by the identifiers.

The scalar SIS problem has two parameters, so every matrix the library
steps is a symmetric 2x2. Such a matrix [[a, b], [b, d]] is passed around
as its three distinct entries ``(a, b, d)``, and its eigenvalues,
condition number and forgetting-RLS covariance update are closed forms
over those floats, with no SVD or factorization. ``condition_number``
reads a 2x2 array and rejects any other shape or an asymmetric matrix.
``solve_spd`` (numpy's Cholesky) serves the batch oracle and the IE-MMAI
correction, which solve from scratch rather than step.
"""

from __future__ import annotations

import math

import numpy as np

# Singular values below RANK_TOLERANCE * sigma_max count as zero.
RANK_TOLERANCE = 1e-12

_MIN_NORMAL = 2.0**-1022  # the smallest normal float; a square below it has lost bits

# A symmetric 2x2 matrix [[a, b], [b, d]] as its entries (a, b, d).
Sym2 = tuple[float, float, float]


class ConditioningError(ArithmeticError):
    """An update or solve failed because a matrix is numerically singular."""


def sym2(m: np.ndarray, name: str = "matrix") -> Sym2:
    """Entries (a, b, d) of a finite, exactly symmetric 2x2 array."""
    (a, b), (c, d) = np.asarray(m, dtype=float).tolist()
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError(f"{name} must be finite, got {[[a, b], [c, d]]}")
    if b != c:
        raise ValueError(f"{name} must be exactly symmetric, got {[[a, b], [c, d]]}")
    return a, b, d


def sym2_array(m: Sym2) -> np.ndarray:
    a, b, d = m
    return np.array([[a, b], [b, d]])


def sym2_eigenvalues(a: float, b: float, d: float) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of [[a, b], [b, d]]; exact for diagonal input.

    With a >= d the eigenvalues are d - t and a + t, t = b^2 / (r + (a - d)/2)
    and r = hypot((a - d)/2, b): the gap is added to the diagonal instead of
    being recovered from (a + d)/2 +- r. Where b^2 overflows or leaves the
    normal range, t is formed as b * (b / (r + (a - d)/2)), which scales.
    """
    if a < d:
        a, d = d, a
    half_gap = 0.5 * (a - d)
    shift = 0.0
    if b:
        denom = math.hypot(half_gap, b) + half_gap
        shift = b * b / denom if _MIN_NORMAL <= b * b < math.inf else b * (b / denom)
    return d - shift, a + shift


def sym2_condition(a: float, b: float, d: float) -> float:
    """Condition number of [[a, b], [b, d]]: largest over smallest singular value.

    The singular values are the absolute eigenvalues. Returns ``math.inf``
    when the smaller is at most ``RANK_TOLERANCE`` times the larger (the
    zero matrix included). Entries must be finite.
    """
    return eigenvalue_condition(*sym2_eigenvalues(a, b, d))


def eigenvalue_condition(lo: float, hi: float) -> float:
    """Larger over smaller of |lo| and |hi|; ``math.inf`` at ``RANK_TOLERANCE``.

    The condition number of a symmetric matrix whose extreme eigenvalues
    are lo and hi, or of any matrix whose extreme singular values they are.
    """
    smax, smin = abs(hi), abs(lo)
    if smin > smax:
        smax, smin = smin, smax
    if smin <= RANK_TOLERANCE * smax:
        return math.inf
    return smax / smin


def condition_number(m: np.ndarray) -> float:
    """Ratio of largest to smallest singular value of a symmetric 2x2 matrix.

    ``math.inf`` for rank-deficient input, by ``sym2_condition``. Raises
    ``ValueError`` unless ``m`` is a finite, exactly symmetric 2x2 array.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a symmetric 2x2 matrix, got shape {m.shape}")
    return sym2_condition(*sym2(m))


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def covariance_update(
    p: Sym2,
    alpha: float,
    refresh: Sym2 | None = None,
    phi: tuple[float, float] | None = None,
) -> Sym2:
    """Forgetting-RLS covariance step P' = (alpha P^-1 + G + phi^T phi)^-1.

    ``p`` is the symmetric positive definite 2x2 covariance, ``refresh`` the
    positive semidefinite G (default 0) and ``phi`` an optional regressor
    row (u1, u2). Both parts stay in covariance form, never inverting P:

    * the rank-two refresh Q = (P^-1 + G/alpha)^-1 is the 2x2 identity
      (P + det(P) adj(G)/alpha) / (1 + tr(P G)/alpha + det(P) det(G)/alpha^2);
    * the datum is a Sherman-Morrison step Q - Q phi^T phi Q / g with
      g = alpha + phi Q phi^T,

    and P' = Q / alpha, for alpha in (0, 1]. Raises ``ConditioningError``
    when g <= 0 or g is not finite: P has lost positive definiteness to
    round-off, which is how forgetting RLS dies once its covariance has
    wound up. It also raises when an entry of P' is not finite, as when
    det(P) overflows in the refresh of a huge P, so that no caller carries
    a NaN covariance on.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    a, b, d = p
    if refresh is not None:
        e, f, h = refresh
        s = (a * d - b * b) / alpha
        trace_pg = a * e + 2.0 * b * f + d * h
        scale = 1.0 / (1.0 + trace_pg / alpha + s * (e * h - f * f) / alpha)
        a, b, d = (a + s * h) * scale, (b - s * f) * scale, (d + s * e) * scale
    if phi is not None:
        u1, u2 = phi
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
    return a, b, d


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a via its Cholesky factor."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("matrix is not positive definite") from exc
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))
