"""Closed-form 2x2 linear algebra shared by the identifiers.

The scalar SIS problem has two parameters, so every matrix the library
steps is a symmetric 2x2. Such a matrix [[a, b], [b, d]] is passed around
as its three distinct entries ``(a, b, d)``, and ``sym2_spectrum`` gives
its two eigenvalues and its condition number as one closed form over those
floats, with no SVD or factorization; every eigenvalue and condition number
the library forms comes from it. The forgetting-RLS covariance step is part
of the one RLS update, ``sisid.estimators._rls_update``. ``condition_number``
reads a 2x2 array and rejects any other shape or an asymmetric matrix.
``solve_spd`` (numpy's Cholesky) serves the batch oracle and the IE-MMAI
correction, which solve from scratch rather than step.

Every number or array the library takes from outside is read by one of two
routes. The scalar route, ``_scalar_float`` (``_scalar_pair`` for a tuple or
list of two), reads an int, bool or float or a numpy scalar of kind b, i, u or
f as a float, with no array. The array route, ``_read_floats``, reads any
other value by one numpy conversion, as numbers only with dtype kind b, i, u
or f, so strings, ``None``, complex, object and ragged values raise
``ValueError`` naming the argument. Both read a number beyond the float range
as an infinity of its sign, without a warning, and print a refused value by
``_shown``, at most 80 characters of it. ``finite_scalar`` and ``finite_pair``
read a data value (a number or a pair, or an array with one or two entries)
and refuse an infinity. A setting is one number (a 0-d array as its entry):
``read_number`` reads a float by the scalar route, and ``read_count`` alone an
integer, in a range. Each setting's reader (in ``sisid.estimators`` and
``sisid.dynamics``) builds on these, and the config reads its fields by them.
Values that each pass the rule can still overflow together, as a finite
regressor squared: the FIM sums of ``sisid.excitation`` and ``batch_oracle``'s
normal equations are refused by ``ValueError`` when they are not finite.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Singular values below RANK_TOLERANCE * sigma_max count as zero.
RANK_TOLERANCE = 1e-12

_MIN_NORMAL = 2.0**-1022  # the smallest normal float; a square below it has lost bits

# A symmetric 2x2 matrix [[a, b], [b, d]] as its entries (a, b, d).
Sym2 = tuple[float, float, float]


class ConditioningError(ArithmeticError):
    """An update or solve failed because a matrix is numerically singular."""


def _shown(value) -> str:
    """``repr(value)`` as every refusal prints it: at most 80 characters."""
    try:
        text = repr(value)
    except ValueError:  # an int of more digits than Python converts to text
        text = f"a {type(value).__name__} too long to print"
    return text if len(text) <= 80 else text[:77] + "..."


def _read_floats(value, name: str, expected: str = "be numbers", size=None) -> np.ndarray:
    """The array route: ``value`` as a float array, if numpy reads it with dtype
    kind b, i, u or f, and with ``size`` entries if given; else ``ValueError``:
    "<name> must <expected>, got <value>"."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged sequence
        arr = np.asarray(None)
    if arr.dtype.kind not in "biuf" or size is not None and arr.size != size:
        raise ValueError(f"{name} must {expected}, got {_shown(value)}")
    with np.errstate(over="ignore"):  # a longdouble beyond the float range is an infinity
        return arr.astype(float, copy=False)


def read_number(value, name: str) -> float:
    """One number, a setting, by the scalar route: what ``_scalar_float`` reads. A
    0-d array reads as its entry, a one-entry array is not one number: ``ValueError``
    "<name> must be a number"."""
    if type(value) is np.ndarray and value.shape == () and value.dtype.kind in "biuf":
        value = value[()]
    number = _scalar_float(value)
    if number is None:
        raise ValueError(f"{name} must be a number, got {_shown(value)}")
    return number


def read_count(value, name: str, low: float = -math.inf, high: float = math.inf) -> int:
    """An int or numpy integer, no bool (a 0-d array as its entry), in low..high."""
    if type(value) is np.ndarray and value.shape == () and value.dtype.kind in "biuf":
        value = value[()]
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    count = int(value)
    if not low <= count <= high:
        bounds = f">= {low}" if high == math.inf else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bounds}, got {_shown(count)}")
    return count


def _scalar_float(u) -> float | None:
    """The scalar route: an int (a bool too), a float (``np.float64`` too) or
    another numpy scalar of kind b, i, u or f, as a Python float, an int beyond
    the float range as an infinity of its sign; None for any other value."""
    if isinstance(u, float):
        return float(u)
    if isinstance(u, int):
        return float(u) if abs(u) <= sys.float_info.max else math.inf if u > 0 else -math.inf
    if isinstance(u, np.generic) and u.dtype.kind in "biuf":
        return float(u)
    return None


def _scalar_pair(value) -> tuple[float, float] | None:
    """A tuple or list of two scalars that ``_scalar_float`` reads, as two
    floats; None for any other value."""
    if type(value) in (tuple, list) and len(value) == 2:
        u1, u2 = map(_scalar_float, value)
        if u1 is not None and u2 is not None:
            return u1, u2
    return None


def finite_pair(value, name: str) -> tuple[float, float]:
    """Two finite Python floats from a pair that ``_scalar_pair`` reads, or any
    array with two entries; ``ValueError`` naming the argument for any other
    value, so an int beyond the float range is refused as an infinity."""
    pair = _scalar_pair(value)
    u1, u2 = pair or _read_floats(value, name, "have 2 entries, both numbers", 2).ravel().tolist()
    if not (math.isfinite(u1) and math.isfinite(u2)):
        raise ValueError(f"{name} must be finite, got {(u1, u2)}")
    return u1, u2


def finite_scalar(value, name: str) -> float:
    """A finite float from a number or a one-entry array; an int beyond the
    float range reads as an infinity, so it is refused as one."""
    number = _scalar_float(value)
    if number is None:
        number = _read_floats(value, name, "be a scalar number", 1).item()
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    return number


def sym2(m: np.ndarray, name: str = "matrix") -> Sym2:
    """Entries (a, b, d) of a finite, exactly symmetric 2x2 array."""
    m = _read_floats(m, name)
    if m.shape != (2, 2):
        raise ValueError(f"{name} must be a 2x2 array, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError(f"{name} must be finite, got {[[a, b], [c, d]]}")
    if b != c:
        raise ValueError(f"{name} must be exactly symmetric, got {[[a, b], [c, d]]}")
    return a, b, d


def sym2_array(m: Sym2) -> np.ndarray:
    a, b, d = m
    return np.array([[a, b], [b, d]])


def sym2_spectrum(a: float, b: float, d: float) -> tuple[float, float, float]:
    """(smallest eigenvalue, largest eigenvalue, condition number) of [[a, b], [b, d]].

    With a >= d the eigenvalues are d - t and a + t, t = b^2 / (r + (a - d)/2)
    and r = hypot((a - d)/2, b): the gap is added to the diagonal instead of
    being recovered from (a + d)/2 +- r, so diagonal input is exact. Where b^2
    overflows or leaves the normal range, t is formed as b * (b / (r + (a -
    d)/2)), which scales.

    The condition number is the larger over the smaller absolute eigenvalue
    (the singular values): ``math.inf`` when the smaller is at most
    ``RANK_TOLERANCE`` times the larger (the zero matrix included), and NaN
    when an eigenvalue is NaN.
    """
    if a < d:
        a, d = d, a
    half_gap = 0.5 * (a - d)
    shift = 0.0
    if b:
        denom = math.hypot(half_gap, b) + half_gap
        square = b * b
        shift = square / denom if _MIN_NORMAL <= square < math.inf else b * (b / denom)
    lo, hi = d - shift, a + shift
    smax, smin = abs(hi), abs(lo)
    if smin > smax:
        smax, smin = smin, smax
    if smin > RANK_TOLERANCE * smax:  # false for a NaN, which must not divide
        return lo, hi, smax / smin
    return lo, hi, math.inf + smin + smax  # inf, or NaN from a NaN


def condition_number(m: np.ndarray) -> float:
    """Ratio of largest to smallest singular value of a symmetric 2x2 matrix.

    ``math.inf`` for rank-deficient input, by ``sym2_spectrum``. Raises
    ``ValueError`` unless ``m`` is a finite, exactly symmetric 2x2 array.
    """
    return sym2_spectrum(*sym2(m))[2]


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a via its Cholesky factor;
    ``ValueError`` unless ``a`` is a square matrix and ``b`` a vector or matrix
    with as many rows, ``ConditioningError`` unless ``a`` is positive definite."""
    a, b = _read_floats(a, "a"), _read_floats(b, "b")
    if a.ndim != 2 or len(a) != a.shape[1]:
        raise ValueError(f"a must be a square matrix, got shape {a.shape}")
    if b.ndim not in (1, 2) or len(b) != len(a):
        raise ValueError(f"b must have {len(a)} rows, got shape {b.shape}")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("matrix is not positive definite") from exc
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))
