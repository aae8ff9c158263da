import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sisid.linalg import (
    ConditioningError,
    condition_number,
    solve_spd,
    sym2,
    sym2_spectrum,
)

from _oracles import dense_inverse, eig2x2_sym, random_spd, reference_sym2_spectrum


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(2)) == 1.0

    def test_diagonal_ratio(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_rank_one_outer_product_is_infinite(self):
        a = np.array([1.0 / 3.0, -1.0])
        assert condition_number(np.outer(a, a)) == math.inf

    def test_zero_matrix_is_infinite(self):
        assert condition_number(np.zeros((2, 2))) == math.inf

    def test_non_square_rejected(self):
        for shape in ((3, 2), (2, 3), (3, 3), (2,)):
            with pytest.raises(ValueError, match="2x2"):
                condition_number(np.ones(shape))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            condition_number(np.zeros((0, 2)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            m = m + m.T
            c = float(rng.uniform(1e-6, 1e6))
            k1, k2 = condition_number(m), condition_number(c * m)
            if math.isinf(k1):
                assert math.isinf(k2)
            else:
                assert k2 == pytest.approx(k1, rel=1e-9)

    def test_at_least_one_when_finite(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            assert condition_number(m + m.T) >= 1.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            condition_number(np.array([[3.0, 1.0], [0.0, 2.0]]))
        # symmetric only to rounding is still asymmetric
        with pytest.raises(ValueError, match="symmetric"):
            condition_number(np.array([[1.0, 0.1], [0.1 + 2.0**-55, 1.0]]))


def min_eigenvalue_sym(m):
    """Smallest eigenvalue of a symmetric 2x2 array, through ``sym2_spectrum``."""
    return sym2_spectrum(*sym2(m))[0]


class TestMinEigenvalueSym:
    def test_diagonal(self):
        assert min_eigenvalue_sym(np.diag([2.0, 5.0])) == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert min_eigenvalue_sym(np.zeros((2, 2))) == 0.0

    def test_equilibrium_outer_product(self):
        # rank-1 structure: (2/3)^2 * a a^T has eigenvalues {0, (2/3)^2 |a|^2}
        a = np.array([1.0 / 3.0, -1.0])
        m = (2.0 / 3.0) ** 2 * np.outer(a, a)
        lo, hi = eig2x2_sym(m)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert min_eigenvalue_sym(m) == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx((2.0 / 3.0) ** 2 * (a @ a))

    def test_matches_quadratic_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = rng.standard_normal((2, 2))
            m = m + m.T
            lo, _ = eig2x2_sym(m)
            assert min_eigenvalue_sym(m) == pytest.approx(lo, abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            min_eigenvalue_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sums_of_outer_products_are_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            rows = rng.standard_normal((rng.integers(1, 8), 2))
            h = rows.T @ rows
            assert min_eigenvalue_sym(h) >= -1e-12


# Entries where the closed form's branches and guards act: signed zeros,
# subnormals, the ends of the normal range, and non-finite values.
_EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-300, -1e-300, 1e-170, 1e300, -1e300,
    1e200, 1.7976931348623157e308, math.inf, -math.inf, math.nan, 1.0, -1.0,
])
_ENTRIES = st.one_of(_EDGES, st.floats(allow_nan=True, allow_infinity=True))


def spectrum(m):
    """``sym2_spectrum`` of a symmetric 2x2 array."""
    return sym2_spectrum(*sym2(m))


class TestSym2ClosedForms:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(a=_ENTRIES, b=_ENTRIES, d=_ENTRIES)
    def test_equals_the_two_step_composition(self, a, b, d):
        # the same operations in the same order: equal to the last bit and sign
        assert repr(sym2_spectrum(a, b, d)) == repr(reference_sym2_spectrum(a, b, d))

    def test_eigenvalues_match_dense_solver(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = rng.standard_normal((2, 2))
            m = m + m.T
            assert np.allclose(spectrum(m)[:2], np.linalg.eigvalsh(m), atol=1e-12)

    def test_condition_matches_svd(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            rows = rng.standard_normal((int(rng.integers(2, 6)), 2))
            h = rows.T @ rows
            kappa = spectrum(h)[2]
            s = np.linalg.svd(h, compute_uv=False)
            assert kappa == pytest.approx(s[0] / s[-1], rel=1e-9)
            assert condition_number(h) == kappa

    def test_indefinite_uses_absolute_eigenvalues(self):
        assert sym2_spectrum(1.0, 0.0, -4.0) == (-4.0, 1.0, 4.0)

    def test_a_nan_gives_nan(self):
        # a NaN beside a zero must not reach the division
        for entries in ((math.nan, 0.0, 0.0), (0.0, 0.0, math.nan), (0.0, math.nan, 0.0)):
            assert math.isnan(sym2_spectrum(*entries)[2])

    def test_rank_deficient_and_infinite_eigenvalues_are_infinite(self):
        for entries in ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1e-13, 0.0, 1.0), (1.0, 0.0, math.inf),
                        (math.inf, 0.0, math.inf), (-math.inf, 0.0, 1.0)):
            assert sym2_spectrum(*entries)[2] == math.inf

    def test_non_finite_entries_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                condition_number(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("exponent", [500, -500])
    def test_eigenvalues_scale_by_powers_of_two(self, exponent):
        # scaled by 2^500, b^2 overflows for |b| above 2^12; by 2^-500 it
        # leaves the normal range for |b| below 2^-11
        rng = np.random.default_rng(15)
        scale = 2.0**exponent
        guarded = 0
        for _ in range(500):
            a, b, d = (float(rng.standard_normal()) * 10.0 ** rng.uniform(-6, 6) for _ in range(3))
            lo, hi, _ = sym2_spectrum(a, b, d)
            # within 2 ulps of the scaled spectral norm, as cancellation in
            # the smaller eigenvalue is the same at every scale
            tol = 2 * math.ulp(max(abs(lo), abs(hi)) * scale)
            got_lo, got_hi, _ = sym2_spectrum(a * scale, b * scale, d * scale)
            assert abs(got_lo - lo * scale) <= tol and abs(got_hi - hi * scale) <= tol
            guarded += not 2.0**-1022 <= (b * scale) * (b * scale) < math.inf
        assert guarded > 50

    def test_huge_off_diagonal_keeps_finite_eigenvalues(self):
        lo, hi, _ = sym2_spectrum(1e200, 0.9e200, 1e200)
        assert lo == pytest.approx(1e199, rel=1e-15)
        assert hi == pytest.approx(1.9e200, rel=1e-15)

    def test_tiny_rank_one_is_singular(self):
        # b^2 = 1e-340 underflows; the shift must still cancel a exactly
        assert sym2_spectrum(1e-170, -1e-170, 1e-170) == (0.0, 2e-170, math.inf)

    def test_diagonal_is_exact(self):
        # no rounding through (a + d) / 2 +- r: the exact-tie rule depends on it
        a = 1.0 + math.sqrt(3.0) ** 2
        assert sym2_spectrum(a, 0.0, 2.0) == (2.0, a, a / 2.0)


class TestSolveSpd:
    def test_identity(self):
        assert np.allclose(solve_spd(np.eye(2), [3.0, 4.0]), [3.0, 4.0])

    def test_diagonal(self):
        assert np.allclose(solve_spd(np.diag([2.0, 4.0]), [2.0, 8.0]), [1.0, 2.0])

    def test_against_dense_inverse(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 4)
        b = rng.standard_normal(4)
        x = solve_spd(a, b)
        assert np.linalg.norm(x - dense_inverse(a) @ b) < 1e-10

    def test_residual_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = random_spd(rng, 4)
            b = rng.standard_normal(4)
            x = solve_spd(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_not_positive_definite_raises(self):
        with pytest.raises(ConditioningError):
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])
