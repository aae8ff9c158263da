import math

import numpy as np
import pytest

from sisid.estimators import ef_rls_step
from sisid.linalg import (
    ConditioningError,
    condition_number,
    covariance_update,
    solve_spd,
    sym2,
    sym2_array,
    sym2_condition,
    sym2_eigenvalues,
)

from _oracles import dense_inverse, eig2x2_sym, random_spd


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
    """Smallest eigenvalue of a symmetric 2x2 array, through ``sym2_eigenvalues``."""
    return sym2_eigenvalues(*sym2(m))[0]


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


def dense_update(p, alpha, rows):
    """(alpha P^-1 + rows^T rows)^-1 through explicit inverses."""
    rows = np.reshape(rows, (-1, 2))
    return dense_inverse(alpha * dense_inverse(p) + rows.T @ rows)


class TestInversionLemmaUpdate:
    """``covariance_update``, the closed-form 2x2 kernel that gives
    (alpha P^-1 + G + phi^T phi)^-1 without inverting P, against explicit
    inverses for updates of rank 0, 1 and 2."""

    def test_no_data_reduces_to_scaling(self):
        # rank 0: no refresh, no datum
        out = sym2_array(covariance_update((1.0, 0.0, 1.0), 0.5))
        assert np.allclose(out, 2.0 * np.eye(2))
        assert np.allclose(out, dense_update(np.eye(2), 0.5, np.zeros((0, 2))))

    def test_single_row_against_direct_inverse(self):
        # rank 1, alpha = 1: result must equal inv(I + e1 e1^T)
        out = sym2_array(covariance_update((1.0, 0.0, 1.0), 1.0, phi=(1.0, 0.0)))
        expected = dense_inverse(np.eye(2) + np.outer([1.0, 0.0], [1.0, 0.0]))
        assert np.allclose(out, expected, atol=1e-14)
        assert np.allclose(out, np.diag([0.5, 1.0]))

    def test_block_update_against_dense_inverse(self):
        # rank 2 refresh by a three-row block, then with one more datum on top
        rng = np.random.default_rng(5)
        p = random_spd(rng, 2)
        block = rng.standard_normal((3, 2))
        alpha = 0.9
        out = sym2_array(covariance_update(sym2(p), alpha, refresh=sym2(block.T @ block)))
        expected = dense_update(p, alpha, block)
        assert np.linalg.norm(out - expected) / np.linalg.norm(expected) < 1e-10
        phi = rng.standard_normal(2)
        out = sym2_array(
            covariance_update(sym2(p), alpha, refresh=sym2(block.T @ block), phi=tuple(phi))
        )
        expected = dense_update(p, alpha, np.vstack([block, phi]))
        assert np.linalg.norm(out - expected) / np.linalg.norm(expected) < 1e-10

    def test_inverse_identity_property(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_spd(rng, 2)
            block = rng.standard_normal((int(rng.integers(0, 11)), 2))
            refresh = sym2(block.T @ block) if len(block) else None
            phi = tuple(rng.standard_normal(2)) if rng.random() < 0.5 else None
            alpha = float(rng.uniform(0.2, 1.0))
            out = sym2_array(covariance_update(sym2(p), alpha, refresh=refresh, phi=phi))
            rows = np.vstack([block, np.reshape(phi or (), (-1, 2))])
            prod = out @ (alpha * dense_inverse(p) + rows.T @ rows)
            assert np.linalg.norm(prod - np.eye(2)) < 1e-8

    def test_result_is_symmetric(self):
        rng = np.random.default_rng(7)
        p = random_spd(rng, 2)
        out, _ = ef_rls_step((p, np.zeros(2)), rng.standard_normal((1, 2)), [0.3], 0.7)
        assert np.array_equal(out, out.T)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            covariance_update((1.0, 0.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            covariance_update((1.0, 0.0, 1.0), 1.5)
        with pytest.raises(ValueError):
            ef_rls_step((np.eye(2), np.zeros(2)), [[1.0, 0.0]], [0.0], 1.5)

    def test_indefinite_inner_matrix_raises_conditioning_error(self):
        p = (1.0, 2.0, 1.0)  # indefinite on purpose: alpha + phi P phi^T = -1
        with pytest.raises(ConditioningError):
            covariance_update(p, 1.0, phi=(1.0, -1.0))
        with pytest.raises(ConditioningError):
            ef_rls_step((sym2_array(p), np.zeros(2)), [[1.0, -1.0]], [0.0], 1.0)


class TestSym2ClosedForms:
    def test_eigenvalues_match_dense_solver(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = rng.standard_normal((2, 2))
            m = m + m.T
            assert np.allclose(sym2_eigenvalues(*sym2(m)), np.linalg.eigvalsh(m), atol=1e-12)

    def test_condition_matches_svd(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            rows = rng.standard_normal((int(rng.integers(2, 6)), 2))
            h = rows.T @ rows
            kappa = sym2_condition(*sym2(h))
            s = np.linalg.svd(h, compute_uv=False)
            assert kappa == pytest.approx(s[0] / s[-1], rel=1e-9)
            assert condition_number(h) == kappa

    def test_indefinite_uses_absolute_eigenvalues(self):
        assert sym2_condition(1.0, 0.0, -4.0) == pytest.approx(4.0)

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
            lo, hi = sym2_eigenvalues(a, b, d)
            # within 2 ulps of the scaled spectral norm, as cancellation in
            # the smaller eigenvalue is the same at every scale
            tol = 2 * math.ulp(max(abs(lo), abs(hi)) * scale)
            got_lo, got_hi = sym2_eigenvalues(a * scale, b * scale, d * scale)
            assert abs(got_lo - lo * scale) <= tol and abs(got_hi - hi * scale) <= tol
            guarded += not 2.0**-1022 <= (b * scale) * (b * scale) < math.inf
        assert guarded > 50

    def test_huge_off_diagonal_keeps_finite_eigenvalues(self):
        lo, hi = sym2_eigenvalues(1e200, 0.9e200, 1e200)
        assert lo == pytest.approx(1e199, rel=1e-15)
        assert hi == pytest.approx(1.9e200, rel=1e-15)

    def test_tiny_rank_one_is_singular(self):
        # b^2 = 1e-340 underflows; the shift must still cancel a exactly
        assert sym2_eigenvalues(1e-170, -1e-170, 1e-170) == (0.0, 2e-170)
        assert sym2_condition(1e-170, -1e-170, 1e-170) == math.inf

    def test_diagonal_is_exact(self):
        # no rounding through (a + d) / 2 +- r: the exact-tie rule depends on it
        a = 1.0 + math.sqrt(3.0) ** 2
        assert sym2_eigenvalues(a, 0.0, 2.0) == (2.0, a)
        assert sym2_condition(a, 0.0, 2.0) == a / 2.0


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
