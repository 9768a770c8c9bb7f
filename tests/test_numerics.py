import numpy as np
import pytest
from scipy import integrate

from afcec.errors import RankDeficient
from afcec.numerics import least_squares, ridge_solve, simpson_2d


def test_least_squares_matches_lstsq():
    rng = np.random.default_rng(3)
    for _ in range(20):
        design = rng.standard_normal((40, 5))
        target = rng.standard_normal(40)
        ours = least_squares(design, target)
        ref, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert np.allclose(ours, ref, atol=1e-8)


def test_least_squares_exact_polynomial_recovery():
    # well separated abscissae, exact coefficients back to near machine precision
    t = np.linspace(-2.0, 2.0, 30)
    design = np.column_stack([np.ones_like(t), t, t * t])
    coef = np.array([0.5, -1.25, 2.0])
    got = least_squares(design, design @ coef)
    assert np.allclose(got, coef, atol=1e-10)


def test_least_squares_duplicate_columns_still_optimal():
    # ridge keeps collinear designs solvable; the fit must still be optimal
    design = np.column_stack([np.ones(10), np.ones(10)])
    target = np.arange(10.0)
    got = least_squares(design, target)
    assert np.allclose(design @ got, np.full(10, target.mean()), atol=1e-6)


def test_least_squares_rank_deficient():
    with pytest.raises(RankDeficient):
        least_squares(np.zeros((10, 2)), np.arange(10.0))


def test_simpson_2d_exact_for_cubics():
    # composite Simpson integrates bivariate cubics exactly
    f = lambda x, y: 1.0 + x - 2.0 * y + x * y + x**3 - y**3 + x * y * y
    exact, _ = integrate.dblquad(lambda y, x: f(x, y), -1.0, 2.0, -2.0, 1.0)
    assert simpson_2d(f, -1.0, 2.0, -2.0, 1.0, n=2) == pytest.approx(exact, abs=1e-12)


def test_simpson_2d_matches_dblquad():
    f = lambda x, y: np.exp(-0.5 * (x * x + y * y)) / (2.0 * np.pi)
    ref, _ = integrate.dblquad(lambda y, x: f(x, y), -8.0, 8.0, -8.0, 8.0)
    assert simpson_2d(f, -8.0, 8.0, -8.0, 8.0, n=200) == pytest.approx(ref, abs=1e-10)


def test_simpson_2d_rejects_odd_n():
    with pytest.raises(ValueError):
        simpson_2d(lambda x, y: x + y, 0.0, 1.0, 0.0, 1.0, n=3)


def test_ridge_solve_flags_only_the_failing_system():
    rng = np.random.default_rng(4)
    design = rng.standard_normal((30, 3))
    target = rng.standard_normal(30)
    gram = np.stack([design.T @ design, np.zeros((3, 3)), 2.0 * design.T @ design])
    rhs = np.stack([design.T @ target, np.ones(3), 2.0 * design.T @ target])
    coeffs, ok = ridge_solve(gram, rhs)
    assert ok.tolist() == [True, False, True]
    assert np.array_equal(coeffs[1], np.zeros(3))
    want = least_squares(design, target)
    np.testing.assert_allclose(coeffs[0], want, rtol=1e-12)
    np.testing.assert_allclose(coeffs[2], want, rtol=1e-12)
