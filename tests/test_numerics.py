import numpy as np
import pytest
from scipy import integrate

from afcec.errors import RankDeficient
from afcec.numerics import least_squares, simpson_blocks_2d


def _simpson(f, xlo, xhi, ylo, yhi, n, rows):
    """Composite Simpson estimate of the integral of f over a box, summed over
    blocks of `rows` x-nodes."""
    blocks = simpson_blocks_2d(xlo, xhi, ylo, yhi, n, rows)
    return sum(float(np.sum(w * f(x, y))) for x, y, w in blocks)


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
    # a collinear design still gets an optimal fit
    design = np.column_stack([np.ones(10), np.ones(10)])
    target = np.arange(10.0)
    got = least_squares(design, target)
    assert np.allclose(design @ got, np.full(10, target.mean()), atol=1e-6)


def test_least_squares_rank_deficient():
    with pytest.raises(RankDeficient):
        least_squares(np.zeros((10, 2)), np.arange(10.0))


def test_simpson_2d_exact_for_cubics():
    # composite Simpson integrates bivariate cubics exactly, one node row per
    # block as in one block
    f = lambda x, y: 1.0 + x - 2.0 * y + x * y + x**3 - y**3 + x * y * y
    exact, _ = integrate.dblquad(lambda y, x: f(x, y), -1.0, 2.0, -2.0, 1.0)
    for rows in (1, 3):
        assert _simpson(f, -1.0, 2.0, -2.0, 1.0, 2, rows) == pytest.approx(exact, abs=1e-12)


def test_simpson_2d_matches_dblquad():
    f = lambda x, y: np.exp(-0.5 * (x * x + y * y)) / (2.0 * np.pi)
    ref, _ = integrate.dblquad(lambda y, x: f(x, y), -8.0, 8.0, -8.0, 8.0)
    assert _simpson(f, -8.0, 8.0, -8.0, 8.0, 200, 32) == pytest.approx(ref, abs=1e-10)


def test_simpson_2d_rejects_odd_n():
    # checked on the call, before any block is drawn
    with pytest.raises(ValueError):
        simpson_blocks_2d(0.0, 1.0, 0.0, 1.0, 3, 4)

