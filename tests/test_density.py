import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from afcec.curves import CurveFit, builtin_family, fit_curve, select_orientation
from afcec.density import (
    RESID_VAR_FLOOR,
    FAdaptedParams,
    fadapted_cross_entropy,
    fadapted_log_density,
    segment_moments,
)
from afcec.errors import DegenerateCluster, NotPositiveDefinite, ZeroResidualWarning
from afcec.numerics import simpson_blocks_2d


def _simpson(f, lo, hi, n):
    """Composite Simpson estimate of the integral of f over [lo, hi]^2."""
    blocks = simpson_blocks_2d(lo, hi, lo, hi, n, n + 1)
    return sum(float(np.sum(w * f(x, y))) for x, y, w in blocks)


def _gaussian_h(x):
    """H of the linear family's best orientation: the plain Gaussian's
    cross-entropy, as the linear family cannot bend."""
    return select_orientation(x, builtin_family("linear", x.shape[1] - 1))[2]


def test_gaussian_log_density_hand_inverted_2x2():
    # N([1, -1], [[2, 1], [1, 2]]) as a linear-family density with axis 1
    # dependent: x1 = -1.5 + 0.5 x0 + N(0, 1.5), x0 ~ N(1, 2); det and inverse
    # of the 2x2 covariance worked by hand
    mean = np.array([1.0, -1.0])
    x = np.array([2.0, 0.5])
    dx = x - mean
    inv = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    expect = -np.log(2.0 * np.pi) - 0.5 * np.log(3.0) - 0.5 * dx @ inv @ dx
    curve = CurveFit(builtin_family("linear", 1), np.array([-1.5, 0.5]))
    p = FAdaptedParams(1, [1.0], [[2.0]], 1.5, curve)
    assert fadapted_log_density(p, x) == pytest.approx(expect, abs=1e-12)


def test_segment_moments_uses_1_over_n():
    x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [5.0, 5.0], [7.0, 5.0]])
    means, covs = segment_moments(x, np.array([0, 4, 6]))
    assert np.allclose(means, [[1.0, 1.0], [6.0, 5.0]])
    assert np.allclose(covs[0], np.eye(2))  # 1/n, not 1/(n-1)
    assert np.allclose(covs[1], [[1.0, 0.0], [0.0, 0.0]])


def test_gaussian_cross_entropy_translation_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 3))
    h0 = _gaussian_h(x)
    h1 = _gaussian_h(x + np.array([5.0, -7.0, 11.0]))
    assert h1 == pytest.approx(h0, abs=1e-10)


def _fadapted_from_coeffs(kind, coeffs, resid_var=1.0):
    fam = builtin_family(kind, 1)
    curve = fit_curve(
        np.column_stack([np.linspace(-3, 3, 30),
                         fam.design_matrix(np.linspace(-3, 3, 30)[:, None]) @ coeffs]),
        1,
        fam,
    )
    return FAdaptedParams(
        dependent_axis=1,
        mean_exp=np.zeros(1),
        cov_exp=np.eye(1),
        resid_var=resid_var,
        curve=curve,
    )


@pytest.mark.parametrize(
    "kind,coeffs",
    [
        ("linear", [0.0, 0.0]),
        ("linear", [0.0, 1.0]),
        ("quadratic", [0.0, 0.0, 0.125]),
        ("cubic", [0.0, 0.0, 0.0, 1.0 / 16.0]),
    ],
)
def test_fadapted_density_normalizes(kind, coeffs):
    # bending a unit Gaussian along a curve keeps total mass 1
    p = _fadapted_from_coeffs(kind, np.asarray(coeffs, dtype=float))
    f = lambda x0, x1: np.exp(
        fadapted_log_density(p, np.column_stack([np.ravel(x0), np.ravel(x1)]))
    ).reshape(np.shape(x0))
    total = _simpson(f, -12.0, 12.0, 400)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_fadapted_matches_factored_form():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((40, 3))
    fam = builtin_family("quadratic", 2)
    curve = fit_curve(pts, 2, fam)
    h, p = fadapted_cross_entropy(pts, 2, curve)
    got = fadapted_log_density(p, pts)
    resid = pts[:, 2] - curve.evaluate(pts[:, :2])
    expect = stats.multivariate_normal(p.mean_exp, p.cov_exp).logpdf(pts[:, :2]) + (
        -0.5 * np.log(2.0 * np.pi * p.resid_var) - 0.5 * resid * resid / p.resid_var
    )
    assert np.allclose(got, expect, atol=1e-12)
    assert fadapted_log_density(p, pts[7]) == pytest.approx(got[7], rel=1e-15)


def test_non_positive_definite_covariance_raises():
    fam = builtin_family("linear", 2)
    pts = np.random.default_rng(7).standard_normal((20, 3))
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    p = FAdaptedParams(0, np.zeros(2), bad, 1.0, fit_curve(pts, 0, fam))
    with pytest.raises(NotPositiveDefinite):
        fadapted_log_density(p, pts)


def test_fadapted_cross_entropy_equals_empirical_mean():
    rng = np.random.default_rng(5)
    for d, kind in ((2, "quadratic"), (3, "linear"), (4, "cubic")):
        pts = rng.standard_normal((100, d))
        pts[:, -1] += 0.5 * pts[:, 0] ** 2
        fam = builtin_family(kind, d - 1)
        curve = fit_curve(pts, d - 1, fam)
        h, p = fadapted_cross_entropy(pts, d - 1, curve)
        emp = -np.mean(fadapted_log_density(p, pts))
        assert h == pytest.approx(emp, abs=1e-11)


def test_fadapted_cross_entropy_zero_residual_warns():
    x0 = np.linspace(-1.0, 1.0, 20)
    pts = np.column_stack([x0, 2.0 * x0 + 0.5])
    fam = builtin_family("linear", 1)
    curve = fit_curve(pts, 1, fam)
    with pytest.warns(ZeroResidualWarning):
        h, p = fadapted_cross_entropy(pts, 1, curve)
    assert np.isfinite(h)
    assert p.resid_var > 0.0


@pytest.mark.parametrize("kind", ["quadratic", "cubic"])
def test_residual_floor_is_relative_to_the_dependent_spread(kind):
    # points exactly on a curve floor the residual variance at
    # RESID_VAR_FLOOR * var(x_j), so shrinking the data by s still moves H by
    # exactly 2 ln s, in the refit as in fadapted_cross_entropy, with one
    # warning per floored (cluster, axis)
    x0 = np.linspace(-1.0, 1.0, 40)
    pts = np.column_stack([x0, 0.3 + x0 - 0.5 * x0**2 + (0.2 * x0**3 if kind == "cubic" else 0.0)])
    fam = builtin_family(kind, 1)
    hs = []
    for s in (1.0, 1e-6):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            axis, curve, h, params = select_orientation(s * pts, fam)
            h_fresh, fresh = fadapted_cross_entropy(s * pts, axis, curve)
        assert axis == 1
        # axis 1 is floored once by the refit and once by the fresh evaluation
        assert [w.category for w in caught] == [ZeroResidualWarning] * 2
        var = np.var(s * pts[:, 1])
        assert params.resid_var == pytest.approx(RESID_VAR_FLOOR * var, rel=1e-12)
        assert h_fresh == pytest.approx(h, rel=1e-13)
        hs.append(h - 2.0 * np.log(s))
    assert hs[1] == pytest.approx(hs[0], abs=1e-12)


def test_fadapted_cross_entropy_too_few_points():
    fam = builtin_family("linear", 1)
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DegenerateCluster):
        fadapted_cross_entropy(pts, 1, fit_curve(pts, 1, fam))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_gaussian_cross_entropy_scale_shift(seed):
    # affine map x -> s*x + t shifts H by d*ln|s| (density Jacobian)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 2))
    s = 2.5
    h0 = _gaussian_h(x)
    h1 = _gaussian_h(s * x + 1.0)
    assert h1 == pytest.approx(h0 + 2.0 * np.log(s), abs=1e-9)
