import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from afcec.curves import axis_design, builtin_family, fit_curve
from afcec.density import (
    FAdaptedParams,
    GaussianParams,
    fadapted_cross_entropy,
    fadapted_log_density,
    gaussian_cross_entropy,
    gaussian_log_density,
    mean_and_cov,
)
from afcec.errors import DegenerateCluster, NotPositiveDefinite, ZeroResidualWarning
from afcec.numerics import simpson_2d


def _random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.5 * d * np.eye(d)


def test_gaussian_log_density_matches_scipy():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 5):
        mean = rng.standard_normal(d)
        cov = _random_spd(rng, d)
        pts = rng.standard_normal((50, d))
        ours = gaussian_log_density(GaussianParams(mean, cov), pts)
        ref = stats.multivariate_normal(mean, cov).logpdf(pts)
        assert np.allclose(ours, ref, atol=1e-10)


def test_gaussian_log_density_hand_inverted_2x2():
    # det and inverse worked by hand for [[2,1],[1,2]]
    mean = np.array([1.0, -1.0])
    cov = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = np.array([2.0, 0.5])
    dx = x - mean
    inv = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    expect = -np.log(2.0 * np.pi) - 0.5 * np.log(3.0) - 0.5 * dx @ inv @ dx
    got = gaussian_log_density(GaussianParams(mean, cov), x)
    assert got == pytest.approx(expect, abs=1e-12)


def test_gaussian_log_density_single_and_batch_agree():
    rng = np.random.default_rng(1)
    p = GaussianParams(rng.standard_normal(3), _random_spd(rng, 3))
    pts = rng.standard_normal((4, 3))
    batch = gaussian_log_density(p, pts)
    singles = [gaussian_log_density(p, row) for row in pts]
    assert np.allclose(batch, singles)


def test_mean_and_cov_uses_1_over_n():
    x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    mean, cov = mean_and_cov(x)
    assert np.allclose(mean, [1.0, 1.0])
    assert np.allclose(cov, np.eye(2))  # 1/n, not 1/(n-1)


def test_gaussian_cross_entropy_equals_empirical_mean():
    # at the fitted parameters the closed form is the empirical mean exactly
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        x = rng.standard_normal((80, d)) @ np.linalg.cholesky(_random_spd(rng, d)).T + rng.standard_normal(d)
        h, params = gaussian_cross_entropy(x)
        emp = -np.mean(gaussian_log_density(params, x))
        assert h == pytest.approx(emp, abs=1e-11)


def test_gaussian_cross_entropy_translation_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 3))
    h0, _ = gaussian_cross_entropy(x)
    h1, _ = gaussian_cross_entropy(x + np.array([5.0, -7.0, 11.0]))
    assert h1 == pytest.approx(h0, abs=1e-10)


def test_gaussian_cross_entropy_too_few_points():
    with pytest.raises(DegenerateCluster):
        gaussian_cross_entropy(np.zeros((3, 3)))


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
    total = simpson_2d(f, -12.0, 12.0, -12.0, 12.0, n=400)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_fadapted_matches_factored_form():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((40, 3))
    fam = builtin_family("quadratic", 2)
    curve = fit_curve(pts, 2, fam)
    h, p = fadapted_cross_entropy(pts, 2, curve)
    got = fadapted_log_density(p, pts)
    resid = pts[:, 2] - curve.evaluate(pts[:, :2])
    expect = gaussian_log_density(GaussianParams(p.mean_exp, p.cov_exp), pts[:, :2]) + (
        -0.5 * np.log(2.0 * np.pi * p.resid_var) - 0.5 * resid * resid / p.resid_var
    )
    assert np.allclose(got, expect, atol=1e-12)


def test_fadapted_log_density_from_given_design_into_row():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((50, 3))
    fam = builtin_family("cubic", 2)
    _, p = fadapted_cross_entropy(pts, 0, fit_curve(pts, 0, fam))
    row = np.empty(len(pts))
    got = fadapted_log_density(p, pts, axis_design(pts, 0, fam), out=row)
    assert got is row
    assert np.array_equal(row, fadapted_log_density(p, pts))
    assert fadapted_log_density(p, pts[7]) == pytest.approx(row[7], rel=1e-15)


def test_non_positive_definite_covariance_raises():
    fam = builtin_family("linear", 2)
    pts = np.random.default_rng(7).standard_normal((20, 3))
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    p = FAdaptedParams(0, np.zeros(2), bad, 1.0, fit_curve(pts, 0, fam))
    with pytest.raises(NotPositiveDefinite):
        fadapted_log_density(p, pts)
    with pytest.raises(NotPositiveDefinite):
        fadapted_log_density(p, pts, axis_design(pts, 0, fam), out=np.empty(len(pts)))
    with pytest.raises(NotPositiveDefinite):
        gaussian_log_density(GaussianParams(np.zeros(2), bad), pts[:, 1:])


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
    h0, _ = gaussian_cross_entropy(x)
    h1, _ = gaussian_cross_entropy(s * x + 1.0)
    assert h1 == pytest.approx(h0 + 2.0 * np.log(s), abs=1e-9)
