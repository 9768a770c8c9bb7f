import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from afcec.curves import CurveFit, builtin_family, fit_curve, select_orientation
from afcec.density import (
    REG_BASE,
    REG_MAX,
    RESID_VAR_FLOOR,
    FAdaptedParams,
    _cholesky_reg,
    fadapted_cross_entropy,
    fadapted_log_density,
    param_weights,
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


def test_cross_entropy_covariance_uses_1_over_n():
    # x0 and x1 at the corners of a square: 1/n gives the identity, 1/(n-1) 4/3
    x = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [2.0, 2.0, 0.0]])
    _, params = fadapted_cross_entropy(x, 2, CurveFit(builtin_family("linear", 2), np.zeros(3)))
    assert np.array_equal(params.mean_exp, [1.0, 1.0])
    assert np.array_equal(params.cov_exp, np.eye(2))
    assert params.resid_var == 0.5
    pts = np.random.default_rng(8).standard_normal((50, 3)) + [1.0, -2.0, 3.0]
    curve = fit_curve(pts, 0, builtin_family("quadratic", 2))
    _, params = fadapted_cross_entropy(pts, 0, curve)
    np.testing.assert_allclose(params.mean_exp, pts[:, 1:].mean(axis=0), rtol=1e-14)
    np.testing.assert_allclose(params.cov_exp, np.cov(pts[:, 1:].T, bias=True), rtol=1e-13)


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


@pytest.mark.parametrize(
    "bad",
    [
        {"resid_var": float("nan")},
        {"resid_var": float("inf")},
        {"resid_var": 0.0},
        {"resid_var": -1.0},
        {"mean_exp": [float("nan")]},
        {"mean_exp": [float("inf")]},
        {"cov_exp": [[float("nan")]]},
        {"cov_exp": [[-float("inf")]]},
        {"mean_exp": [[0.0]]},
        {"mean_exp": [0.0, 0.0]},
        {"cov_exp": [1.0]},
        {"cov_exp": [[1.0, 0.0]]},
        # index -1 would score the constant column as x_j
        {"dependent_axis": -1},
        {"dependent_axis": 2},
        {"dependent_axis": 5},
        {"dependent_axis": 1.5},
        {"curve": None},
        pytest.param({"curve": CurveFit(builtin_family("quadratic", 2), np.zeros(6))},
                     id="curve-over-2-coordinates"),
        {"mean_exp": [0.0, 0.0], "cov_exp": [[1.0, 0.0], [0.0, 1.0]]},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_fadapted_params_rejects_bad_values(bad):
    good = {"dependent_axis": 1, "mean_exp": [0.0], "cov_exp": [[1.0]], "resid_var": 1.0,
            "curve": CurveFit(builtin_family("quadratic", 1), np.zeros(3))}
    FAdaptedParams(**good)
    with pytest.raises(ValueError):
        FAdaptedParams(**{**good, **bad})


def test_non_positive_definite_covariance_raises():
    fam = builtin_family("linear", 2)
    pts = np.random.default_rng(7).standard_normal((20, 3))
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    p = FAdaptedParams(0, np.zeros(2), bad, 1.0, fit_curve(pts, 0, fam))
    with pytest.raises(NotPositiveDefinite):
        fadapted_log_density(p, pts)


def test_param_weights_names_the_clusters_without_a_factor():
    fam = builtin_family("linear", 2)
    indefinite = [[1.0, 2.0], [2.0, 1.0]]
    cov = np.array([np.eye(2), indefinite, 2.0 * np.eye(2), np.zeros((2, 2))])
    with pytest.raises(NotPositiveDefinite, match=r"cluster\(s\) \[1, 3\]"):
        param_weights(fam, np.array([0, 1, 2, 0]), np.zeros((4, 2)), cov, np.ones(4),
                      np.zeros((4, fam.size)))


def _cholesky_ladder(cov):
    """One matrix's factor as the regularization ladder was first written,
    one matrix at a time: (low, used), or None where no rung factors it."""
    try:
        return np.linalg.cholesky(cov), cov
    except np.linalg.LinAlgError:
        pass
    scale = np.trace(cov) / cov.shape[0]
    if scale > 0:
        eps = REG_BASE * scale
        while eps <= REG_MAX * scale:
            reg = cov + eps * np.eye(cov.shape[0])
            try:
                return np.linalg.cholesky(reg), reg
            except np.linalg.LinAlgError:
                eps *= 10.0
    return None


def _planted(kind, m, rng):
    """An m x m symmetric matrix of the given kind at a random scale."""
    s = 10.0 ** rng.uniform(-3.0, 3.0)
    a = rng.standard_normal((m, m)) * s
    low_rank = a[:, : m - 1] @ a[:, : m - 1].T
    return {
        "spd": a @ a.T + s * s * np.eye(m),
        "zero": np.zeros((m, m)),
        "rank1": a[:, :1] @ a[:, :1].T,
        "singular": low_rank,
        "near-singular": low_rank + 1e-17 * s * s * np.eye(m),
        "indefinite": a @ a.T - 2.0 * m * s * s * np.eye(m),
    }[kind]


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    shape=st.sampled_from([(), (1,), (4,), (2, 3)]),
    kinds=st.lists(
        st.sampled_from(["spd", "zero", "rank1", "singular", "near-singular", "indefinite"]),
        min_size=6, max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_stack_factors_each_matrix_as_alone_and_as_the_ladder(m, shape, kinds, seed):
    rng = np.random.default_rng(seed)
    kinds = kinds[: math.prod(shape)]
    cov = np.array([_planted(kind, m, rng) for kind in kinds]).reshape(*shape, m, m)
    for ladder in (True, False):
        low, used, ok = _cholesky_reg(cov, ladder)
        assert low.shape == used.shape == cov.shape and ok.shape == shape
        if set(kinds) == {"spd"}:
            assert used is cov  # one LAPACK call, no copy
        for i in np.ndindex(shape):
            a = cov[i]
            alone = _cholesky_reg(a, ladder)
            assert low[i].tobytes() == alone[0].tobytes()
            assert used[i].tobytes() == alone[1].tobytes()
            assert ok[i] == alone[2]
            want = _cholesky_ladder(a)
            if not ladder and want is not None and want[1] is not a:
                want = None  # a factor only up the ladder
            if want is None:
                assert not ok[i] and not low[i].any() and used[i].tobytes() == a.tobytes()
            else:
                assert ok[i]
                assert low[i].tobytes() == want[0].tobytes()
                assert used[i].tobytes() == want[1].tobytes()


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
