from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcec import curves
from afcec.curves import (
    BUILTIN_KINDS,
    FunctionFamily,
    builtin_family,
    fit_curve,
    select_orientation,
)
from afcec.density import fadapted_cross_entropy
from afcec.errors import DegenerateCluster, RankDeficient, ZeroResidualWarning


def test_builtin_family_sizes():
    # constant + p projections [+ deg-2 monomials [+ univariate cubes]]
    assert builtin_family("linear", 1).size == 2
    assert builtin_family("linear", 3).size == 4
    assert builtin_family("quadratic", 1).size == 3
    assert builtin_family("quadratic", 2).size == 6  # 1 + 2 + 3
    assert builtin_family("cubic", 1).size == 4
    assert builtin_family("cubic", 2).size == 8  # quadratic(2) + x0^3 + x1^3


def test_builtin_family_rejects_unknown_kind():
    with pytest.raises(ValueError):
        builtin_family("quartic", 1)


def test_family_requires_constant_and_projections():
    with pytest.raises(ValueError):
        FunctionFamily(input_dim=1, exponents=[[1]])
    with pytest.raises(ValueError):
        FunctionFamily(input_dim=1, exponents=[[1], [0]])
    with pytest.raises(ValueError):
        FunctionFamily(input_dim=2, exponents=[[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        FunctionFamily(input_dim=2, exponents=[[0, 0], [1, 0], [1, 1]])
    # every divisor of every monomial, and no monomial twice
    with pytest.raises(ValueError, match="divisor"):
        FunctionFamily(input_dim=2, exponents=[[0, 0], [1, 0], [0, 1], [2, 1]])
    with pytest.raises(ValueError, match="divisor"):
        FunctionFamily(input_dim=1, exponents=[[0], [1], [3]])
    with pytest.raises(ValueError, match="twice"):
        FunctionFamily(input_dim=1, exponents=[[0], [1], [2], [2]])
    fam = FunctionFamily(input_dim=2, exponents=[[0, 0], [0, 1], [1, 0], [1, 1]])
    assert fam.size == 4


def test_family_rejects_malformed_exponents():
    with pytest.raises(ValueError):
        FunctionFamily(input_dim=0, exponents=[[]])
    with pytest.raises(ValueError):
        FunctionFamily(input_dim=2, exponents=[[0], [1]])
    with pytest.raises(ValueError):
        FunctionFamily(input_dim=1, exponents=[[0], [1], [-1]])
    with pytest.raises(ValueError):
        FunctionFamily(input_dim=1, exponents=np.zeros((0, 1), dtype=int))
    # int() would read each of these as the exponents of a valid family
    for exponents in ([[0], [1], [2.7]], [["0"], ["1"], ["2"]], [[False], [True]]):
        with pytest.raises(ValueError, match="integers"):
            FunctionFamily(input_dim=1, exponents=exponents)


def test_builtin_family_rows():
    assert builtin_family("linear", 1).exponents.tolist() == [[0], [1]]
    assert builtin_family("cubic", 1).exponents.tolist() == [[0], [1], [2], [3]]
    assert builtin_family("cubic", 2).exponents.tolist() == [
        [0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [3, 0], [0, 3]
    ]
    quad3 = builtin_family("quadratic", 3).exponents.tolist()
    assert quad3[4:] == [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(BUILTIN_KINDS), p=st.integers(min_value=1, max_value=6))
def test_every_builtin_family_is_closed_under_divisors(kind, p):
    # construction checks the contract, for the family and for the refit's
    # union family alike; the fold-back then finds every quotient
    fam = builtin_family(kind, p)
    lay = fam._refit_layout
    assert lay.union.input_dim == p + 1
    e = fam.exponents
    for b, a in np.ndindex(len(e), len(e)):
        if (e[a] <= e[b]).all():
            assert lay.binom[b, a] >= 1
            assert e[lay.quot[b, a]].tolist() == (e[b] - e[a]).tolist()
        else:
            assert lay.binom[b, a] == 0


def test_design_matrix_shapes():
    fam = builtin_family("quadratic", 2)
    xe = np.arange(10.0).reshape(5, 2)
    dm = fam.design_matrix(xe)
    assert dm.shape == (5, 6)
    assert np.allclose(dm[:, 0], 1.0)
    assert np.allclose(dm[:, 1], xe[:, 0])
    single = fam.design_matrix(xe[0])
    assert single.shape == (1, 6)


def test_monomial_basis_values():
    fam = FunctionFamily(
        input_dim=2, exponents=[[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [2, 1]]
    )
    pts = np.array([[2.0, 3.0], [1.0, -1.0]])
    assert fam.design_matrix(pts)[:, 5].tolist() == [12.0, -1.0]


def _pow_reference(e, xe):
    """The float-pow design: column b is prod(xe ** exponents[b])."""
    return np.column_stack([np.prod(xe ** row.astype(float), axis=1) for row in e])


def _exact_reference(e, xe):
    """Each monomial in exact rational arithmetic, rounded once to a float."""
    return np.array([
        [float(np.prod([Fraction(v) ** int(k) for v, k in zip(row, ex)])) for ex in e]
        for row in xe
    ])


_magnitudes = st.floats(min_value=1e-6, max_value=1e6)
_coords = st.builds(lambda m, neg: -m if neg else m, _magnitudes, st.booleans())


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    data=st.data(),
    input_dim=st.integers(min_value=1, max_value=3),
)
def test_design_matrix_matches_pow_reference(kind, data, input_dim):
    fam = builtin_family(kind, input_dim)
    n = data.draw(st.integers(min_value=1, max_value=8))
    xe = np.array(data.draw(st.lists(
        st.lists(_coords, min_size=input_dim, max_size=input_dim), min_size=n, max_size=n
    )))
    dm = fam.design_matrix(xe)
    assert dm.shape == (n, fam.size)
    low = fam.exponents.max(axis=1) <= 2
    # degree <= 2 columns are single products: exactly the rounded monomial
    exact = _exact_reference(fam.exponents, xe)
    assert np.array_equal(dm[:, low], exact[:, low])
    assert np.allclose(dm[:, ~low], exact[:, ~low], rtol=1e-15, atol=0)
    # float pow is not correctly rounded everywhere (vectorized pow can be
    # off by an ulp), so it agrees to rounding only
    assert np.allclose(dm, _pow_reference(fam.exponents, xe), rtol=1e-15, atol=0)


def _powers_reference(e, xe):
    """The design from each coordinate's powers x, x*x, x*x*x, ..., every
    column the product of its powers in coordinate order."""
    powers = []
    for i, top in enumerate(e.max(axis=0).tolist()):
        pw = [None, xe[:, i]]
        for _ in range(2, top + 1):
            pw.append(pw[-1] * xe[:, i])
        powers.append(pw)
    out = np.empty((len(xe), len(e)))
    for col, row in zip(out.T, e.tolist()):
        factors = [powers[i][k] for i, k in enumerate(row) if k]
        col[...] = factors[0] if factors else 1.0
        for f in factors[1:]:
            col *= f
    return out


_MIXED_CUBIC = FunctionFamily(2, [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [2, 1]])
_UNIONS = [
    builtin_family(kind, d - 1)._refit_layout.union for kind in BUILTIN_KINDS for d in (2, 3, 4, 5)
] + [_MIXED_CUBIC._refit_layout.union]


def _spread_points(fam):
    rng = np.random.default_rng(fam.size)
    # magnitudes over 1e-4 .. 1e4, so a change of multiplication order shows
    return rng.normal(size=(300, fam.input_dim)) * 10.0 ** rng.uniform(-4, 4, (300, fam.input_dim))


@pytest.mark.parametrize(
    "fam",
    _UNIONS
    + [
        _MIXED_CUBIC,  # x0 ** 2 * x1 is (x0 * x0) * x1, not x0 * (x0 * x1)
        # coordinates away from columns 1..d, and a product of three coordinates
        FunctionFamily(3, [[0, 0, 0], [1, 1, 1], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1],
                           [0, 1, 0], [1, 0, 0]]),
    ],
)
def test_design_matrix_equals_the_powers_design_bit_for_bit(fam):
    xe = _spread_points(fam)
    assert np.array_equal(fam.design_matrix(xe), _powers_reference(fam.exponents, xe))


@pytest.mark.parametrize("union", _UNIONS)
def test_refit_design_fill_equals_the_powers_design_bit_for_bit(union):
    # the refit writes its centred coordinates into columns 1..d and fills the
    # other columns around them
    d = union.input_dim
    xe = _spread_points(union)
    phi = np.full((len(xe), union.size), np.nan)
    phi[:, 1 : d + 1] = xe
    union._fill_design(phi)
    assert np.array_equal(phi, _powers_reference(union.exponents, xe))


def test_fit_curve_recovers_polynomial():
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-2.0, 2.0, 60)
    y = 0.3 - 1.1 * x0 + 0.5 * x0 * x0
    pts = np.column_stack([x0, y])
    fam = builtin_family("quadratic", 1)
    fit = fit_curve(pts, 1, fam)
    assert np.allclose(fit.coeffs, [0.3, -1.1, 0.5], atol=1e-9)
    assert fit.sse < 1e-18
    assert np.allclose(fit.evaluate(x0[:, None]), y, atol=1e-9)


def test_fit_curve_sse_is_grid_optimal():
    # brute force over a coefficient grid cannot beat the normal equations
    rng = np.random.default_rng(8)
    x0 = rng.uniform(-1.0, 1.0, 40)
    y = 0.2 + 0.7 * x0 + rng.normal(0.0, 0.3, 40)
    pts = np.column_stack([x0, y])
    fit = fit_curve(pts, 1, builtin_family("linear", 1))
    for c0 in np.linspace(-1.0, 1.0, 41):
        for c1 in np.linspace(-1.0, 2.0, 61):
            sse = float(np.sum((y - c0 - c1 * x0) ** 2))
            assert fit.sse <= sse + 1e-9


def test_fit_curve_sse_monotone_in_family_nesting():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((50, 2))
    sses = [
        fit_curve(pts, 1, builtin_family(kind, 1)).sse
        for kind in ("linear", "quadratic", "cubic")
    ]
    assert sses[0] >= sses[1] - 1e-12
    assert sses[1] >= sses[2] - 1e-12


def test_fit_curve_too_few_points():
    pts = np.array([[0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(RankDeficient):
        fit_curve(pts, 1, builtin_family("quadratic", 1))


def test_select_orientation_prefers_functional_axis():
    # sideways parabola x0 = x1^2: only axis 0 is a function of the rest
    rng = np.random.default_rng(10)
    x1 = rng.uniform(-2.0, 2.0, 300)
    x0 = x1 * x1 + rng.normal(0.0, 0.01, 300)
    pts = np.column_stack([x0, x1])
    axis, curve, h, params = select_orientation(pts, builtin_family("quadratic", 1))
    assert axis == 0
    assert params.dependent_axis == 0
    coef = np.zeros(3)
    coef[: len(curve.coeffs)] = curve.coeffs
    assert np.allclose(coef, [0.0, 0.0, 1.0], atol=0.01)


def test_select_orientation_tie_breaks_low_axis():
    # exchange-symmetric cloud: both axes score identically, axis 0 wins
    rng = np.random.default_rng(11)
    a = rng.standard_normal(200)
    b = rng.standard_normal(200)
    pts = np.concatenate([np.column_stack([a, b]), np.column_stack([b, a])])
    axis, *_ = select_orientation(pts, builtin_family("linear", 1))
    assert axis == 0


def test_select_orientation_degenerate_cluster():
    pts = np.zeros((2, 3))
    with pytest.raises(DegenerateCluster):
        select_orientation(pts, builtin_family("quadratic", 2))


@pytest.mark.parametrize("kind,d", [("quadratic", 2), ("cubic", 3)])
def test_select_orientation_h_equals_from_scratch(kind, d):
    # select_orientation reads the SSE from the centred Gram's Schur
    # complement; a fresh evaluation of the returned curve's residuals must
    # give the same H and residual variance to rounding
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((200, d)) * [1.0, 3.0, 0.5][:d] + 2.0
    pts[:, -1] += 0.4 * pts[:, 0] ** 2
    axis, curve, h, params = select_orientation(pts, builtin_family(kind, d - 1))
    h_fresh, p_fresh = fadapted_cross_entropy(pts, axis, curve)
    assert h == pytest.approx(h_fresh, rel=1e-13, abs=0)
    assert params.resid_var == pytest.approx(p_fresh.resid_var, rel=1e-13, abs=0)


@pytest.mark.parametrize("noise", [1e-5, 1e-6])
@pytest.mark.parametrize("kind,d", [("quadratic", 2), ("cubic", 2), ("cubic", 3)])
def test_low_noise_fit_h_matches_explicit_residuals(kind, d, noise):
    # the curve explains all but about noise**2 of the dependent spread, where
    # the Gram's Schur complement cancels to up to 1e-3 relative; the refit
    # sums those SSEs from explicit residuals, so H and the residual variance
    # agree with a fresh evaluation to the bench checks' 1e-9
    rng = np.random.default_rng(5)
    xe = rng.uniform(-1.0, 1.0, (300, d - 1))
    y = 0.3 + xe.sum(axis=1) - 0.5 * (xe**2).sum(axis=1)
    if kind == "cubic":
        y += 0.2 * (xe**3).sum(axis=1)
    pts = np.column_stack([xe, y + noise * rng.standard_normal(300)])
    axis, curve, h, params = select_orientation(pts, builtin_family(kind, d - 1))
    assert axis == d - 1
    h_fresh, fresh = fadapted_cross_entropy(pts, axis, curve)
    assert h == pytest.approx(h_fresh, rel=0, abs=1e-9)
    assert params.resid_var == pytest.approx(fresh.resid_var, rel=1e-9)


def test_full_rank_flags_only_the_failing_system():
    rng = np.random.default_rng(4)
    design = rng.standard_normal((30, 3))
    gram = design.T @ design
    dependent = np.column_stack([design[:, :2], design[:, 0] - 2.0 * design[:, 1]])
    stack = np.stack([gram, np.zeros((3, 3)), dependent.T @ dependent, 2.0 * gram])
    assert curves._full_rank(stack).tolist() == [True, False, False, True]
    # each system's answer is the one it gets alone
    for system, want in zip(stack, [True, False, False, True]):
        assert curves._full_rank(system[None]).tolist() == [want]


def test_rank_deficient_segment_gets_an_optimal_fit():
    # a 3-d segment on a line: the explanatory coordinates are collinear, so
    # every axis's quadratic Gram is singular; the refit still returns the
    # exact fit, with its residual variance floored
    t = np.linspace(-1.0, 1.0, 30)
    pts = np.column_stack([1.0 + t, 2.0 - 3.0 * t, 0.5 + 0.5 * t + 0.25 * t * t])
    fam = builtin_family("quadratic", 2)
    for j in range(3):
        fit = fit_curve(pts, j, fam)
        others = [i for i in range(3) if i != j]
        resid = pts[:, j] - fam.design_matrix(pts[:, others]) @ fit.coeffs
        assert np.abs(resid).max() < 1e-12
        # the Schur complement's SSE is exact to rounding of the total
        assert fit.sse < 1e-12 * np.sum((pts[:, j] - pts[:, j].mean()) ** 2)
    with pytest.warns(ZeroResidualWarning):
        axis, curve, h, params = select_orientation(pts, fam)
    assert np.isfinite(h)
