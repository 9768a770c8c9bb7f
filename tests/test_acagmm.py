import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from afcec import acagmm
from afcec.acagmm import (
    FOLD_EPS,
    AcaParabolaModel,
    _log_density_grid,
    aca_log_density,
    fold_mass,
    normalization_table,
)
from afcec.errors import BeyondCurvatureCenter
from afcec.numerics import simpson_blocks_2d


def _project(a, px, py):
    """(t0, p, l) of the nearest point of y = a x^2: foot parameter, distance
    to the foot, and signed arc length from the vertex to it."""
    (t0,) = acagmm._project_t0_grid(a, np.array([px]), np.array([py])).tolist()
    return t0, math.hypot(px - t0, py - a * t0 * t0), float(acagmm._signed_arc(a, t0))


def _side(a, px, py):
    """The side of the graph that _foot_grid's Jacobian factor 1 - kappa*eta
    puts (px, py) on: eta = +p above, -p below."""
    t0, _, _ = _project(a, px, py)
    kappa = 2.0 * a / (1.0 + 4.0 * a * a * t0 * t0) ** 1.5
    (factor,) = acagmm._foot_grid(a, np.array([px]), np.array([py]))[2]
    return "above" if (1.0 - factor) / kappa > 0 else "below"


def _grid(lo, hi, n):
    """The Simpson grid on [lo, hi]^2 with n segments per axis, as one block."""
    return next(simpson_blocks_2d(lo, hi, lo, hi, n, n + 1))


def _all_branch_t0(a, px, py, scaled=True):
    # reference: both root formulas are evaluated on every node, then each
    # node takes its branch's root, signed by its side of the axis (the
    # negative root on the axis, where two feet may tie). Scaled, the cubic is
    # solved at the power of two just above max(sqrt|q|, cbrt r)
    q = (1.0 - 2.0 * a * py) / (6.0 * a * a)
    r = np.abs(px) / (4.0 * a * a)
    e = np.frexp(np.maximum(np.sqrt(np.abs(q)), np.cbrt(r)))[1] if scaled else 0
    q, r = np.ldexp(q, -2 * e), np.ldexp(r, -3 * e)
    disc = q * q * q + r * r
    nonneg = disc >= 0.0
    s = np.sqrt(np.where(nonneg, disc, 0.0))
    u = np.cbrt(np.maximum(r + s, np.finfo(float).tiny))
    t_single = 2.0 * r / (u * u + q + (q / u) ** 2)
    mq = np.where(nonneg, 1.0, -q)
    phi = np.arccos(np.clip(np.where(nonneg, 0.0, r) / np.sqrt(mq * mq * mq), -1.0, 1.0))
    t_three = 2.0 * np.sqrt(mq) * np.cos(phi / 3.0)
    t = np.ldexp(np.where(nonneg, t_single, t_three), e)
    return np.where(px > 0.0, t, -t)


def _determinant_side(a, point, t0):
    # above/below from the sign of det([[p1-x(t0), x'(t0)], [p2-y(t0), y'(t0)]]):
    # negative puts the point on the upward-normal side of its foot
    n1 = point[0] - t0
    n2 = point[1] - a * t0 * t0
    return "above" if n1 * 2.0 * a * t0 - n2 < 0 else "below"


def _golden_foot(a, px, py):
    # oracle: coarse grid bracket, then golden-section refinement
    span = max(3.0, 2.0 * abs(px), math.sqrt(max(abs(py), 1.0) / abs(a)) + 2.0)
    ts = np.linspace(-span, span, 4001)
    d2 = (ts - px) ** 2 + (a * ts * ts - py) ** 2
    i = int(np.argmin(d2))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    res = optimize.minimize_scalar(
        lambda t: (t - px) ** 2 + (a * t * t - py) ** 2,
        bracket=(lo, 0.5 * (lo + hi), hi) if lo < hi else None,
        method="golden",
        options={"xtol": 1e-13},
    )
    return float(res.x)


def test_cubic_candidates_match_numpy_roots():
    # the chosen foot is a real root of the foot cubic
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        px, py = rng.uniform(-6.0, 6.0, 2)
        t0, _, _ = _project(a, px, py)
        roots = np.roots([2.0 * a * a, 0.0, 1.0 - 2.0 * a * py, -px])
        real = [float(r.real) for r in roots if abs(r.imag) < 1e-9]
        assert min(abs(t0 - r) for r in real) < 1e-9


def test_projection_matches_golden_section():
    rng = np.random.default_rng(1)
    m_count = 0
    for _ in range(300):
        a = rng.uniform(0.15, 2.0) * rng.choice([-1.0, 1.0])
        px, py = rng.uniform(-5.0, 5.0, 2)
        t0, _, _ = _project(a, px, py)
        t_ref = _golden_foot(a, px, py)
        d2 = lambda t: (t - px) ** 2 + (a * t * t - py) ** 2
        # distances must agree even when two feet tie
        assert d2(t0) <= d2(t_ref) + 1e-8
        m_count += 1
    assert m_count == 300


def test_projection_double_root_branch():
    # a=1/2, point (-1, 5/2) puts the discriminant at exactly zero;
    # candidate feet are t=-2 (simple) and t=1 (double), and t=-2 is nearer
    t0, p, _ = _project(0.5, -1.0, 2.5)
    assert t0 == pytest.approx(-2.0, abs=1e-12)
    assert p == pytest.approx(math.sqrt(1.25), abs=1e-12)


def test_projection_on_axis_ties_to_smaller_t():
    # symmetric point above the cusp: two equidistant feet, keep the smaller
    t0, _, _ = _project(1.0, 0.0, 2.0)
    t_mag = math.sqrt((2.0 * 2.0 - 1.0) / 2.0)
    assert t0 == pytest.approx(-t_mag, abs=1e-12)


def test_projection_of_on_curve_point_is_identity():
    t0, p, _ = _project(0.7, 1.3, 0.7 * 1.3 * 1.3)
    assert t0 == pytest.approx(1.3, abs=1e-9)
    assert p == pytest.approx(0.0, abs=1e-9)


def test_projection_keeps_its_digits_at_small_a():
    # at small |a| both of Cardano's terms are near 1/(sqrt(6) |a|) and their
    # sum cancels; each foot must match a root of the foot cubic polished by
    # Newton's method in long double
    a = 1e-10
    px, py = (v.ravel() for v in np.meshgrid(np.linspace(-5.0, 5.0, 21), np.linspace(-5.0, 5.0, 21)))
    t0 = acagmm._project_t0_grid(a, px, py)
    la, lx, ly = np.longdouble(a), px.astype(np.longdouble), py.astype(np.longdouble)
    t = t0.astype(np.longdouble)
    for _ in range(3):
        t -= (2 * la * la * t ** 3 + (1 - 2 * la * ly) * t - lx) / (6 * la * la * t * t + 1 - 2 * la * ly)
    assert np.all(np.abs(t0 - t) <= 1e-15 * np.abs(t))


def _zero_disc_py(a, px):
    # py that puts the foot cubic's discriminant q^3 + r^2 at zero for px
    r = px / (4.0 * a * a)
    q = -(abs(r) ** (2.0 / 3.0))
    return (1.0 - 6.0 * a * a * q) / (2.0 * a)


def _assert_matches_all_branch_solver(a, px, py):
    # the nodes as one array, and each as a one-node array
    px, py = np.ravel(px), np.ravel(py)
    got = acagmm._project_t0_grid(a, px, py)
    assert got.shape == px.shape
    assert np.array_equal(got, _all_branch_t0(a, px, py))
    for x, y, t in zip(px, py, got):
        assert np.array_equal(acagmm._project_t0_grid(a, np.array([x]), np.array([y])), [t])


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.sampled_from((-1.0, 1.0)),
    st.lists(
        st.tuples(st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=-6.0, max_value=6.0)),
        max_size=30,
    ),
    st.lists(st.floats(min_value=-6.0, max_value=6.0), min_size=1, max_size=6),
)
# numpy's scalar power rounded this point's q**3 differently from its array
# loop, before every cube became a product
@example(2.7529598128987467, 1.0, [(3.5, -4.978778433940518)], [0.0])
@settings(max_examples=150, deadline=None)
def test_masked_projection_matches_all_branch_solver(mag, sign, points, edge):
    # random nodes, nodes on the zero-discriminant curve (and one ulp either
    # side of it, where the branch switches) and nodes on the axis px = 0,
    # where two feet tie
    a = sign * mag
    pts = list(points)
    for u in edge:
        py0 = _zero_disc_py(a, u)
        pts += [(u, py0), (u, np.nextafter(py0, -np.inf)), (u, np.nextafter(py0, np.inf))]
        pts.append((0.0, u))
    px, py = np.array(pts).T
    _assert_matches_all_branch_solver(a, px, py)


def test_masked_projection_single_branch_blocks_and_scalar():
    px, py = np.meshgrid(np.linspace(-3.0, 3.0, 7), np.linspace(0.0, 1.0, 5), indexing="ij")
    for a in (0.5, -1.0):
        # below a convex parabola (above a concave one) every node is Cardano
        below = -np.sign(a) * (py + 0.5)
        q = (1.0 - 2.0 * a * below) / (6.0 * a * a)
        assert np.all(q ** 3 + (px / (4.0 * a * a)) ** 2 >= 0.0)
        _assert_matches_all_branch_solver(a, px, below)
        # deep inside the concave side, near the axis, every node has three feet
        inside = np.sign(a) * (3.0 + py)
        near = px / 30.0
        q = (1.0 - 2.0 * a * inside) / (6.0 * a * a)
        assert np.all(q ** 3 + (near / (4.0 * a * a)) ** 2 < 0.0)
        _assert_matches_all_branch_solver(a, near, inside)
    # a point is projected as a one-node array
    t0 = acagmm._project_t0_grid(1.0, np.array([0.0]), np.array([2.0]))
    assert t0.shape == (1,) and t0 == _all_branch_t0(1.0, 0.0, 2.0)


# below about 1e-300, r = |px| / (4 a^2) or the foot it gives is subnormal, and
# the unscaled solve rounds it where the scaled one does not
_NORMAL_COORD = st.floats(min_value=-6.0, max_value=6.0).filter(
    lambda v: v == 0.0 or abs(v) > 1e-290
)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from((-1.0, 1.0)),
    st.lists(st.tuples(_NORMAL_COORD, _NORMAL_COORD), min_size=1, max_size=30),
)
@settings(max_examples=300, deadline=None)
def test_scaled_solve_equals_unscaled_solve(mag, sign, points):
    # a power of two scales exactly, so where the unscaled cubes neither
    # under- nor overflow the scaled solve gives the same bits
    a = sign * mag
    px, py = np.array(points).T
    unscaled = _all_branch_t0(a, px, py, scaled=False)
    assert np.array_equal(acagmm._project_t0_grid(a, px, py), unscaled)


def _long_double_t0(a, px, py):
    """_project_t0_grid's unscaled formulas in np.longdouble, whose exponent
    range holds q^3 and r^2 at any float64 a, plus one Newton step on the
    |px| cubic; rounded to float64."""
    ld = np.longdouble
    a, x, y = ld(a), np.asarray(px, dtype=ld), np.asarray(py, dtype=ld)
    q = (1 - 2 * a * y) / (6 * a * a)
    r = np.abs(x) / (4 * a * a)
    disc = q ** 3 + r ** 2
    nonneg = disc >= 0
    u = np.cbrt(np.maximum(r + np.sqrt(np.where(nonneg, disc, 0)), np.finfo(ld).tiny))
    mq = np.where(nonneg, 1, -q)
    phi = np.arccos(np.clip(np.where(nonneg, 0, r) / np.sqrt(mq ** 3), -1, 1))
    t = np.where(nonneg, 2 * r / (u * u + q + (q / u) ** 2), 2 * np.sqrt(mq) * np.cos(phi / 3))
    b = 1 - 2 * a * y
    t -= (2 * a * a * t ** 3 + b * t - np.abs(x)) / (6 * a * a * t * t + b)
    return np.where(x > 0, t, -t).astype(float)


@pytest.mark.parametrize("a", [1e20, 1e100, 1e150])
def test_corrected_integral_at_large_a_matches_long_double_feet(monkeypatch, a):
    # as |a| grows the parabola tends to a ray and corrected_integral settles
    # (0.50227471769 at sigma 1); the float64 table must be within 2 ulp of
    # the same table on long-double feet, where the unscaled cubic's q^3 and
    # r^2 once under- and overflowed (1e100 read 0.50519, 1e150 0.01184)
    def table():
        (row,) = normalization_table(a_grid=(a,), sigma_grid=(1.0,), n=200)
        return row["corrected_integral"]

    got = table()
    monkeypatch.setattr(acagmm, "_project_t0_grid", _long_double_t0)
    want = table()
    assert abs(got - want) <= 2 * math.ulp(want)


def test_arc_length_matches_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        t0 = rng.uniform(-4.0, 4.0)
        ref, _ = integrate.quad(lambda u: math.sqrt(1.0 + 4.0 * a * a * u * u), 0.0, abs(t0))
        assert abs(acagmm._signed_arc(a, t0)) == pytest.approx(ref, abs=1e-9)


def test_arc_length_is_even_magnitude():
    assert acagmm._signed_arc(1.5, -2.0) == -acagmm._signed_arc(1.5, 2.0)
    assert acagmm._signed_arc(1.5, 0.0) == 0.0


def test_signed_arc_in_projection():
    _, _, left = _project(1.0, -2.0, 1.0)
    _, _, right = _project(1.0, 2.0, 1.0)
    assert left == pytest.approx(-right, abs=1e-12)
    assert right > 0


def test_orientation_side_samples():
    for px, py, want in [(0.0, 1.0, "above"), (0.0, -1.0, "below"),
                         (2.0, 10.0, "above"), (-2.0, -1.0, "below")]:
        assert _side(1.0, px, py) == want


@given(
    st.floats(min_value=0.15, max_value=2.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=150, deadline=None)
def test_side_rules_agree_for_nearest_foot(a, px, py):
    # graph test and foot-normal determinant pick the same side whenever the
    # global nearest foot is used (within the cut locus they cannot differ)
    t0, p, _ = _project(a, px, py)
    if p > 1e-9:
        assert _side(a, px, py) == _determinant_side(a, (px, py), t0)


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1e-3, max_value=6.0),
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=1e-3, max_value=6.0),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=150, deadline=None)
def test_foot_grid_is_even_in_x(mag, sign, px, py, depth, frac):
    # x -> -x negates the arc length and keeps p and the Jacobian factor, the
    # symmetry normalization_table folds its grid by. Checked at a free point
    # and at one inside the evolute, where three feet exist and the
    # trigonometric branch runs; px stays off the axis, where two feet tie
    a = sign * mag
    # past the cusp on the concave side, q = -depth / (3|a|), and |px| below
    # 4 a^2 (-q)^(3/2) keeps the discriminant negative
    mq = depth / (3.0 * mag)
    inside = (frac * 4.0 * a * a * mq ** 1.5, sign * (0.5 / mag + depth))
    q = (1.0 - 2.0 * a * inside[1]) / (6.0 * a * a)
    assert q ** 3 + (inside[0] / (4.0 * a * a)) ** 2 < 0.0
    xs, ys = np.array([px, inside[0]]), np.array([py, inside[1]])
    arc, p, factor = acagmm._foot_grid(a, xs, ys)
    m_arc, m_p, m_factor = acagmm._foot_grid(a, -xs, ys)
    assert np.array_equal(m_arc, -arc)
    assert np.array_equal(m_p, p)
    assert np.array_equal(m_factor, factor)


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.sampled_from((-1.0, 1.0)),
    st.lists(
        st.tuples(
            st.floats(min_value=-6.0, max_value=6.0).filter(lambda x: x != 0.0),
            st.floats(min_value=-6.0, max_value=6.0),
        ),
        min_size=1,
        max_size=30,
    ),
)
# a point just right of the axis inside the evolute, where two feet nearly tie
@example(1.0, 1.0, [(1e-17, 2.0)])
@settings(max_examples=150, deadline=None)
def test_projection_is_odd_in_x(mag, sign, points):
    # the mirror of a point's nearest foot is its mirror's nearest foot, to
    # the bit, off the axis
    a = sign * mag
    px, py = np.array(points).T
    assert np.array_equal(acagmm._project_t0_grid(a, -px, py), -acagmm._project_t0_grid(a, px, py))


def test_raw_log_density_hand_value():
    # point on the axis below the vertex: t0=0, p=1, l=0
    m = AcaParabolaModel(1.0, 0.5, 2.0)
    got = aca_log_density(m, (0.0, -1.0))
    want = -math.log(2.0 * math.pi * 0.5 * 2.0) - 0.5 * (1.0 / 2.0) ** 2
    assert got == pytest.approx(want, abs=1e-12)


# aca_log_density's (raw, corrected) values as float.hex, recorded before the
# projection took 1-D node arrays only: both sides of the axis, the axis
# itself (px = 0 above the cusp, where two feet tie), a point on the curve and
# |a| = 1e6 on either side of the graph
POINT_PINS = [
    ((1.0, 0.5, 2.0), (0.7, 1.5), "-0x1.0f0602f1daa51p+3", "-0x1.0cf776742878fp+3"),
    ((1.0, 0.5, 2.0), (-0.7, 1.5), "-0x1.0f0602f1daa51p+3", "-0x1.0cf776742878fp+3"),
    ((1.0, 0.5, 2.0), (-1.3, -0.4), "-0x1.6406cef99710dp+1", "-0x1.a32667e29eb2ep+1"),
    ((1.0, 0.5, 2.0), (0.0, 2.0), "-0x1.48d6b3ed297a6p+3", "-0x1.43e7e6851905bp+3"),
    ((-0.8, 1.0, 0.5), (1.1, -0.8 * 1.1 * 1.1), "-0x1.28312f19d61e6p+1", "-0x1.28312f19d61e6p+1"),
    ((1e6, 1.0, 1.0), (0.3, 0.2), "-0x1.e71e93e332724p+0", "-0x1.e75549f9b57c3p+0"),
    ((-1e6, 1.0, 1.0), (-1e-4, 0.05), "-0x1.d6d10820e4246p+0", "-0x1.ab4410438e5acp+3"),
]


@pytest.mark.parametrize("model, point, raw, corrected", POINT_PINS)
def test_point_density_keeps_its_bits(model, point, raw, corrected):
    m = AcaParabolaModel(*model)
    assert aca_log_density(m, point).hex() == raw
    assert aca_log_density(m, point, corrected=True).hex() == corrected


@pytest.mark.parametrize("point", [(0.3,), (0.3, 0.2, 99.0), ()])
def test_point_density_needs_two_coordinates(point):
    with pytest.raises(ValueError, match=f"got {len(point)}"):
        aca_log_density(AcaParabolaModel(0.5, 1.0, 1.0), point)


def test_corrected_density_divides_by_factor():
    m = AcaParabolaModel(1.0, 1.0, 1.0)
    for pt in [(0.5, 1.2), (1.5, -0.5), (-2.0, 3.0)]:
        t0, p, _ = _project(m.a, *pt)
        kappa = 2.0 * m.a / (1.0 + 4.0 * m.a ** 2 * t0 ** 2) ** 1.5
        eta = p if pt[1] > m.a * pt[0] ** 2 else -p
        factor = 1.0 - kappa * eta
        raw = aca_log_density(m, pt)
        corr = aca_log_density(m, pt, corrected=True)
        assert corr == pytest.approx(raw - math.log(factor), abs=1e-12)


def test_convex_side_correction_shrinks_density():
    # below the graph the map stretches area, so the density must drop
    m = AcaParabolaModel(1.0, 1.0, 1.0)
    raw = aca_log_density(m, (0.0, -1.0))
    corr = aca_log_density(m, (0.0, -1.0), corrected=True)
    assert corr < raw


def test_beyond_curvature_center_at_cusp():
    # the fold point: normal offset reaches the curvature radius only at the
    # evolute cusp (0, 1/(2a))
    m = AcaParabolaModel(1.0, 1.0, 1.0)
    with pytest.raises(BeyondCurvatureCenter):
        aca_log_density(m, (0.0, 0.5), corrected=True)
    # just off the cusp the correction is finite again
    assert np.isfinite(aca_log_density(m, (0.0, 0.499), corrected=True))
    assert np.isfinite(aca_log_density(m, (1e-3, 0.5), corrected=True))


def test_fold_mass_matches_2d_quadrature():
    # oracle in (t, eta) coordinates: base Gaussian mass beyond the cut locus
    m = AcaParabolaModel(1.0, 1.0, 0.5)
    a, s1, s2 = m.a, m.sigma1, m.sigma2

    def inner(t):
        root = math.sqrt(1.0 + 4.0 * a * a * t * t)
        l = 0.5 * t * root + math.asinh(2.0 * a * t) / (4.0 * a)
        cut = root / (2.0 * a)
        n1 = math.exp(-0.5 * (l / s1) ** 2) / (math.sqrt(2.0 * math.pi) * s1)
        tail, _ = integrate.quad(
            lambda e: math.exp(-0.5 * (e / s2) ** 2) / (math.sqrt(2.0 * math.pi) * s2),
            cut,
            cut + 12.0 * s2,
        )
        return n1 * tail * root

    ref = 2.0 * integrate.quad(inner, 0.0, 30.0, limit=200)[0]
    assert fold_mass(m) == pytest.approx(ref, rel=1e-6)


def test_gauss_legendre_rule_integrates_degree_39_exactly():
    # fold_mass's 20-point rule, written out in acagmm: exact on x^k over
    # [-1, 1] up to k = 2 * 20 - 1
    x = np.array(acagmm._GL20_NODES)
    x = np.concatenate((-x, x))
    w = np.tile(acagmm._GL20_WEIGHTS, 2)
    for k in range(40):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(w * x ** k) == pytest.approx(want, rel=1e-14, abs=1e-15), k


# fold_mass(AcaParabolaModel(a, 1, 1)), to 20 digits, by mpmath 1.3.0 at
# mp.dps = 30 (unchanged at 40); mpmath is not a test dependency, so the
# values are written out. For AcaParabolaModel(a, s1, s2):
#   root(t) = sqrt(1 + 4 a^2 t^2), arc(t) = t root / 2 + asinh(2 |a| t) / (4 |a|)
#   g(t) = exp(-(arc / s1)^2 / 2) / (sqrt(2 pi) s1) * erfc(root / (2 |a| s2 sqrt 2)) / 2 * root
#   2 * mp.quad(g, [0] + sorted(min(r, sqrt(r / |a|)) for r in
#                               max(s1, 1) * (0.01, 0.1, 0.5, 1, 2, 5, 10, 20, 40)))
FOLD_MASS_MPMATH = {
    1e3: 0.48963884613913114487,
    1e6: 0.49967199870127377626,
    -1e6: 0.49967199870127377626,
    1e9: 0.49998962766768231197,
    # a * a overflows float64 here, (2 |a| t)^2 does not
    1e155: 0.50000000000000000000,
    -1e155: 0.50000000000000000000,
}


@pytest.mark.parametrize("a", sorted(FOLD_MASS_MPMATH))
def test_fold_mass_finds_the_fold_at_large_a(a):
    # the integrand lives where arc(t), at least |a| t^2, is within the tail:
    # a ridge about 1/sqrt|a| wide
    got = fold_mass(AcaParabolaModel(a, 1.0, 1.0))
    assert got == pytest.approx(FOLD_MASS_MPMATH[a], rel=1e-14, abs=0.0)


# fold_mass(AcaParabolaModel(a, s1, s2)), to 20 digits, by the recipe above
# with more breakpoints, so that mp.quad resolves small s1 and large |a|: the
# recipe's points, top * 2^-k for k = 0 .. 69 (top the largest recipe point),
# and those of 1/|a|, 0.1/|a|, 10/|a|, s1, 0.1 s1 and 3 s1 below top.
# mp.dps = 40 agrees to 3e-28.
FOLD_MASS_MPMATH_CASES = {
    (1e-3, 30.0, 30.0): 8.0933167680464709155e-63,
    (-0.01, 5.0, 30.0): 0.046991373690694719172,
    (0.1, 0.01, 5.0): 0.15865476999484734491,
    (-0.5, 0.5, 1.0): 0.13810819769273048503,
    (0.3, 30.0, 2.0): 0.01561587622011432667,
    (3.0, 0.01, 0.2): 0.20190891171329841045,
    (-40.0, 2.0, 0.05): 0.02102070814121639391,
    (2107.0, 0.4552, 0.0121): 0.17950115917699074713,
    (-1e5, 0.03, 0.01): 0.48205025110422474071,
    (1e9, 10.0, 0.01): 0.49672003769747463083,
    (-1e9, 0.01, 30.0): 0.49999996542556613046,
}


@pytest.mark.parametrize("case", sorted(FOLD_MASS_MPMATH_CASES), ids=str)
def test_fold_mass_matches_mpmath(case):
    # a from 1e-3 to 1e9 with both signs, sigmas from 0.01 to 30: the
    # integrand's bend at t ~ 1/|a| and its s1-wide peak both need resolving
    got = fold_mass(AcaParabolaModel(*case))
    assert got == pytest.approx(FOLD_MASS_MPMATH_CASES[case], rel=0, abs=1e-15)


def test_fold_mass_small_when_sigma2_small():
    assert fold_mass(AcaParabolaModel(0.25, 0.25, 0.25)) < 1e-10
    assert fold_mass(AcaParabolaModel(1.0, 1.0, 1.0)) > 0.1


def test_normalization_table_invariants():
    rows = normalization_table(a_grid=(1.0,), sigma_grid=(0.5, 1.0), box=5.0, n=300)
    assert len(rows) == 4
    for r in rows:
        assert set(r) == {"a", "sigma1", "sigma2", "raw_integral",
                          "corrected_integral", "excluded_mass"}
        # the corrected density loses exactly the folded mass (box-truncation
        # allows a few permille)
        assert r["corrected_integral"] + r["excluded_mass"] == pytest.approx(1.0, abs=5e-3)
        assert 0.0 <= r["excluded_mass"] < 0.5
    anchor = [r for r in rows if r["sigma1"] == 1.0 and r["sigma2"] == 1.0]
    assert anchor and anchor[0]["raw_integral"] == pytest.approx(1.038, abs=2e-3)


@pytest.mark.parametrize("n", [100, 102])
def test_normalization_table_equals_per_configuration_recompute(n):
    # the table projects the x >= 0 half of the grid once per a, shares the
    # per-sigma factors across the sigma pairs and sums block by block; each
    # integral must match the correctly rounded sum of a from-scratch density
    # on the whole grid, whether n/2 is even (100) or odd (102). A repeated
    # sigma keeps its own rows (sums are indexed by position)
    a_grid, sigma_grid, box = (0.5, -1.0), (0.5, 1.0, 0.5), 5.0
    rows = normalization_table(a_grid=a_grid, sigma_grid=sigma_grid, box=box, n=n)
    keys = [(r["a"], r["sigma1"], r["sigma2"]) for r in rows]
    assert keys == list(itertools.product(a_grid, sigma_grid, sigma_grid))
    px, py, weights = (v.ravel() for v in _grid(-box, box, n))
    for r in rows:
        m = AcaParabolaModel(r["a"], r["sigma1"], r["sigma2"])
        raw_log, factor = _log_density_grid(m, px, py)
        raw = np.exp(raw_log)
        ok = factor > FOLD_EPS
        corr = np.where(ok, raw / np.where(ok, factor, 1.0), 0.0)
        assert r["raw_integral"] == pytest.approx(
            math.fsum((weights * raw).flat), rel=1e-12, abs=0.0
        )
        assert r["corrected_integral"] == pytest.approx(
            math.fsum((weights * corr).flat), rel=1e-12, abs=0.0
        )
        assert r["excluded_mass"] == fold_mass(m)
        # the single-point path is the same solver on a grid of one node
        for i in (0, 1234, 5050, 7777, px.size - 1):
            pt = (px.flat[i], py.flat[i])
            assert aca_log_density(m, pt) == pytest.approx(raw_log.flat[i], rel=1e-12)
            if ok.flat[i]:
                assert aca_log_density(m, pt, corrected=True) == pytest.approx(
                    raw_log.flat[i] - math.log(factor.flat[i]), rel=1e-12, abs=1e-12
                )


def test_normalization_table_projects_once_per_a(monkeypatch):
    # the grid is streamed in row blocks, and each a projects every node with
    # x >= 0 once: the integrands are even in x, so the other half is folded
    # onto it
    nodes = []
    project = acagmm._project_t0_grid

    def counted(a, px, py):
        nodes.append((a, np.size(px)))
        return project(a, px, py)

    monkeypatch.setattr(acagmm, "_project_t0_grid", counted)
    a_grid, n = (0.25, 0.5, 1.0), 80
    assert n + 1 > 2 * acagmm.FOOT_BLOCK_ROWS
    normalization_table(a_grid=a_grid, sigma_grid=(0.25, 0.5, 1.0), n=n)
    assert [a for a, _ in itertools.groupby(a for a, _ in nodes)] == list(a_grid)
    for a in a_grid:
        assert sum(size for b, size in nodes if b == a) == (n // 2 + 1) * (n + 1)


def test_normalization_table_rejects_zero_a_before_projecting():
    # the projection divides by a; a = 0 must fail as a bad model, not as a
    # division by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonzero"):
            normalization_table(a_grid=(0.0,), n=20)


def test_normalization_table_rejects_odd_n():
    with pytest.raises(ValueError):
        normalization_table(n=301)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"box": 0.0},
        {"box": -5.0},
        {"box": math.inf},
        {"box": math.nan},
        # the bad value comes after a good one: nothing may be projected first
        {"a_grid": (1.0, 0.0)},
        {"a_grid": (1.0, math.nan)},
        {"sigma_grid": (1.0, math.inf)},
        # a grid too coarse for the narrowest sigma, a box too small for the
        # widest
        {"sigma_grid": (0.01, 1.0), "n": 500},
        {"sigma_grid": (0.5, 100.0)},
        {"n": 0},
        # simpson_blocks_2d would truncate 100.9 to 100 after the resolution
        # check had used 100.9
        {"n": 100.9},
        {"n": "100"},
    ],
    ids=str,
)
def test_normalization_table_rejects_bad_input_before_projecting(monkeypatch, kwargs):
    # n = 60 resolves the default sigmas, so only the bad value is at fault
    def project(a, px, py):
        raise AssertionError("projected before rejecting the input")

    monkeypatch.setattr(acagmm, "_project_t0_grid", project)
    with pytest.raises(ValueError):
        normalization_table(**{"n": 60, **kwargs})


@pytest.mark.parametrize(
    "sigma_grid, box, n, refused",
    [
        # exactly one grid spacing (2 box / n) and exactly 1.5 sigmas pass
        ((1.0,), 2.0, 4, False),
        ((1.0,), 1.5, 4, False),
        ((0.1, 3.0), 5.0, 100, False),
        ((np.nextafter(1.0, 0.0),), 2.0, 4, True),
        ((np.nextafter(1.0, 2.0),), 1.5, 4, True),
    ],
)
def test_normalization_table_resolution_thresholds(sigma_grid, box, n, refused):
    def table():
        return normalization_table(a_grid=(1.0,), sigma_grid=sigma_grid, box=box, n=n)

    if refused:
        with pytest.raises(ValueError, match=f"box={box!r}, n={n}: the"):
            table()
    else:
        assert len(table()) == len(sigma_grid) ** 2


def test_model_validation():
    for args in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (math.nan, 1.0, 1.0), (-math.inf, 1.0, 1.0),
                 (1.0, math.inf, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, 0.0)]:
        with pytest.raises(ValueError):
            AcaParabolaModel(*args)
