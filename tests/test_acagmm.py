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
    t0 = float(acagmm._project_t0_grid(a, px, py))
    return t0, math.hypot(px - t0, py - a * t0 * t0), float(acagmm._signed_arc(a, t0))


def _side(a, px, py):
    """The side of the graph that _foot_grid's Jacobian factor 1 - kappa*eta
    puts (px, py) on: eta = +p above, -p below."""
    t0 = float(acagmm._project_t0_grid(a, px, py))
    kappa = 2.0 * a / (1.0 + 4.0 * a * a * t0 * t0) ** 1.5
    (factor,) = acagmm._foot_grid(a, [px], [py])[2]
    return "above" if (1.0 - factor) / kappa > 0 else "below"


def _grid(lo, hi, n):
    """The Simpson grid on [lo, hi]^2 with n segments per axis, as one block."""
    return next(simpson_blocks_2d(lo, hi, lo, hi, n, n + 1))


def _all_branch_t0(a, px, py):
    # reference: both branches and all three trigonometric candidates are
    # evaluated on every node, then selected per node
    q = (1.0 - 2.0 * a * py) / (6.0 * a * a)
    r = px / (4.0 * a * a)
    disc = q ** 3 + r ** 2
    nonneg = disc >= 0.0
    s = np.sqrt(np.where(nonneg, disc, 0.0))
    t_single = np.cbrt(r + s) + np.cbrt(r - s)
    mq = np.where(nonneg, 1.0, -q)
    phi = np.arccos(np.clip(np.where(nonneg, 0.0, r) / np.sqrt(mq ** 3), -1.0, 1.0))
    best_t = t_single
    d2_single = (t_single - px) ** 2 + (a * t_single ** 2 - py) ** 2
    best_d2 = np.where(nonneg, d2_single, np.inf)
    for i in range(3):
        t = 2.0 * np.sqrt(mq) * np.cos((phi + 2.0 * np.pi * i) / 3.0)
        d2 = (t - px) ** 2 + (a * t * t - py) ** 2
        closer = ~nonneg & (
            (d2 < best_d2 - 1e-15) | (np.isclose(d2, best_d2, rtol=0, atol=1e-15) & (t < best_t))
        )
        best_t = np.where(closer, t, best_t)
        best_d2 = np.where(closer, d2, best_d2)
    return best_t


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


def _zero_disc_py(a, px):
    # py that puts the foot cubic's discriminant q^3 + r^2 at zero for px
    r = px / (4.0 * a * a)
    q = -(abs(r) ** (2.0 / 3.0))
    return (1.0 - 6.0 * a * a * q) / (2.0 * a)


def _assert_matches_all_branch_solver(a, px, py):
    got = acagmm._project_t0_grid(a, px, py)
    assert got.shape == np.shape(px)
    assert np.array_equal(got, _all_branch_t0(a, px, py))
    for x, y, t in zip(np.ravel(px), np.ravel(py), np.ravel(got)):
        assert acagmm._project_t0_grid(a, x, y) == t


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.sampled_from((-1.0, 1.0)),
    st.lists(
        st.tuples(st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=-6.0, max_value=6.0)),
        max_size=30,
    ),
    st.lists(st.floats(min_value=-6.0, max_value=6.0), min_size=1, max_size=6),
)
# numpy's scalar power rounds this point's q**3 differently from its array loop
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
    t0 = acagmm._project_t0_grid(1.0, 0.0, 2.0)
    assert t0.shape == () and t0 == _all_branch_t0(1.0, 0.0, 2.0)


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


def test_raw_log_density_hand_value():
    # point on the axis below the vertex: t0=0, p=1, l=0
    m = AcaParabolaModel(1.0, 0.5, 2.0)
    got = aca_log_density(m, (0.0, -1.0))
    want = -math.log(2.0 * math.pi * 0.5 * 2.0) - 0.5 * (1.0 / 2.0) ** 2
    assert got == pytest.approx(want, abs=1e-12)


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


def test_fold_mass_integrand_is_float_math(monkeypatch):
    # quad evaluates the integrand once per abscissa, so it is plain math on
    # floats; its values match the numpy/scipy.special form of the same formula
    from scipy import integrate, special

    integrands = []
    quad = integrate.quad

    def spy(g, *args, **kwargs):
        integrands.append(g)
        return quad(g, *args, **kwargs)

    monkeypatch.setattr(integrate, "quad", spy)
    m = AcaParabolaModel(-0.5, 0.5, 1.0)
    fold_mass(m)
    (g,) = integrands
    for t in (0.0, 0.3, 2.0, 7.5):
        root = np.sqrt(1.0 + 4.0 * m.a ** 2 * t * t)
        n1 = np.exp(-0.5 * (acagmm._signed_arc(m.a, t) / m.sigma1) ** 2)
        n1 /= math.sqrt(2.0 * math.pi) * m.sigma1
        tail = 0.5 * special.erfc(root / (2.0 * abs(m.a)) / (m.sigma2 * math.sqrt(2.0)))
        got = g(t)
        assert type(got) is float
        assert got == pytest.approx(n1 * tail * root, rel=1e-14, abs=0.0)


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


def test_normalization_table_equals_per_configuration_recompute():
    # the table projects once per a, shares the per-sigma factors across the
    # sigma pairs and sums block by block; each integral must match the
    # correctly rounded sum of a from-scratch density on the whole grid. A
    # repeated sigma keeps its own rows (sums are indexed by position)
    a_grid, sigma_grid, box, n = (0.5, -1.0), (0.5, 1.0, 0.5), 5.0, 100
    rows = normalization_table(a_grid=a_grid, sigma_grid=sigma_grid, box=box, n=n)
    keys = [(r["a"], r["sigma1"], r["sigma2"]) for r in rows]
    assert keys == list(itertools.product(a_grid, sigma_grid, sigma_grid))
    px, py, weights = _grid(-box, box, n)
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
    # the grid is streamed in row blocks, and each a projects every node once
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
        assert sum(size for b, size in nodes if b == a) == (n + 1) ** 2


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


def test_model_validation():
    with pytest.raises(ValueError):
        AcaParabolaModel(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AcaParabolaModel(1.0, -1.0, 1.0)


def test_foot_grid_blocks_equal_one_shot_projection():
    # 2 * 40 + 1 = 81 grid rows: two full blocks and a partial one
    assert 81 % acagmm.FOOT_BLOCK_ROWS
    px, py, _ = _grid(-3.0, 3.0, 80)
    for a in (0.5, -1.0):
        t0 = acagmm._project_t0_grid(a, px, py)
        p = np.hypot(px - t0, py - a * t0 * t0)
        want = (
            acagmm._signed_arc(a, t0),
            p,
            acagmm._jacobian_factor(a, t0, p, py > a * px * px),
        )
        for got, one_shot in zip(acagmm._foot_grid(a, px, py), want):
            assert got.shape == px.shape
            assert np.array_equal(got, one_shot)
