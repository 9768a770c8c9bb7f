"""Arc-length/normal-distance parabola density and its Jacobian correction.

The raw density N1(l(x)) * N2(p(x)) (l = signed arc length to the nearest
point of y = a*x^2, p = normal distance) is not a probability density: the
map from (arc length, normal offset) to the plane distorts area by
|1 - kappa*eta| (kappa the signed curvature at the foot, eta the signed
normal offset), so the honest density divides by that factor. The
normalization experiment integrates both on a Simpson grid and reports the
fold mass that the single-nearest-foot correction necessarily excludes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BeyondCurvatureCenter
from .numerics import simpson_blocks_2d

# Jacobian factors at/below this are treated as folded (the map collapses)
FOLD_EPS = 1e-9

DEFAULT_A_GRID = (0.25, 0.5, 1.0)
DEFAULT_SIGMA_GRID = (0.25, 0.5, 1.0)
DEFAULT_BOX = 5.0
DEFAULT_N = 500
# grid rows _foot_grid projects at once
FOOT_BLOCK_ROWS = 32


@dataclass(frozen=True)
class AcaParabolaModel:
    a: float
    sigma1: float  # along-curve (arc length) axis
    sigma2: float  # normal axis

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("a must be nonzero")
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("sigmas must be positive")


def _signed_arc(a, t):
    """Arc length of y = a x^2 from the vertex to (t, a t^2), signed by sign(t);
    t may be an array."""
    aa = abs(a)
    root = np.sqrt(1.0 + 4.0 * a * a * t * t)
    return 0.5 * t * root + np.arcsinh(2.0 * aa * t) / (4.0 * aa)


def aca_log_density(m, point, corrected=False):
    """Raw: ln N(l | 0, sigma1^2) + ln N(p | 0, sigma2^2). Corrected: raw minus
    ln|1 - kappa*eta| (kappa signed curvature at the foot, eta = +p above the
    graph / -p below), the area distortion of the arc-length/normal map.

    Raises BeyondCurvatureCenter when the factor is <= 0, i.e. the point lies
    at or past the curvature center on the concave side, where the map folds.
    """
    raw, factor = _log_density_grid(m, float(point[0]), float(point[1]))
    if not corrected:
        return float(raw)
    if factor <= FOLD_EPS:
        raise BeyondCurvatureCenter(
            f"point ({point[0]:.6g}, {point[1]:.6g}) reaches the curvature center of its foot"
        )
    return float(raw - math.log(factor))


def _jacobian_factor(a, t0, p, above):
    kappa = 2.0 * a / (1.0 + 4.0 * a * a * t0 * t0) ** 1.5
    eta = np.where(above, p, -p)
    return 1.0 - kappa * eta


def _project_t0_grid(a, px, py):
    """Nearest-foot parameter for points given as scalars or arrays.

    The foot is a real root of 2 a^2 t^3 + (1 - 2 a py) t - px = 0. With a
    negative discriminant the three roots are compared by squared distance
    (ties to the smaller t). Otherwise the Cardano root is taken; at a zero
    discriminant that is the simple root, since the double root is an
    inflection of the squared distance, never its minimum. Each node is
    solved by its own branch only; the values equal evaluating both branches
    everywhere and selecting, since every step is elementwise. Scalars are
    solved as one-node arrays: numpy's scalar power rounds differently from
    its array loop, and a point must get the same foot as the grid node.
    """
    px, py = np.broadcast_arrays(np.asarray(px, dtype=float), np.asarray(py, dtype=float))
    shape = px.shape
    px, py = px.ravel(), py.ravel()
    q = (1.0 - 2.0 * a * py) / (6.0 * a * a)
    r = px / (4.0 * a * a)
    disc = q ** 3 + r ** 2
    t0 = np.empty(disc.shape)
    single = disc >= 0.0
    s, rs = np.sqrt(disc[single]), r[single]
    t0[single] = np.cbrt(rs + s) + np.cbrt(rs - s)

    three = ~single
    x, y, mq = px[three], py[three], -q[three]
    phi = np.arccos(np.clip(r[three] / np.sqrt(mq ** 3), -1.0, 1.0))
    ts = 2.0 * np.sqrt(mq) * np.cos((phi + 2.0 * np.pi * np.arange(3.0)[:, None]) / 3.0)
    d2s = (ts - x) ** 2 + (a * ts * ts - y) ** 2
    best_t, best_d2 = ts[0], d2s[0]
    for t, d2 in zip(ts[1:], d2s[1:]):
        closer = (d2 < best_d2 - 1e-15) | ((np.abs(d2 - best_d2) <= 1e-15) & (t < best_t))
        best_t = np.where(closer, t, best_t)
        best_d2 = np.where(closer, d2, best_d2)
    t0[three] = best_t
    return t0.reshape(shape)


def _foot_grid(a, px, py):
    """(signed arc length, normal distance p, Jacobian factor) of each point's
    nearest foot on y = a x^2. None of it depends on the sigmas, so one call
    serves every (sigma1, sigma2) pair with the same a.

    The points are projected FOOT_BLOCK_ROWS rows at a time into full-size
    outputs, so the solver's temporaries stay block-sized; every step is
    elementwise, so the values equal a one-shot projection.
    """
    px, py = np.broadcast_arrays(np.asarray(px, dtype=float), np.asarray(py, dtype=float))
    rows_x, rows_y = np.atleast_1d(px), np.atleast_1d(py)
    arc, p, factor = (np.empty(rows_x.shape) for _ in range(3))
    for lo in range(0, rows_x.shape[0], FOOT_BLOCK_ROWS):
        rows = slice(lo, lo + FOOT_BLOCK_ROWS)
        bx, by = rows_x[rows], rows_y[rows]
        t0 = _project_t0_grid(a, bx, by)
        p[rows] = np.hypot(bx - t0, by - a * t0 * t0)
        arc[rows] = _signed_arc(a, t0)
        factor[rows] = _jacobian_factor(a, t0, p[rows], by > a * bx * bx)
    return arc.reshape(px.shape), p.reshape(px.shape), factor.reshape(px.shape)


def _log_density_grid(m, px, py):
    """(raw_log, factor) arrays for point grids; factor is the Jacobian term."""
    arc, p, factor = _foot_grid(m.a, px, py)
    raw = (
        -math.log(2.0 * math.pi * m.sigma1 * m.sigma2)
        - 0.5 * (arc / m.sigma1) ** 2
        - 0.5 * (p / m.sigma2) ** 2
    )
    return raw, factor


def fold_mass(m, tail=40.0):
    """Mass of the base (arc, normal) Gaussian lying beyond the cut locus,
    i.e. normal offsets past c(t) = sqrt(1 + 4 a^2 t^2) / (2|a|) on the concave
    side. This is exactly what the single-nearest-foot corrected density loses,
    so its integral comes out at 1 minus this. Computed by 1-D quadrature."""
    # imported here: only acagmm-check needs it, and scipy.integrate is slow
    # to import
    from scipy import integrate

    a, s1, s2 = m.a, m.sigma1, m.sigma2
    aa = abs(a)
    # quad calls g once per abscissa: plain math on floats, no numpy scalars
    n1_scale = math.sqrt(2.0 * math.pi) * s1
    erfc_scale = s2 * math.sqrt(2.0)

    def g(t):
        root = math.sqrt(1.0 + 4.0 * a * a * t * t)
        arc = 0.5 * t * root + math.asinh(2.0 * aa * t) / (4.0 * aa)
        n1 = math.exp(-0.5 * (arc / s1) ** 2) / n1_scale
        q = 0.5 * math.erfc(root / (2.0 * aa) / erfc_scale)
        return n1 * q * root

    # g is even in t and peaks at t=0; integrating outward from the peak keeps
    # the adaptive rule from missing a narrow ridge
    span = tail * max(m.sigma1, 1.0)
    val, _ = integrate.quad(g, 0.0, span, limit=200)
    return 2.0 * float(val)


def normalization_table(
    a_grid=DEFAULT_A_GRID,
    sigma_grid=DEFAULT_SIGMA_GRID,
    box=DEFAULT_BOX,
    n=DEFAULT_N,
):
    """Simpson-integrate the raw and corrected densities for every (a, s1, s2)
    combination over [-box, box]^2 with n segments per axis.

    Returns a list of dicts with keys a, sigma1, sigma2, raw_integral,
    corrected_integral, excluded_mass, in product(a_grid, sigma_grid,
    sigma_grid) order. Grid nodes where the Jacobian factor has collapsed
    (<= FOLD_EPS, the cut-locus cusp) contribute nothing to the corrected
    integral; excluded_mass is the fold mass the correction cannot recover
    (see fold_mass).

    The grid is streamed in FOOT_BLOCK_ROWS-row blocks, each projected once
    per a. The raw density is N1(arc) N2(p), so per block and a the sums for
    every (s1, s2) pair are two small matrix products of the per-sigma
    factors exp(-(arc/s)^2/2) and exp(-(p/s)^2/2); the 1/(2 pi s1 s2)
    normalization is applied to the finished sums.
    """
    sig = np.asarray(sigma_grid, dtype=float).reshape(-1, 1)
    rows = []
    for a in a_grid:
        # built before the projection, which divides by a, so a = 0 is
        # rejected first
        models = [AcaParabolaModel(a, s1, s2) for s1 in sigma_grid for s2 in sigma_grid]
        raw, corr = np.zeros((sig.size, sig.size)), np.zeros((sig.size, sig.size))
        for bx, by, w in simpson_blocks_2d(-box, box, -box, box, n, FOOT_BLOCK_ROWS):
            arc, p, factor = (v.reshape(1, -1) for v in _foot_grid(a, bx, by))
            w = w.reshape(1, -1)
            ok = factor > FOLD_EPS
            ea = np.exp(-0.5 * (arc / sig) ** 2)
            ep_t = np.exp(-0.5 * (p / sig) ** 2).T
            raw += (ea * w) @ ep_t
            corr += (ea * np.where(ok, w / np.where(ok, factor, 1.0), 0.0)) @ ep_t
        # sums indexed by position, so a repeated sigma keeps its own row
        for m, (i, j) in zip(models, np.ndindex(len(sigma_grid), len(sigma_grid))):
            scale = 2.0 * math.pi * m.sigma1 * m.sigma2
            rows.append(
                {
                    "a": a,
                    "sigma1": m.sigma1,
                    "sigma2": m.sigma2,
                    "raw_integral": float(raw[i, j] / scale),
                    "corrected_integral": float(corr[i, j] / scale),
                    "excluded_mass": fold_mass(m),
                }
            )
    return rows
