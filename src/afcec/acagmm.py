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
from .numerics import is_count, simpson_blocks_2d

# Jacobian factors at/below this are treated as folded (the map collapses)
FOLD_EPS = 1e-9

DEFAULT_A_GRID = (0.25, 0.5, 1.0)
DEFAULT_SIGMA_GRID = (0.25, 0.5, 1.0)
DEFAULT_BOX = 5.0
DEFAULT_N = 500
# grid rows _table_rows projects at once
FOOT_BLOCK_ROWS = 32
# normalization_table refuses a narrowest sigma under MIN_SIGMA_SPACINGS grid
# spacings (2 box / n) and a box under MIN_BOX_SIGMAS widest sigmas. Measured
# on near-linear and curved parabolas (a = 1e-3, 0.25, 1, -2.5, sigma 1): one
# spacing misses raw_integral by about 1% (0.9-1.5%, against a 100 times
# finer grid), half a spacing by 42-52%; a box of 1.5 sigmas holds 74-77% of
# the mass, one sigma 46-47%
MIN_SIGMA_SPACINGS = 1.0
MIN_BOX_SIGMAS = 1.5
# fold_mass integrates where the arc length is within FOLD_TAIL * max(sigma1,
# 1) of the vertex; the along-curve Gaussian is below exp(-800) beyond
FOLD_TAIL = 40.0
# the positive nodes of the 20-point Gauss-Legendre rule on [-1, 1] and their
# weights, correctly rounded (written out: importing numpy.polynomial for
# leggauss would slow every command's start-up)
_GL20_NODES = (
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
    0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.9931285991850949,
)
_GL20_WEIGHTS = (
    0.15275338713072584, 0.14917298647260374, 0.14209610931838204, 0.13168863844917664,
    0.11819453196151841, 0.10193011981724044, 0.08327674157670475, 0.06267204833410907,
    0.04060142980038694, 0.017614007139152118,
)


@dataclass(frozen=True)
class AcaParabolaModel:
    a: float
    sigma1: float  # along-curve (arc length) axis
    sigma2: float  # normal axis

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a != 0):
            raise ValueError(f"a must be finite and nonzero, got {self.a!r}")
        if not all(0 < s < math.inf for s in (self.sigma1, self.sigma2)):
            raise ValueError("sigmas must be finite and positive")


def _signed_arc(a, t):
    """Arc length of y = a x^2 from the vertex to (t, a t^2), signed by sign(t);
    t may be an array."""
    aa = abs(a)
    root = np.sqrt(1.0 + (2.0 * aa * t) ** 2)
    return 0.5 * t * root + np.arcsinh(2.0 * aa * t) / (4.0 * aa)


def aca_log_density(m, point, corrected=False):
    """Raw: ln N(l | 0, sigma1^2) + ln N(p | 0, sigma2^2). Corrected: raw minus
    ln|1 - kappa*eta| (kappa signed curvature at the foot, eta = +p above the
    graph / -p below), the area distortion of the arc-length/normal map.

    Raises ValueError unless the point has 2 coordinates, and
    BeyondCurvatureCenter when the factor is <= 0, i.e. the point lies at or
    past the curvature center on the concave side, where the map folds. The
    point is solved as a one-node grid.
    """
    if len(point) != 2:
        raise ValueError(f"point must have 2 coordinates, got {len(point)}")
    px, py = np.asarray(point, dtype=float).reshape(2, 1)
    (raw,), (factor,) = _log_density_grid(m, px, py)
    if not corrected:
        return float(raw)
    if factor <= FOLD_EPS:
        raise BeyondCurvatureCenter(
            f"point ({point[0]:.6g}, {point[1]:.6g}) reaches the curvature center of its foot"
        )
    return float(raw - math.log(factor))


def _jacobian_factor(a, t0, p, above):
    kappa = 2.0 * a / (1.0 + (2.0 * a * t0) ** 2) ** 1.5
    eta = np.where(above, p, -p)
    return 1.0 - kappa * eta


def _project_t0_grid(a, px, py):
    """Nearest-foot parameter of each node of the 1-D arrays px and py.

    The feet are the real roots of 2 a^2 t^3 + (1 - 2 a py) t - px = 0. The
    nearest is sign(px) times the one non-negative root of the cubic with
    |px| in place of px, or its negative on the axis, because:
    - the mirror of the foot at t is the foot at -t, at the same height, so
      for px > 0 a foot with t < 0 always has a strictly nearer mirror;
    - for px > 0 the |px| cubic is negative at t = 0 and either only rises
      (1 - 2 a py >= 0) or falls and then rises, so it has one positive root:
      Cardano's, or the largest trigonometric root 2 sqrt(-q) cos(phi / 3);
    - at px = 0 with 1 - 2 a py < 0, t = 0 is a local maximum of the distance
      and the feet +-sqrt((2 a py - 1) / (2 a^2)) tie; the negative wins;
    - at a zero discriminant Cardano gives the simple root 2 cbrt(r) > 0; the
      double root is negative.
    Each node is solved by its own branch only, as each branch's formula is
    invalid on the other's nodes; the values equal evaluating both branches
    everywhere and selecting, since every step is elementwise.

    The cubic is solved at its root's own scale: with 2^e the power of two
    just above m = max(sqrt|q|, cbrt r), q / 2^(2e) and r / 2^(3e) give the
    root t0 / 2^e, and the larger of their |q|^3 and r^2 lies in [1/64, 1),
    so the discriminant neither under- nor overflows at any a whose a * a is
    finite. A power of two scales exactly, so wherever the unscaled solve
    neither under- nor overflows the two give the same bits. Every cube is a
    product: numpy's power is far slower for a negative base.
    """
    # a numpy scalar, so an a * a beyond float64 raises under the caller's
    # errstate instead of collapsing every foot to t0 = 0
    a = np.float64(a)
    q = (1.0 - 2.0 * a * py) / (6.0 * a * a)
    r = np.abs(px) / (4.0 * a * a)
    # frexp's exponent is 0 where q and r are both 0
    e = np.frexp(np.maximum(np.sqrt(np.abs(q)), np.cbrt(r)))[1]
    q, r = np.ldexp(q, -2 * e), np.ldexp(r, -3 * e)
    disc = q * q * q + r * r
    t0 = np.empty(disc.shape)
    single = disc >= 0.0
    rs, qs = r[single], q[single]
    # Cardano's root u - q/u, u = cbrt(r + sqrt(disc)), as 2r / (u^2 + q +
    # (q/u)^2), whose terms do not cancel at small |a|. Raising r + sqrt(disc)
    # to the smallest normal float keeps q/u finite and the root 0 where both
    # are 0; below it, r has already lost its digits to underflow
    u = np.cbrt(np.maximum(rs + np.sqrt(disc[single]), np.finfo(float).tiny))
    t0[single] = 2.0 * rs / (u * u + qs + (qs / u) ** 2)

    three = ~single
    mq = -q[three]
    phi = np.arccos(np.clip(r[three] / np.sqrt(mq * mq * mq), -1.0, 1.0))
    t0[three] = 2.0 * np.sqrt(mq) * np.cos(phi / 3.0)
    t0 = np.ldexp(t0, e)
    return np.where(px > 0.0, t0, -t0)


def _foot_grid(a, px, py):
    """(signed arc length, normal distance p, Jacobian factor) of the nearest
    foot on y = a x^2 of each node of the 1-D arrays px and py. None of it
    depends on the sigmas, so one call serves every (sigma1, sigma2) pair
    with the same a."""
    t0 = _project_t0_grid(a, px, py)
    p = np.hypot(px - t0, py - a * t0 * t0)
    return _signed_arc(a, t0), p, _jacobian_factor(a, t0, p, py > a * px * px)


def _log_density_grid(m, px, py):
    """(raw_log, factor) of each node of the 1-D arrays px and py; factor is
    the Jacobian term."""
    arc, p, factor = _foot_grid(m.a, px, py)
    raw = (
        -math.log(2.0 * math.pi * m.sigma1 * m.sigma2)
        - 0.5 * (arc / m.sigma1) ** 2
        - 0.5 * (p / m.sigma2) ** 2
    )
    return raw, factor


def fold_mass(m):
    """Mass of the base (arc, normal) Gaussian lying beyond the cut locus,
    i.e. normal offsets past c(t) = sqrt(1 + 4 a^2 t^2) / (2|a|) on the concave
    side. This is exactly what the single-nearest-foot corrected density loses,
    so its integral comes out at 1 minus this. Computed by 1-D quadrature: a
    20-point Gauss-Legendre rule on each of a fixed set of panels."""
    a, s1, s2 = m.a, m.sigma1, m.sigma2
    aa = abs(a)
    # the integrand g is even in t and has vanished by t = top, since
    # arc(t) >= max(t, |a| t^2)
    reach = FOLD_TAIL * max(s1, 1.0)
    top = min(reach, math.sqrt(reach / aa))
    # g bends where 2|a|t reaches 1 and narrows with s1, so the panels halve
    # in width toward t = 0: [0, top 2^-levels], then [top 2^-(i+1), top 2^-i]
    # for i = levels-1 .. 0, the first at most a thousandth of 1/|a|, s1 and top
    levels = math.ceil(math.log2(top / (1e-3 * min(1.0 / aa, s1, top))))
    edges = np.ldexp(top, np.arange(-levels, 1))
    lo = np.concatenate(([0.0], edges[:-1])).reshape(-1, 1)
    half = 0.5 * (edges.reshape(-1, 1) - lo)
    x = np.array(_GL20_NODES)
    t = lo + half + half * np.concatenate((-x, x))
    w = half * np.tile(_GL20_WEIGHTS, 2)
    root = np.sqrt(1.0 + (2.0 * aa * t) ** 2)
    n1 = np.exp(-0.5 * (_signed_arc(a, t) / s1) ** 2) / (math.sqrt(2.0 * math.pi) * s1)
    # numpy has no erfc: math's, once per node
    z = (root / (2.0 * aa * s2 * math.sqrt(2.0))).ravel().tolist()
    q = 0.5 * np.array([math.erfc(v) for v in z]).reshape(t.shape)
    return 2.0 * float(np.sum(w * n1 * q * root))


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
    (see fold_mass). Raises ValueError before any work on a bad a, sigma, box
    or n, and, naming the configuration, on a grid too coarse for the
    narrowest sigma or a box too small for the widest (MIN_SIGMA_SPACINGS,
    MIN_BOX_SIGMAS); and, naming it, when a float64 step overflows or divides
    by zero (extreme a, box or sigma), so no integral is NaN or inf.

    Every integrand is even in x: the parabola, its arc-length/normal map and
    the grid are symmetric under x -> -x, which negates the foot parameter
    and the arc length and keeps p, the Jacobian factor and the side of the
    graph. So only the (n/2 + 1)(n + 1) nodes with x >= 0 are projected, the
    x = 0 column with its Simpson weight and every other column with twice
    its weight (simpson_blocks_2d's even_x).

    That half grid is streamed in FOOT_BLOCK_ROWS-row blocks, each projected
    once per a. The raw density is N1(arc) N2(p), so per block and a the sums
    for every (s1, s2) pair are two small matrix products of the per-sigma
    factors exp(-(arc/s)^2/2) and exp(-(p/s)^2/2); the 1/(2 pi s1 s2)
    normalization is applied to the finished sums.
    """
    if not 0 < box < math.inf:
        raise ValueError(f"box must be finite and positive, got {box!r}")
    if not is_count(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    # built before any projection (which divides by a), so a bad value late
    # in a grid fails before any work
    grid_models = [[AcaParabolaModel(a, s1, s2) for s1 in sigma_grid for s2 in sigma_grid]
                   for a in a_grid]
    grid = f"sigma grid {tuple(sigma_grid)!r}, box={box!r}, n={n}"
    # as a product, so that n <= 0 is refused too
    if n * min(sigma_grid, default=math.inf) < MIN_SIGMA_SPACINGS * 2.0 * box:
        raise ValueError(f"{grid}: the narrowest sigma is under {MIN_SIGMA_SPACINGS:g} "
                         "grid spacing (2 box / n), which the Simpson rule cannot resolve")
    if box < MIN_BOX_SIGMAS * max(sigma_grid, default=0.0):
        raise ValueError(f"{grid}: the box is under {MIN_BOX_SIGMAS:g} widest sigmas "
                         "and holds too little of the mass")
    sig = np.asarray(sigma_grid, dtype=float).reshape(-1, 1)
    rows = []
    for a, models in zip(a_grid, grid_models):
        config = f"a={a!r}, {grid}"
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                a_rows = _table_rows(a, models, sig, box, n)
        except (FloatingPointError, OverflowError) as e:
            raise ValueError(f"{config} is out of float64 range: {e}") from None
        if not all(math.isfinite(v) for r in a_rows for v in r.values()):
            raise ValueError(f"{config} is out of float64 range: an integral is not finite")
        rows += a_rows
    return rows


def _table_rows(a, models, sig, box, n):
    """normalization_table's rows for one a (models in sigma-pair order)."""
    raw, corr = np.zeros((sig.size, sig.size)), np.zeros((sig.size, sig.size))
    blocks = simpson_blocks_2d(-box, box, -box, box, n, FOOT_BLOCK_ROWS, even_x=True)
    for bx, by, w in blocks:
        arc, p, factor = _foot_grid(a, bx.ravel(), by.ravel())
        w = w.ravel()
        ok = factor > FOLD_EPS
        ea = np.exp(-0.5 * (arc / sig) ** 2)
        ep_t = np.exp(-0.5 * (p / sig) ** 2).T
        raw += (ea * w) @ ep_t
        corr += (ea * np.where(ok, w / np.where(ok, factor, 1.0), 0.0)) @ ep_t
    # numpy, so an overflowing 2 pi s1 s2 raises under the caller's errstate
    # instead of printing integrals of 0
    scale = 2.0 * math.pi * sig * sig.T
    # sums indexed by position, so a repeated sigma keeps its own row
    rows = []
    for m, (i, j) in zip(models, np.ndindex(sig.size, sig.size)):
        rows.append(
            {
                "a": a,
                "sigma1": m.sigma1,
                "sigma2": m.sigma2,
                "raw_integral": float(raw[i, j] / scale[i, j]),
                "corrected_integral": float(corr[i, j] / scale[i, j]),
                "excluded_mass": fold_mass(m),
            }
        )
    return rows
