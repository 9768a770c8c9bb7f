"""Function families, least-squares curve fitting, dependent-axis selection.

A family is a finite monomial basis of functions R^{d-1} -> R, linear in
coefficients, stored as an integer exponent matrix. Every family contains the
constant function and all coordinate projections, so plain Gaussians are
always a special case of the curved model, and every divisor of each of its
monomials, so it spans the same functions about any centre.

Curves are fitted from one Gram per segment of points, formed in
coordinates centred at the segment mean and scaled by their spread, so a
fit's residuals and cross-entropy do not depend on where the data sits or on
its units. Coefficients are returned in the raw monomial basis.
"""

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import density
from .errors import DegenerateCluster, RankDeficient, ZeroResidualWarning

BUILTIN_KINDS = ("linear", "quadratic", "cubic")
# a refit Gram whose squared Cholesky pivot falls below RANK_TOL times its
# diagonal entry is rank-deficient (scaled Grams have diagonal entries of order
# n, and rounding leaves pivots of order n * eps on exactly dependent columns)
RANK_TOL = 1e-9
# an axis whose SSE is below this fraction of its dependent coordinate's sum
# of squares has it summed from explicit residuals: the refit's Schur
# complement g_yy - g_12 . c cancels to a relative error of about
# cond * eps / fraction, the explicit sum to about eps / sqrt(fraction)
EXPLICIT_SSE_BELOW = 1e-3


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Monomial basis over R^{input_dim}: basis function b is
    prod_i x_i ** exponents[b, i].

    exponents is a (size, input_dim) integer matrix of distinct rows. Row 0
    must be all zeros (the constant 1), every unit row (coordinate projection)
    must be present, and so must every divisor of every row: r - e_i wherever
    r_i > 0. Such a basis spans the same functions about any centre, so a fit
    can be taken in centred coordinates and read back in raw ones.
    """

    input_dim: int
    exponents: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        e = np.array(self.exponents, ndmin=2)
        # int() would read 2.7, "2" and True as exponents
        if e.dtype.kind not in "iu" or bool in map(type, np.array(self.exponents, object).flat):
            raise ValueError("exponents must be integers")
        e = e.astype(int)
        if e.ndim != 2 or e.shape[1] != self.input_dim or e.shape[0] == 0:
            raise ValueError(f"exponents must be a (size, {self.input_dim}) matrix")
        if np.any(e < 0):
            raise ValueError("exponents must be non-negative")
        if e[0].any():
            raise ValueError("basis[0] must be the constant function")
        for i, unit in enumerate(np.eye(self.input_dim, dtype=int)):
            if not (e == unit).all(axis=1).any():
                raise ValueError(f"basis lacks the projection onto coordinate {i}")
        rows = {tuple(r) for r in e.tolist()}
        if len(rows) < len(e):
            raise ValueError("basis lists a monomial twice")
        for r in rows:
            for i, k in enumerate(r):
                divisor = r[:i] + (k - 1,) + r[i + 1 :]
                if k and divisor not in rows:
                    raise ValueError(f"basis holds {list(r)} but not its divisor {list(divisor)}")
        e.setflags(write=False)
        object.__setattr__(self, "exponents", e)

    def __eq__(self, other):
        if not isinstance(other, FunctionFamily):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.exponents, other.exponents)

    def __hash__(self):
        return hash((self.kind, self.exponents.shape, self.exponents.tobytes()))

    @property
    def size(self):
        return self.exponents.shape[0]

    @functools.cached_property
    def _refit_layout(self):
        """The refit's _GramLayout over input_dim + 1 coordinates."""
        return _gram_layout(self)

    @functools.cached_property
    def _design_plan(self):
        """(units, steps) for building a design in place: units[i] is the
        column of x_i, and each step (column, factors) sets a column to the
        product of the factor columns, taken left to right.

        A power x_i ** k is x_i ** (k - 1) times x_i, and any other monomial
        the product of its coordinates' powers in coordinate order; every
        such factor is a divisor, so the family holds it. Powers come first,
        by degree, so each factor is built before it is read.
        """
        rows = self.exponents.tolist()
        cols = {tuple(r): b for b, r in enumerate(rows)}

        def power(i, k):  # the column of x_i ** k
            return cols[tuple(k if c == i else 0 for c in range(self.input_dim))]

        units = [power(i, 1) for i in range(self.input_dim)]
        steps = []
        for b, row in enumerate(rows[1:], start=1):
            used = [(i, k) for i, k in enumerate(row) if k]
            if len(used) > 1:
                steps.append((True, sum(row), b, [power(i, k) for i, k in used]))
            elif used[0][1] > 1:
                ((i, k),) = used
                steps.append((False, k, b, [power(i, k - 1), units[i]]))
        steps.sort()
        return units, [(b, factors) for *_, b, factors in steps]

    def _fill_design(self, out):
        """Build the (n, size) design out in place around its coordinate
        columns (_design_plan's units), which the caller has written."""
        out[:, 0] = 1.0
        for b, factors in self._design_plan[1]:
            col = np.multiply(out[:, factors[0]], out[:, factors[1]], out=out[:, b])
            for f in factors[2:]:
                col *= out[:, f]

    def design_matrix(self, xe):
        """(n, size) design: column b is prod_i xe[:, i] ** exponents[b, i].

        Each power is formed by repeated multiplication (x, x*x, x*x*x, ...)
        and every other column is a product of powers in coordinate order
        (_design_plan), so columns of degree <= 2 are the correctly rounded
        monomials and cubes round twice.
        """
        xe = np.asarray(xe, dtype=float)
        if xe.ndim != 2:
            xe = xe.reshape(-1, self.input_dim)
        if xe.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} columns, got {xe.shape[1]}")
        out = np.empty((xe.shape[0], self.size))
        out[:, self._design_plan[0]] = xe
        self._fill_design(out)
        return out


def builtin_family(kind, input_dim):
    """linear = {1, x_i}; quadratic adds all degree-2 monomials; cubic adds
    univariate third powers on top of quadratic (full degree-3 tensor bases
    blow up combinatorially and are never needed here)."""
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    p = int(input_dim)
    eye = np.eye(p, dtype=int)
    rows = [np.zeros((1, p), dtype=int), eye]
    if kind in ("quadratic", "cubic"):
        pairs = itertools.combinations_with_replacement(range(p), 2)
        rows.append(np.array([eye[i] + eye[j] for i, j in pairs]))
    if kind == "cubic":
        rows.append(3 * eye)
    return FunctionFamily(p, np.concatenate(rows), kind)


@dataclass(frozen=True)
class CurveFit:
    """A fitted curve: x_j ~ sum_b coeffs[b] * basis[b](x_others)."""

    family: FunctionFamily
    coeffs: np.ndarray = field(repr=False)
    sse: float = 0.0

    def evaluate(self, xe):
        """Curve values at a batch of points, xe of shape (n, input_dim)."""
        return self.family.design_matrix(xe) @ self.coeffs


def fit_curve(x, j, family):
    """Least-squares fit of coordinate j on the family basis over the others:
    the refit's centred Gram solve (refit_segments) on one segment, read for
    axis j. A rank-deficient basis gets the minimum-norm fit; RankDeficient
    when there are fewer points than basis functions."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if n < family.size:
        raise RankDeficient(f"need at least {family.size} points, got {n}")
    fits = _solve_segments(x, np.array([0, n]), family)
    return CurveFit(family, fits.coeffs[0, j], float(fits.sse[0, j]))


class _GramLayout(NamedTuple):
    """Where every dependent axis's system sits in one Gram over the d =
    input_dim + 1 coordinates of a family's refit.

    union holds the constant, then x_0 .. x_{d-1}, then every other monomial
    of the family taken over the coordinates other than some axis j. aug[j]
    lists the union columns of axis j's basis, then x_j's column 1 + j, and
    others[j] the coordinates other than j. The design is formed in
    coordinates centred at the segment mean, and since the family holds every
    divisor of its monomials, a curve in them is a curve of the same family
    in raw ones: monomial b of x - centre expands to
    sum_a binom[b, a] * m_{quot[b, a]}(-centre) * m_a(x), m_t being the
    family's monomial t.
    """

    union: FunctionFamily
    aug: np.ndarray
    others: np.ndarray
    binom: np.ndarray
    quot: np.ndarray


def _gram_layout(family):
    e = family.exponents
    d = family.input_dim + 1
    embedded = [np.insert(e, j, 0, axis=1) for j in range(d)]
    index = {}
    for row in itertools.chain(np.eye(d + 1, d, -1, dtype=int), *embedded):
        index.setdefault(tuple(row.tolist()), len(index))
    union = FunctionFamily(d, np.array(list(index)))
    aug = np.array(
        [[index[tuple(r)] for r in emb.tolist()] + [1 + j] for j, emb in enumerate(embedded)]
    )
    others = np.array([[i for i in range(d) if i != j] for j in range(d)])
    rows = {tuple(r): t for t, r in enumerate(e.tolist())}
    binom = np.zeros((len(e), len(e)))
    quot = np.zeros((len(e), len(e)), dtype=int)
    for b, a in itertools.product(range(len(e)), repeat=2):
        if (e[a] <= e[b]).all():
            binom[b, a] = math.prod(map(math.comb, e[b].tolist(), e[a].tolist()))
            quot[b, a] = rows[tuple((e[b] - e[a]).tolist())]
    return _GramLayout(union, aug, others, binom, quot)


class _SegmentFits(NamedTuple):
    """_solve_segments' output for k segments of d-coordinate rows and a
    family of size p."""

    means: np.ndarray  # (k, d)
    covs: np.ndarray  # (k, d, d), 1/n
    coeffs: np.ndarray  # (k, d, p): axis j's raw monomial coefficients
    sse: np.ndarray  # (k, d): axis j's residual sum of squares
    resid_var: np.ndarray  # (k, d): sse / n, floored at RESID_VAR_FLOOR * var(x_j)
    floored: np.ndarray  # (k, d) bool


def _full_rank(a):
    """Per system of the (..., p, p) stack of Grams: True where it has a
    Cholesky factor whose every squared pivot exceeds RANK_TOL times its
    diagonal entry, i.e. no column is within rounding of the span of the
    columns before it."""
    low = density._cholesky_reg(a, ladder=False)[0]
    pivots = np.diagonal(low, axis1=-2, axis2=-1) ** 2
    return (pivots > RANK_TOL * np.diagonal(a, axis1=-2, axis2=-1)).all(axis=-1)


def _solve_segments(xs, bounds, family):
    """Least squares of every coordinate j on the family over the others, for
    every segment xs[bounds[i]:bounds[i + 1]] (non-empty, covering xs).

    Each segment is centred at its mean, and one Gram of the union design
    (_GramLayout) is formed per segment. Its linear block gives the segment's
    mean and covariance, read through density.pin_constants. Scaled per
    coordinate by the RMS deviation (1 for a constant coordinate), its principal
    submatrices are every axis's normal equations, solved with no ridge as one
    stack; a rank-deficient system (_full_rank) gets its minimum-norm solution
    from the pseudo-inverse, eigenvalues below RANK_TOL times the largest
    counting as 0. Each SSE is the Schur complement g_yy - g_12 . c, or, below
    EXPLICIT_SSE_BELOW of the total, the sum of the explicit residuals. The
    coefficients are folded back to the raw monomial basis.
    """
    n, d = xs.shape
    lay = family._refit_layout
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    centre = np.add.reduceat(xs, starts, axis=0) / sizes[:, None]
    # the centred coordinates go straight into the design's columns 1..d (one
    # coordinate at a time, so the repeated centres take one column) and the
    # other columns are filled from them
    phi = np.empty((n, lay.union.size))
    u = phi[:, 1 : d + 1]
    for i in range(d):
        np.subtract(xs[:, i], np.repeat(centre[:, i], sizes), out=u[:, i])
    flat = np.maximum.reduceat(u, starts) == np.minimum.reduceat(u, starts)
    lay.union._fill_design(phi)
    gram = np.empty((len(sizes), phi.shape[1], phi.shape[1]))
    for g, lo, hi in zip(gram, starts.tolist(), bounds[1:].tolist()):
        # a copy of the rows, since BLAS's GEMM beats its SYRK on these shapes
        np.dot(phi[lo:hi].T, phi[lo:hi].copy(), out=g)

    m = sizes[:, None].astype(float)
    mean_u = gram[:, 0, 1 : d + 1] / m
    covs = gram[:, 1 : d + 1, 1 : d + 1] / m[:, :, None]
    covs -= mean_u[:, :, None] * mean_u[:, None, :]
    covs, var = density.pin_constants(covs, flat)
    scale = np.sqrt(var)
    # 1 / prod_i scale_i ** e_i for every union column
    inv = np.exp(np.log(scale) @ -lay.union.exponents.T)
    gram *= inv[:, :, None] * inv[:, None, :]

    aug = gram[:, lay.aug[:, :, None], lay.aug[:, None, :]]  # (k, d, p + 1, p + 1)
    a, rhs = aug[..., :-1, :-1], aug[..., :-1, -1]
    full = _full_rank(a)
    if full.all():
        c = np.linalg.solve(a, rhs[..., None])[..., 0]
    else:
        c = np.empty(rhs.shape)
        c[full] = np.linalg.solve(a[full], rhs[full][..., None])[..., 0]
        pinv = np.linalg.pinv(a[~full], rcond=RANK_TOL, hermitian=True)
        c[~full] = (pinv @ rhs[~full][..., None])[..., 0]
    # products summed along the last axis: the same bits in any stack
    sse_u = np.maximum(aug[..., -1, -1] - (rhs * c).sum(axis=-1), 0.0)
    explicit = sse_u < EXPLICIT_SSE_BELOW * m
    for s in np.flatnonzero(explicit.any(axis=1)).tolist():
        axes = np.flatnonzero(explicit[s])
        cols = lay.aug[axes]  # (t, p + 1)
        # residual x_j - design . c of every such axis, in scaled units
        w = np.zeros((phi.shape[1], len(axes)))
        w[cols.T, np.arange(len(axes))] = (
            np.column_stack([-c[s, axes], np.ones(len(axes))]) * inv[s, cols]
        ).T
        resid = phi[bounds[s] : bounds[s + 1]] @ w
        sse_u[s, axes] = np.einsum("ij,ij->j", resid, resid)
    del phi
    floored = sse_u < density.RESID_VAR_FLOOR * m
    resid_var = var * np.where(floored, density.RESID_VAR_FLOOR, sse_u / m)

    # fold back: x_j = centre_j + scale_j * sum_b c_b prod_i ((x_i - centre_i) / scale_i) ** e_bi
    c *= scale[:, :, None] * inv[:, lay.aug[:, :-1]]
    # every family monomial at -centre, (k, d, p)
    mono = family.design_matrix(-centre[:, lay.others].reshape(-1, d - 1)).reshape(c.shape)
    coeffs = (c[..., None] * mono[..., lay.quot] * lay.binom).sum(axis=-2)
    coeffs[..., 0] += centre
    return _SegmentFits(centre + mean_u, covs, coeffs, var * sse_u, resid_var, floored)


class ClusterFits(NamedTuple):
    """Clusters stacked as arrays, one row each in label order: the chosen
    dependent axis of each, its curved Gaussian there, its weight p and that
    Gaussian's score weights (density.score_weights). The Lloyd loop carries
    clusters in this form, an AfcecModel holds its clusters in it, and
    data.model_from_json builds one from a model file."""

    family: FunctionFamily
    axis: np.ndarray  # (k,) int
    mean_exp: np.ndarray  # (k, d - 1)
    cov_exp: np.ndarray  # (k, d - 1, d - 1), as regularized
    resid_var: np.ndarray  # (k,), floored
    coeffs: np.ndarray  # (k, p): the curve's raw monomial coefficients
    sse: np.ndarray  # (k,)
    h: np.ndarray  # (k,): the cross-entropy
    weight: np.ndarray  # (k,): p, the cluster's point count / the run's
    w: np.ndarray  # (k, d, q): score weights over the family's union design
    consts: np.ndarray  # (k,): score constants

    def take(self, rows):
        """The rows `rows` (a slice or index array) of every field."""
        return ClusterFits(self.family, *[f[rows] for f in self[1:]])


def refit_segments(xs, bounds, family, n):
    """Fit every segment of label-sorted points on every dependent axis at once
    and keep each segment's cross-entropy argmin.

    Segment i is xs[bounds[i]:bounds[i + 1]]. Every axis of every segment is
    read from one centred Gram per segment (_solve_segments): the mean and
    covariance, each axis's coefficients and its SSE. The residual variance
    is floored at density.RESID_VAR_FLOOR times var(x_j) (1 for a constant
    x_j, as in density.pin_constants), with one ZeroResidualWarning per
    floored (segment, axis).

    Returns (fits, fitted): fitted holds, ascending, the segments on which
    some axis admits a fit, and fits one row for each of them, its lowest
    cross-entropy axis, ties to the smallest, its weight its point count / n
    (n the point count of the segment's run), and the score weights built
    from the Cholesky factor of that axis's explanatory covariance. No axis
    admits a fit on a segment of fewer than max(family.size, d + 1) points,
    nor on one whose every explanatory covariance density._cholesky_reg
    cannot regularize.
    """
    d = xs.shape[1]
    sizes = bounds[1:] - bounds[:-1]
    live = np.flatnonzero(sizes >= max(family.size, d + 1))
    nonempty = np.flatnonzero(sizes)
    solved = _solve_segments(xs, np.concatenate([bounds[nonempty], bounds[-1:]]), family)
    pick = np.searchsorted(nonempty, live)
    lay = family._refit_layout
    mean_exp = solved.means[pick][:, lay.others]  # (k, d, d-1)
    cov_exp = solved.covs[pick][:, lay.others[:, :, None], lay.others[:, None, :]]
    low, cov_exp, ok = density._cholesky_reg(cov_exp)
    for _ in range(np.count_nonzero(ok & solved.floored[pick])):
        warnings.warn("residual variance floored", ZeroResidualWarning, stacklevel=2)
    resid_var = solved.resid_var[pick]
    h = np.full(ok.shape, np.inf)
    h[ok] = density._fadapted_entropy(d, density._logdet(low[ok]), resid_var[ok])
    axis = np.argmin(h, axis=1)
    i = np.flatnonzero(ok[np.arange(len(live)), axis])  # the live segments fitted
    j = axis[i]
    mean, rv, coeffs = mean_exp[i, j], resid_var[i, j], solved.coeffs[pick[i], j]
    w, consts = density.score_weights(lay, j, low[i, j], mean, rv, coeffs)
    fits = ClusterFits(
        family, j, mean, cov_exp[i, j], rv, coeffs, solved.sse[pick[i], j], h[i, j],
        sizes[live[i]] / n, w, consts,
    )
    return fits, live[i]


def select_orientation(x, family):
    """Fit every candidate dependent axis, return the cross-entropy argmin.

    Returns (axis, CurveFit, H, FAdaptedParams); ties go to the smallest axis
    index. Axes whose fit or covariance is degenerate are skipped; if every
    axis fails, DegenerateCluster is raised. This is refit_segments on one
    segment, its row 0 built into objects.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    f, fitted = refit_segments(x, np.array([0, x.shape[0]]), family, x.shape[0])
    if not fitted.size:
        raise DegenerateCluster("no orientation admits a non-degenerate fit")
    j = int(f.axis[0])
    curve = CurveFit(family, f.coeffs[0], float(f.sse[0]))
    params = density.FAdaptedParams(j, f.mean_exp[0], f.cov_exp[0], float(f.resid_var[0]), curve)
    return j, curve, float(f.h[0]), params
