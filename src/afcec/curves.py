"""Function families, least-squares curve fitting, dependent-axis selection.

A family is a finite monomial basis of functions R^{d-1} -> R, linear in
coefficients, stored as an integer exponent matrix. Every family contains the
constant function and all coordinate projections, so plain Gaussians are
always a special case of the curved model.
"""

import itertools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import DegenerateCluster, RankDeficient, ZeroResidualWarning

BUILTIN_KINDS = ("linear", "quadratic", "cubic")


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Monomial basis over R^{input_dim}: basis function b is
    prod_i x_i ** exponents[b, i].

    exponents is a (size, input_dim) integer matrix. Row 0 must be all zeros
    (the constant 1) and every unit row (coordinate projection) must be present;
    projections[i] is the first row projecting onto coordinate i.
    """

    input_dim: int
    exponents: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        e = np.array(self.exponents, dtype=int, ndmin=2)
        if e.ndim != 2 or e.shape[1] != self.input_dim or e.shape[0] == 0:
            raise ValueError(f"exponents must be a (size, {self.input_dim}) matrix")
        if np.any(e < 0):
            raise ValueError("exponents must be non-negative")
        if e[0].any():
            raise ValueError("basis[0] must be the constant function")
        projections = []
        for i, unit in enumerate(np.eye(self.input_dim, dtype=int)):
            rows = np.flatnonzero((e == unit).all(axis=1))
            if not rows.size:
                raise ValueError(f"basis lacks the projection onto coordinate {i}")
            projections.append(int(rows[0]))
        e.setflags(write=False)
        object.__setattr__(self, "exponents", e)
        object.__setattr__(self, "projections", projections)

    def __eq__(self, other):
        if not isinstance(other, FunctionFamily):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.exponents, other.exponents)

    def __hash__(self):
        return hash((self.kind, self.exponents.shape, self.exponents.tobytes()))

    @property
    def size(self):
        return self.exponents.shape[0]

    def design_matrix(self, xe):
        """(n, size) design: column b is prod_i xe[:, i] ** exponents[b, i].

        Each coordinate's powers are formed once by repeated multiplication
        (x, x*x, x*x*x, ...) and every column is a product of them, so columns
        of degree <= 2 are the correctly rounded monomials and cubes round
        twice.
        """
        xe = np.asarray(xe, dtype=float)
        if xe.ndim != 2:
            xe = xe.reshape(-1, self.input_dim)
        if xe.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} columns, got {xe.shape[1]}")
        # powers[i][k] = xe[:, i] ** k for k >= 1
        powers = []
        for i, top in enumerate(self.exponents.max(axis=0).tolist()):
            pw = [None, xe[:, i]]
            for _ in range(2, top + 1):
                pw.append(pw[-1] * xe[:, i])
            powers.append(pw)
        out = np.empty((xe.shape[0], self.size))
        for col, row in zip(out.T, self.exponents.tolist()):
            factors = [powers[i][k] for i, k in enumerate(row) if k]
            col[...] = factors[0] if factors else 1.0
            for f in factors[1:]:
                col *= f
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
        """Curve value at one point (scalar out) or a batch (vector out)."""
        xe = np.asarray(xe, dtype=float)
        p = self.family.input_dim
        single = xe.ndim == 0 or (xe.ndim == 1 and p > 1 and xe.shape[0] == p)
        vals = self.family.design_matrix(xe.reshape(-1, p)) @ self.coeffs
        return float(vals[0]) if single else vals


class AxisDesign(NamedTuple):
    """The family's design for dependent axis j next to coordinate j.

    aug is [design_matrix(x without column j) | x_j], (n, family.size + 1),
    so one row gather moves both.
    """

    aug: np.ndarray

    def take(self, idx):
        """The same design restricted to rows idx."""
        return AxisDesign(np.take(self.aug, idx, axis=0))


def axis_design(x, j, family):
    """AxisDesign of the (n, d) rows x for dependent axis j."""
    x = np.asarray(x, dtype=float)
    # explanatory coordinates as contiguous rows
    xe_t = x.T[[i for i in range(x.shape[1]) if i != j]]
    aug = np.empty((x.shape[0], family.size + 1))
    aug[:, :-1] = family.design_matrix(xe_t.T)
    aug[:, -1] = x[:, j]
    return AxisDesign(aug)


def fit_curve(x, j, family):
    """Least-squares fit of coordinate j on the family basis over the others,
    read from axis_design's [design | x_j] rows as refit_segments reads them."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = family.size
    if x.shape[0] < p:
        raise RankDeficient(f"need at least {p} points, got {x.shape[0]}")
    aug = axis_design(x, j, family).aug
    coeffs = numerics.least_squares(aug[:, :p], aug[:, p])
    resid = aug[:, p] - aug[:, :p] @ coeffs
    return CurveFit(family, coeffs, float(resid @ resid))


def refit_segments(xs, bounds, designs, family):
    """Fit every segment of label-sorted points on every dependent axis at once
    and keep each segment's cross-entropy argmin.

    Segment i is xs[bounds[i]:bounds[i + 1]]; designs[j] is AxisDesign.aug
    over xs's rows for dependent axis j, so a segment's rows are one
    contiguous view of it. Each (segment, axis) Gram of [design | x_j] comes
    from one product, and numerics.ridge_solve solves all of their normal
    equations as one stack. Each segment's mean and full covariance are formed
    once, and every axis reads its explanatory block from them.

    Returns one entry per segment: select_orientation's (axis, CurveFit, H,
    FAdaptedParams), ties to the smallest axis, or None where no axis admits
    a fit: fewer than max(family.size, d + 1) points, or on every axis a
    ridge Gram with no Cholesky factor or an explanatory covariance that
    density._cholesky_reg cannot regularize.
    """
    from . import density

    n, d = xs.shape
    p = family.size
    sizes = np.diff(bounds)
    fits = [None] * len(sizes)
    live = np.flatnonzero(sizes >= max(p, d + 1))
    if not live.size:
        return fits
    segs = [slice(bounds[s], bounds[s + 1]) for s in live.tolist()]
    k = len(segs)
    nonempty = np.flatnonzero(sizes)
    means, covs = density.segment_moments(xs, np.append(bounds[nonempty], n))
    pick = np.searchsorted(nonempty, live)
    others = np.array([[i for i in range(d) if i != j] for j in range(d)])  # (d, d-1)
    mean_exp = means[pick][:, others]  # (k, d, d-1)
    cov_exp = covs[pick][:, others[:, :, None], others[:, None, :]]

    grams = np.empty((k, d, p + 1, p + 1))
    for i, seg in enumerate(segs):
        for j, aug in enumerate(designs):
            np.matmul(aug[seg].T, aug[seg], out=grams[i, j])
    coeffs, ok = numerics.ridge_solve(grams[..., :p, :p], grams[..., :p, p])
    sse = np.zeros((k, d))
    for i, j in zip(*np.nonzero(ok)):
        blk = designs[j][segs[i]]
        resid = blk[:, p] - blk[:, :p] @ coeffs[i, j]
        sse[i, j] = resid @ resid

    try:
        low = np.linalg.cholesky(cov_exp)
    except np.linalg.LinAlgError:
        # only the failing covariances climb the regularization ladder
        low = np.broadcast_to(np.eye(d - 1), cov_exp.shape).copy()
        for i, j in zip(*np.nonzero(ok)):
            try:
                low[i, j] = np.linalg.cholesky(cov_exp[i, j])
            except np.linalg.LinAlgError:
                try:
                    low[i, j], cov_exp[i, j] = density._cholesky_reg(cov_exp[i, j])
                except DegenerateCluster:
                    ok[i, j] = False

    resid_var = sse / sizes[live][:, None]
    floored = ok & (resid_var < density.RESID_VAR_FLOOR)
    for _ in range(np.count_nonzero(floored)):
        warnings.warn("residual variance floored", ZeroResidualWarning, stacklevel=2)
    resid_var[floored] = density.RESID_VAR_FLOOR
    h = np.full((k, d), np.inf)
    h[ok] = density._fadapted_entropy(d, density._logdet(low[ok]), resid_var[ok])
    for i, (s, j) in enumerate(zip(live.tolist(), np.argmin(h, axis=1).tolist())):
        if ok[i, j]:
            curve = CurveFit(family, coeffs[i, j], float(sse[i, j]))
            rv = float(resid_var[i, j])
            params = density.FAdaptedParams(j, mean_exp[i, j], cov_exp[i, j], rv, curve)
            fits[s] = (j, curve, float(h[i, j]), params)
    return fits


def select_orientation(x, family):
    """Fit every candidate dependent axis, return the cross-entropy argmin.

    Returns (axis, CurveFit, H, FAdaptedParams); ties go to the smallest axis
    index. Axes whose fit or covariance is degenerate are skipped; if every
    axis fails, DegenerateCluster is raised. This is refit_segments on one
    segment.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    designs = [axis_design(x, j, family).aug for j in range(d)]
    (best,) = refit_segments(x, np.array([0, n]), designs, family)
    if best is None:
        raise DegenerateCluster("no orientation admits a non-degenerate fit")
    return best
