"""Curve-adapted Gaussian densities with closed-form cross-entropies.

The curve-adapted density factors as a Gaussian over the explanatory
coordinates times a 1-D Gaussian of the residual x_j - f(x_others); the map
(x_j -> x_j - f) has unit Jacobian, so the product is a genuine density.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import axis_design
from .errors import DegenerateCluster, NotPositiveDefinite, ZeroResidualWarning

LOG_2PI = math.log(2.0 * math.pi)
# floor on a curve's residual variance, relative to the variance of its
# dependent coordinate, so a shrunk copy of the data is floored alike
RESID_VAR_FLOOR = 1e-12
# regularization ladder: try exact first, then escalate eps relative to
# mean diagonal until Cholesky succeeds
REG_BASE = 1e-9
REG_MAX = 1e-3
# points per scoring block (score_blocks); fixed, so every caller partitions
# the points alike
SCORE_BLOCK = 4096
# every GEMM spans a multiple of this many points: at a ragged width OpenBLAS's
# edge kernels can round one cluster's row differently alone and in a stack
SCORE_ALIGN = 64


@dataclass(frozen=True)
class FAdaptedParams:
    """One cluster's curved-Gaussian parameters.

    dependent_axis j is modeled as curve(x_others) plus N(0, resid_var)
    noise; the other coordinates follow N(mean_exp, cov_exp). The noise has
    mean 0 because the curve's intercept absorbs the dependent mean (families
    always contain the constant function).
    """

    dependent_axis: int
    mean_exp: np.ndarray = field(repr=False)
    cov_exp: np.ndarray = field(repr=False)
    resid_var: float = 1.0
    curve: object = None

    def __post_init__(self):
        object.__setattr__(self, "mean_exp", np.asarray(self.mean_exp, dtype=float).reshape(-1))
        object.__setattr__(self, "cov_exp", np.asarray(self.cov_exp, dtype=float))
        if self.resid_var <= 0:
            raise ValueError("resid_var must be positive")

    @property
    def dim(self):
        return self.mean_exp.size + 1


def _cholesky_reg(cov):
    """Cholesky of cov, adding eps*I only if needed. Returns (L, cov_used).

    eps starts at REG_BASE*(trace/d) and escalates by 10x up to REG_MAX*(trace/d);
    raises DegenerateCluster when nothing works (e.g. zero trace).
    """
    cov = np.asarray(cov, dtype=float)
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
    raise DegenerateCluster("covariance not positive definite after regularization")


def _score_weights(params, groups):
    """Per group of clusters sharing one dependent axis and family (a list of
    indices into params), the weights W (kg*d, P+1) and constants c (kg, 1)
    with -log f_i(x) = c_i + 0.5 * ||W_i @ aug(x)||^2, W_i being the cluster's
    d rows and aug(x) AxisDesign.aug's row [design | x_j].

    Rows 0..d-2 of W_i give L^-1 (x_e - mean_exp) (cov_exp = L L^T): every
    family holds the constant and every coordinate projection, so L^-1 sits in
    the projection columns and -L^-1 mean_exp in the constant column. Row d-1
    gives the scaled residual (x_j - curve) / sqrt(resid_var).
    Folding -L^-1 mean_exp into the intercept computes L^-1 x - L^-1 mean
    instead of L^-1 (x - mean), the same cancellation away from the origin that
    the residual row has with raw monomial coefficients; a later centring of
    the design columns should centre these columns too. Raises
    NotPositiveDefinite when a cov_exp has no Cholesky factor.
    """
    d = params[0].dim
    try:
        low = np.linalg.cholesky(np.array([q.cov_exp for q in params]))
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefinite(str(e)) from e
    inv = np.linalg.inv(low)
    centre = -(inv @ np.array([q.mean_exp for q in params])[:, :, None])[:, :, 0]
    resid_var = np.array([q.resid_var for q in params])
    sigma = np.sqrt(resid_var)
    consts = 0.5 * (d * LOG_2PI + _logdet(low) + np.log(resid_var))
    out = []
    for rows in groups:
        family = params[rows[0]].curve.family
        p = family.size
        w = np.zeros((len(rows), d, p + 1))
        w[:, :-1, family.projections] = inv[rows]
        w[:, :-1, 0] = centre[rows]
        w[:, -1, :p] = [params[i].curve.coeffs for i in rows]
        w[:, -1, :p] /= -sigma[rows, None]
        w[:, -1, p] = 1.0 / sigma[rows]
        out.append((w.reshape(-1, p + 1), consts[rows, None]))
    return out


def score_blocks(params, augs, shift=None):
    """Walk the points in fixed column blocks and yield (cols, scores): scores
    is (k, width) with scores[i] = shift[i] - log f_i(x) at the points cols.

    augs[i] is AxisDesign.aug of the points for params[i]'s dependent axis
    and family; clusters passing the same array share one GEMM per block.
    The blocks start at multiples of SCORE_BLOCK whatever the caller, and a
    short last block is zero-padded to a multiple of SCORE_ALIGN points, so
    one (cluster, point) score has the same bits alone, inside any set of
    clusters, and through fadapted_log_density. scores is reused by the next
    block: reduce it before asking for the next one.
    """
    k, n = len(params), augs[0].shape[0]
    span = min(SCORE_BLOCK, -(-n // SCORE_ALIGN) * SCORE_ALIGN)
    groups = {}
    for i, aug in enumerate(augs):
        groups.setdefault(id(aug), []).append(i)
    groups = list(groups.values())
    if shift is not None:
        shift = np.asarray(shift, dtype=float)[:, None]
    prepared = [
        (rows, augs[rows[0]], w, c, None if shift is None else shift[rows])
        for rows, (w, c) in zip(groups, _score_weights(params, groups))
    ]
    # working arrays, allocated once per call and reused by every block
    block = np.empty((k, span))
    prod = np.empty((max(len(w) for _, _, w, _, _ in prepared), span))
    pad = None
    for lo in range(0, n, SCORE_BLOCK):
        hi = min(lo + SCORE_BLOCK, n)
        width = hi - lo
        padded = min(SCORE_BLOCK, -(-width // SCORE_ALIGN) * SCORE_ALIGN)
        scores = block[:, :width]
        for rows, aug, w, c, sh in prepared:
            pts = aug[lo:hi]
            if padded > width:
                if pad is None:
                    pad = np.zeros((padded, max(a.shape[1] for a in augs)))
                pts = pad[:, : aug.shape[1]]
                pts[:width] = aug[lo:hi]
            g = np.matmul(w, pts.T, out=prod[: len(w), :padded])[:, :width]
            np.square(g, out=g)
            # each cluster's d squared rows summed in order into its first row
            g = g.reshape(len(rows), -1, width)
            s = g[:, 0]
            for r in range(1, g.shape[1]):
                s += g[:, r]
            s *= 0.5
            s += c
            if sh is not None:
                s += sh
            scores[rows] = s
        yield slice(lo, hi), scores


def fadapted_log_density(p, x, design=None, out=None):
    """Log density of the curve-adapted Gaussian at x ((d,) or (n,d)).

    design, when given, must be axis_design(x, p.dependent_axis,
    p.curve.family) (the engine builds it once per fit); x is then not split
    again. out, when given, is an (n,) float array the densities are written
    into and returned. This is score_blocks on one cluster.
    """
    x = np.asarray(x, dtype=float)
    if design is None:
        design = axis_design(x.reshape(-1, p.dim), p.dependent_axis, p.curve.family)
    if out is None:
        out = np.empty(design.aug.shape[0])
    for cols, scores in score_blocks([p], [design.aug]):
        np.negative(scores[0], out=out[cols])
    return float(out[0]) if x.ndim == 1 else out


def segment_moments(xs, bounds):
    """Means (k, d) and 1/n covariances (k, d, d) of the row segments
    xs[bounds[i]:bounds[i + 1]], which must be non-empty and cover xs."""
    sizes = np.diff(bounds)
    means = np.add.reduceat(xs, bounds[:-1], axis=0) / sizes[:, None]
    diff = xs - np.repeat(means, sizes, axis=0)
    covs = np.empty((len(sizes), xs.shape[1], xs.shape[1]))
    for cov, lo, hi in zip(covs, bounds[:-1].tolist(), bounds[1:].tolist()):
        np.matmul(diff[lo:hi].T, diff[lo:hi], out=cov)
    covs /= sizes[:, None, None]
    return means, covs


def pin_constants(covs, flat):
    """Covariances (..., d, d) with the rows and columns of constant
    coordinates (flat (..., d): every value of the coordinate equal) set to 0,
    and the variances the residual floor is relative to: each diagonal entry,
    1 where it is not positive.

    Whether a constant coordinate's computed variance is 0, a rounding
    residue or negative depends on how it was summed; reading the moments
    through this, the batched refit and fadapted_cross_entropy give it the
    same covariance and residual floor, wherever it sits.
    """
    covs = np.where(flat[..., :, None] | flat[..., None, :], 0.0, covs)
    var = np.diagonal(covs, axis1=-2, axis2=-1)
    return covs, np.where(var > 0, var, 1.0)


def _logdet(low):
    """ln det(low @ low.T) of one Cholesky factor or a stack of them."""
    return 2.0 * np.log(np.diagonal(low, axis1=-2, axis2=-1)).sum(axis=-1)


def _fadapted_entropy(d, logdet, resid_var):
    """H = d/2*ln(2*pi*e) + 0.5*ln det(cov_exp) + 0.5*ln(resid_var), elementwise.

    The one formula behind fadapted_cross_entropy and the batched refit, so
    both give the same bits."""
    return 0.5 * d * (LOG_2PI + 1.0) + 0.5 * logdet + 0.5 * np.log(resid_var)


def fadapted_cross_entropy(x, j, curve):
    """Empirical cross-entropy of x against the curve-adapted family member
    with dependent axis j and the given curve.

    Returns (H, params): H = d/2*ln(2*pi*e) + 0.5*ln det(cov_exp)
    + 0.5*ln(resid_var) with resid_var = mean squared residual of the curve
    (its intercept absorbs the dependent mean). Residual variance below
    RESID_VAR_FLOOR * var(x_j) (var 1 where x_j is constant, see
    pin_constants) is floored there and flagged ZeroResidualWarning, as in
    the batched refit (curves.refit_segments). Unlike the refit, which reads
    most SSEs from its Gram, this evaluates the curve's residuals on
    axis_design's [design | x_j] rows, so it checks the refit independently.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n < d + 1:
        raise DegenerateCluster(f"need at least {d + 1} points, got {n}")
    means, covs = segment_moments(x, np.array([0, n]))
    cov, var = pin_constants(covs[0], x.max(axis=0) == x.min(axis=0))
    others = [i for i in range(d) if i != j]
    low, cov_used = _cholesky_reg(cov[np.ix_(others, others)])
    aug, p = axis_design(x, j, curve.family).aug, curve.family.size
    resid = aug[:, p] - aug[:, :p] @ curve.coeffs
    resid_var = float(resid @ resid) / n
    var = float(var[j])
    if resid_var < RESID_VAR_FLOOR * var:
        warnings.warn("residual variance floored", ZeroResidualWarning, stacklevel=2)
        resid_var = RESID_VAR_FLOOR * var
    h = float(_fadapted_entropy(d, _logdet(low), resid_var))
    return h, FAdaptedParams(j, means[0][others], cov_used, resid_var, curve)
