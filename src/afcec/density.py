"""Curve-adapted Gaussian densities with closed-form cross-entropies.

The curve-adapted density factors as a Gaussian over the explanatory
coordinates times a 1-D Gaussian of the residual x_j - f(x_others); the map
(x_j -> x_j - f) has unit Jacobian, so the product is a genuine density.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

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
# clusters per matrix product in score_blocks, which bounds its product
# buffer whatever the number of clusters scored
SCORE_GEMM_CLUSTERS = 8


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


def _score_weights(params):
    """Weights W (k*d, q) and constants c (k, 1) with -log f_i(x) = c_i +
    0.5 * ||W_i @ phi(x)||^2: W_i is cluster i's d rows, phi(x) the point's
    row of the union design (curves._GramLayout) of the clusters' family.

    For a cluster on axis j, rows 0..d-2 give L^-1 (x_e - mean_exp) with
    cov_exp = L L^T: L^-1 in the projection columns 1 + others[j], -L^-1
    mean_exp in the constant column 0. Row d-1 gives the residual
    (x_j - curve) / sigma: -coeffs / sigma in the columns aug[j][:-1] and
    1 / sigma in x_j's column 1 + j. Both rows sum raw-basis terms, which
    cancel far from the origin. Raises NotPositiveDefinite when a cov_exp has
    no Cholesky factor.
    """
    lay = params[0].curve.family._refit_layout
    k, d = len(params), params[0].dim
    try:
        low = np.linalg.cholesky(np.array([q.cov_exp for q in params]))
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefinite(str(e)) from e
    inv = np.linalg.inv(low)
    resid_var = np.array([q.resid_var for q in params])
    sigma = np.sqrt(resid_var)
    axes = np.array([q.dependent_axis for q in params])
    w = np.zeros((k, d, lay.union.size))
    at = np.arange(k)[:, None]
    w[at[:, :, None], np.arange(d - 1)[:, None], 1 + lay.others[axes][:, None, :]] = inv
    w[:, :-1, 0] = -(inv @ np.array([q.mean_exp for q in params])[:, :, None])[:, :, 0]
    coeffs = np.array([q.curve.coeffs for q in params])
    w[at, d - 1, lay.aug[axes, :-1]] = coeffs / -sigma[:, None]
    w[at[:, 0], d - 1, 1 + axes] = 1.0 / sigma
    consts = 0.5 * (d * LOG_2PI + _logdet(low) + np.log(resid_var))
    return w.reshape(k * d, -1), consts[:, None]


def score_blocks(params, design, shift=None):
    """Walk the points in fixed column blocks and yield (cols, scores): scores
    is (k, width) with scores[i] = shift[i] - log f_i(x) at the points cols.

    Every cluster must use one family, and design is the points' union
    design under it (curves._GramLayout.union, as the refit forms it), so
    clusters on any dependent axis share each block's matrix products, one
    per SCORE_GEMM_CLUSTERS clusters. The blocks start at multiples of
    SCORE_BLOCK whatever the caller, and a short last block is zero-padded to
    a multiple of SCORE_ALIGN points, so one (cluster, point) score has the
    same bits alone, inside any set of clusters, and through
    fadapted_log_density. scores is reused by the next block: reduce it
    before asking for the next one.
    """
    family = params[0].curve.family
    if any(q.curve.family is not family and q.curve.family != family for q in params):
        raise ValueError("score_blocks needs clusters of one family")
    k, n, d = len(params), design.shape[0], params[0].dim
    span = min(SCORE_BLOCK, -(-n // SCORE_ALIGN) * SCORE_ALIGN)
    w, consts = _score_weights(params)
    if shift is not None:
        shift = np.asarray(shift, dtype=float)[:, None]
    # working arrays, allocated once per call and reused by every block
    block = np.empty((k, span))
    prod = np.empty((min(k, SCORE_GEMM_CLUSTERS) * d, span))
    pad = None
    for lo in range(0, n, SCORE_BLOCK):
        hi = min(lo + SCORE_BLOCK, n)
        width = hi - lo
        padded = min(SCORE_BLOCK, -(-width // SCORE_ALIGN) * SCORE_ALIGN)
        pts = design[lo:hi]
        if padded > width:
            if pad is None:
                pad = np.zeros((padded, design.shape[1]))
            pad[:width] = pts
            pts = pad
        for first in range(0, k, SCORE_GEMM_CLUSTERS):
            last = min(first + SCORE_GEMM_CLUSTERS, k)
            g = np.matmul(w[first * d : last * d], pts.T, out=prod[: (last - first) * d, :padded])
            g = g[:, :width].reshape(last - first, d, width)
            np.square(g, out=g)
            # each cluster's d squared rows summed in order into its first row
            s = g[:, 0]
            for r in range(1, d):
                s += g[:, r]
            s *= 0.5
            s += consts[first:last]
            if shift is not None:
                s += shift[first:last]
            block[first:last, :width] = s
        yield slice(lo, hi), block[:, :width]


def fadapted_log_density(p, x):
    """Log density of the curve-adapted Gaussian at x ((d,) or (n,d)):
    score_blocks on one cluster."""
    x = np.asarray(x, dtype=float)
    design = p.curve.family._refit_layout.union.design_matrix(x.reshape(-1, p.dim))
    out = np.empty(design.shape[0])
    for cols, scores in score_blocks([p], design):
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
    most SSEs from its Gram, this evaluates the curve at the raw explanatory
    coordinates, so it checks the refit independently of its layout.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n < d + 1:
        raise DegenerateCluster(f"need at least {d + 1} points, got {n}")
    means, covs = segment_moments(x, np.array([0, n]))
    cov, var = pin_constants(covs[0], x.max(axis=0) == x.min(axis=0))
    others = [i for i in range(d) if i != j]
    low, cov_used = _cholesky_reg(cov[np.ix_(others, others)])
    resid = x[:, j] - curve.evaluate(x[:, others])
    resid_var = float(resid @ resid) / n
    var = float(var[j])
    if resid_var < RESID_VAR_FLOOR * var:
        warnings.warn("residual variance floored", ZeroResidualWarning, stacklevel=2)
        resid_var = RESID_VAR_FLOOR * var
    h = float(_fadapted_entropy(d, _logdet(low), resid_var))
    return h, FAdaptedParams(j, means[0][others], cov_used, resid_var, curve)
