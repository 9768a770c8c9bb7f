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
    always contain the constant function). j is an integer in 0..m for m
    explanatory coordinates, and curve a curves.CurveFit over those m.
    """

    dependent_axis: int
    mean_exp: np.ndarray = field(repr=False)
    cov_exp: np.ndarray = field(repr=False)
    resid_var: float
    curve: object

    def __post_init__(self):
        mean = np.asarray(self.mean_exp, dtype=float)
        cov = np.asarray(self.cov_exp, dtype=float)
        object.__setattr__(self, "mean_exp", mean)
        object.__setattr__(self, "cov_exp", cov)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"mean_exp and cov_exp must be shaped (m,) and (m, m), got {mean.shape} and "
                f"{cov.shape}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean_exp and cov_exp must be finite")
        j = self.dependent_axis
        if not (isinstance(j, (int, np.integer)) and 0 <= j <= mean.size):
            raise ValueError(f"dependent_axis must be an integer in 0..{mean.size}, got {j!r}")
        if getattr(getattr(self.curve, "family", None), "input_dim", None) != mean.size:
            raise ValueError(f"curve must be a CurveFit over {mean.size} explanatory coordinates")
        # written so that NaN fails too
        if not (0 < self.resid_var < math.inf):
            raise ValueError(f"resid_var must be positive and finite, got {self.resid_var!r}")

    @property
    def dim(self):
        return self.mean_exp.size + 1


def _cholesky_reg(cov, ladder=True):
    """Cholesky factors of one matrix or a stack (..., m, m): (low, used, ok),
    ok marking the matrices with a factor, used each as factored and low 0
    where ok is False. One LAPACK call factors the stack; only if it fails is
    each matrix factored alone, exactly and then, with ladder, plus eps*I for
    eps from REG_BASE*(trace/m) up by 10x to REG_MAX*(trace/m) (none at zero
    trace). So a matrix gets the same bits alone and in any stack.
    """
    cov = np.asarray(cov, dtype=float)
    try:
        return np.linalg.cholesky(cov), cov, np.ones(cov.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    low, used, ok = np.zeros(cov.shape), cov.copy(), np.zeros(cov.shape[:-2], dtype=bool)
    m = cov.shape[-1]
    for i in np.ndindex(ok.shape):
        try:
            low[i], ok[i] = np.linalg.cholesky(cov[i]), True
        except np.linalg.LinAlgError:
            scale = np.trace(cov[i]) / m
            eps = REG_BASE * scale
            while ladder and scale > 0 and eps <= REG_MAX * scale:
                reg = cov[i] + eps * np.eye(m)
                try:
                    low[i], used[i], ok[i] = np.linalg.cholesky(reg), reg, True
                    break
                except np.linalg.LinAlgError:
                    eps *= 10.0
    return low, used, ok


def score_weights(layout, axes, low, mean_exp, resid_var, coeffs):
    """Weights W (k, d, q) and constants c (k,) with -log f_i(x) = c_i +
    0.5 * ||W_i @ phi(x)||^2 for k stacked clusters: phi(x) is the point's
    row of the union design (curves._GramLayout layout) of their family.

    Cluster i has dependent axis axes[i], explanatory mean mean_exp[i] and
    covariance low[i] @ low[i].T, residual variance resid_var[i] and curve
    coefficients coeffs[i]. Rows 0..d-2 of W_i give L^-1 (x_e - mean_exp):
    L^-1 in the projection columns 1 + others[j], -L^-1 mean_exp in the
    constant column 0. Row d-1 gives the residual (x_j - curve) / sigma:
    -coeffs / sigma in the columns aug[j][:-1] and 1 / sigma in x_j's column
    1 + j. Both rows sum raw-basis terms, which cancel far from the origin.

    The one weight builder: the refit calls it with the Cholesky factors it
    has just formed, param_weights with those of stacked covariances. Both
    factor each covariance through _cholesky_reg, so a cluster's weights
    have the same bits either way.
    """
    k, d = len(axes), mean_exp.shape[1] + 1
    inv = np.linalg.inv(low)
    sigma = np.sqrt(resid_var)
    w = np.zeros((k, d, layout.union.size))
    at = np.arange(k)[:, None]
    w[at[:, :, None], np.arange(d - 1)[:, None], 1 + layout.others[axes][:, None, :]] = inv
    w[:, :-1, 0] = -(inv @ mean_exp[:, :, None])[:, :, 0]
    w[at, d - 1, layout.aug[axes, :-1]] = coeffs / -sigma[:, None]
    w[at[:, 0], d - 1, 1 + axes] = 1.0 / sigma
    consts = 0.5 * (d * LOG_2PI + _logdet(low) + np.log(resid_var))
    return w, consts


def param_weights(family, axes, mean_exp, cov_exp, resid_var, coeffs):
    """score_weights of k stacked clusters of family given by their
    parameters (fields as in curves.ClusterFits), each cov_exp factored here:
    the path for clusters that come without Cholesky factors (a loaded model,
    fadapted_log_density). Raises NotPositiveDefinite, naming the clusters
    (rows) whose cov_exp has no Cholesky factor."""
    low, _, ok = _cholesky_reg(cov_exp, ladder=False)
    if not ok.all():
        bad = np.flatnonzero(~ok).tolist()
        raise NotPositiveDefinite(f"cov_exp has no Cholesky factor in cluster(s) {bad}")
    return score_weights(family._refit_layout, axes, low, mean_exp, resid_var, coeffs)


def score_blocks(w, consts, design, shift=None):
    """Walk the points in fixed column blocks and yield (cols, scores): scores
    is (k, width) with scores[i] = shift[i] + consts[i] + 0.5 *
    ||w[i] @ phi(x)||^2 = shift[i] - log f_i(x) at the points cols.

    w (k, d, q) and consts (k,) are score_weights' output for clusters of one
    family, and design is the points' union design under it
    (curves._GramLayout.union, as the refit forms it), so clusters on any
    dependent axis share each block's matrix products, one per
    SCORE_GEMM_CLUSTERS clusters. The blocks start at multiples of
    SCORE_BLOCK whatever the caller, and a short last block is zero-padded to
    a multiple of SCORE_ALIGN points, so one (cluster, point) score has the
    same bits alone, inside any set of clusters, and through
    fadapted_log_density. scores is reused by the next block: reduce it
    before asking for the next one.
    """
    k, d = w.shape[:2]
    n = design.shape[0]
    span = min(SCORE_BLOCK, -(-n // SCORE_ALIGN) * SCORE_ALIGN)
    w = w.reshape(k * d, -1)
    consts = consts[:, None]
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
    score_blocks on one cluster, weighted by param_weights on a one-row
    stack."""
    x = np.asarray(x, dtype=float)
    family = p.curve.family
    w, consts = param_weights(
        family, np.array([p.dependent_axis]), p.mean_exp[None], p.cov_exp[None],
        np.array([p.resid_var]), np.asarray(p.curve.coeffs, dtype=float)[None],
    )
    design = family._refit_layout.union.design_matrix(x.reshape(-1, p.dim))
    out = np.empty(design.shape[0])
    for cols, scores in score_blocks(w, consts, design):
        np.negative(scores[0], out=out[cols])
    return float(out[0]) if x.ndim == 1 else out


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
    (its intercept absorbs the dependent mean); params holds the explanatory
    mean and 1/n covariance, as _cholesky_reg uses it. Residual variance below
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
    # reduceat sums each column pairwise, which x.sum(axis=0) does not do on
    # C-ordered rows
    mean = np.add.reduceat(x, [0], axis=0)[0] / n
    diff = x - mean
    cov, var = pin_constants((diff.T @ diff) / n, x.max(axis=0) == x.min(axis=0))
    others = [i for i in range(d) if i != j]
    low, cov_used, ok = _cholesky_reg(cov[np.ix_(others, others)])
    if not ok:
        raise DegenerateCluster("covariance not positive definite after regularization")
    resid = x[:, j] - curve.evaluate(x[:, others])
    resid_var = float(resid @ resid) / n
    var = float(var[j])
    if resid_var < RESID_VAR_FLOOR * var:
        warnings.warn("residual variance floored", ZeroResidualWarning, stacklevel=2)
        resid_var = RESID_VAR_FLOOR * var
    h = float(_fadapted_entropy(d, _logdet(low), resid_var))
    return h, FAdaptedParams(j, mean[others], cov_used, resid_var, curve)
