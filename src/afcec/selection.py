"""Log-likelihood, parameter counting, BIC/AIC."""

import math
from dataclasses import dataclass

import numpy as np

# fadapted_log_density is not called here; bench/spans.py wraps it under this
# module's name as well
from .density import fadapted_log_density  # noqa: F401
from .engine import cluster_score_blocks, design_cache

LL_MODES = ("mixture", "max")
# mixture log-likelihood: a term smaller than exp(LSE_FLOOR) times a point's
# largest term is raised to that bound. This moves the point's sum by at most
# k * 1e-26 relative, far below its rounding, and keeps np.exp off its about
# 20x slower path for arguments whose result underflows.
LSE_FLOOR = -60.0


@dataclass(frozen=True)
class ModelScore:
    loglik: float
    n_params: int
    bic: float
    aic: float


def log_likelihood(x, model, mode="mixture"):
    """mixture: sum_l ln sum_i p_i f_i(x_l) (log-sum-exp shifted by each
    point's largest term); max: sum_l max_i [ln p_i + ln f_i(x_l)].

    x is a Dataset, an (n, d) array, or an engine.DesignCache over the data,
    whose design is then reused. Each block of engine.cluster_score_blocks
    is reduced as it arrives, so no (k, n) block is formed."""
    if mode not in LL_MODES:
        raise ValueError(f"mode must be one of {LL_MODES}")
    cache = design_cache(x)
    per_point = np.empty(cache.rows.shape[0])
    for cols, scores in cluster_score_blocks(cache, model.clusters):
        # scores = -(ln p_i + ln f_i); its column minimum is the largest term
        low = scores.min(axis=0)
        if mode == "max":
            np.negative(low, out=per_point[cols])
            continue
        np.subtract(low, scores, out=scores)
        np.maximum(scores, LSE_FLOOR, out=scores)
        np.exp(scores, out=scores)
        np.log(scores.sum(axis=0), out=per_point[cols])
        per_point[cols] -= low
    return float(np.sum(per_point))


def _cluster_params(cl):
    d = cl.params.dim
    b = cl.params.curve.family.size
    # explanatory mean + explanatory covariance + residual variance
    # + curve coefficients (intercept included) + mixing weight
    return (d - 1) + (d - 1) * d // 2 + 1 + b + 1


def count_params(model):
    """Free-parameter count: per cluster (d-1) mean + (d-1)d/2 covariance + 1
    residual variance + B curve coefficients + 1 weight (the discrete
    dependent-axis choice is not counted). For d=2 with the quadratic family
    that is the paper's 7 per cluster."""
    return sum(_cluster_params(cl) for cl in model.clusters)


def score(x, model, ll_mode="mixture"):
    """Log-likelihood, parameter count, BIC and AIC of model on x (a Dataset,
    an (n, d) array, or an engine.DesignCache over the data)."""
    cache = design_cache(x)
    ll = log_likelihood(cache, model, ll_mode)
    k = count_params(model)
    n = cache.rows.shape[0]
    return ModelScore(
        loglik=ll,
        n_params=k,
        bic=-2.0 * ll + k * math.log(n),
        aic=-2.0 * ll + 2.0 * k,
    )
