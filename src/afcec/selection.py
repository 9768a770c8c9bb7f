"""Log-likelihood, parameter counting, BIC/AIC."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .density import fadapted_log_density
from .engine import DesignCache, as_array
from .errors import InvalidConvention

CONVENTIONS = ("general", "paper2d")
LL_MODES = ("mixture", "max")


@dataclass(frozen=True)
class ModelScore:
    loglik: float
    n_params: int
    n_points: int
    bic: float
    aic: float


def _weighted_log_densities(x, model):
    """(k, n) block of ln p_i + log f_i(x), one row per cluster; each axis's
    design is built once per call."""
    cache = DesignCache(x)
    wl = np.empty((len(model.clusters), x.shape[0]))
    for row, cl in zip(wl, model.clusters):
        fadapted_log_density(cl.params, x, cache.design(cl.params), out=row)
        row += math.log(cl.weight)
    return wl


def log_likelihood(x, model, mode="mixture"):
    """mixture: sum_l ln sum_i p_i f_i(x_l) (log-sum-exp stabilized);
    max: sum_l max_i [ln p_i + ln f_i(x_l)]."""
    if mode not in LL_MODES:
        raise ValueError(f"mode must be one of {LL_MODES}")
    x = as_array(x)
    wl = _weighted_log_densities(x, model)
    if mode == "mixture":
        return float(np.sum(logsumexp(wl, axis=0)))
    return float(np.sum(np.max(wl, axis=0)))


def _cluster_params(cl):
    d = cl.params.dim
    b = cl.params.curve.family.size
    # explanatory mean + explanatory covariance + residual variance
    # + curve coefficients (intercept included) + mixing weight
    return (d - 1) + (d - 1) * d // 2 + 1 + b + 1


def count_params(model, convention="general"):
    """Free-parameter count. general: per cluster (d-1) mean + (d-1)d/2
    covariance + 1 residual variance + B curve coefficients + 1 weight (the
    discrete dependent-axis choice is not counted). paper2d: the 7-per-cluster
    shortcut, valid only for d=2 with the quadratic family."""
    if convention not in CONVENTIONS:
        raise InvalidConvention(f"convention must be one of {CONVENTIONS}")
    if convention == "paper2d":
        for cl in model.clusters:
            fam = cl.params.curve.family
            if cl.params.dim != 2 or fam.size != 3 or fam.input_dim != 1:
                raise InvalidConvention("paper2d applies only to d=2 quadratic models")
        return 7 * len(model.clusters)
    return sum(_cluster_params(cl) for cl in model.clusters)


def score(x, model, ll_mode="mixture", convention="general"):
    x = as_array(x)
    ll = log_likelihood(x, model, ll_mode)
    k = count_params(model, convention)
    n = x.shape[0]
    return ModelScore(
        loglik=ll,
        n_params=k,
        n_points=n,
        bic=-2.0 * ll + k * math.log(n),
        aic=-2.0 * ll + 2.0 * k,
    )
