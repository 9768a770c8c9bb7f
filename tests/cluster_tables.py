"""Cluster tables for tests: a curves.ClusterFits read one row at a time
as the single-cluster API's FAdaptedParams, built from such objects, or with
its score weights built again from its parameters."""

import numpy as np

from afcec.curves import ClusterFits, CurveFit
from afcec.density import FAdaptedParams, param_weights


def row_params(f, i):
    """Row i of the ClusterFits f as FAdaptedParams."""
    curve = CurveFit(f.family, f.coeffs[i], f.sse[i].item())
    return FAdaptedParams(f.axis[i].item(), f.mean_exp[i], f.cov_exp[i], f.resid_var[i].item(),
                          curve)


def reweighted(f):
    """f with every row's score weights built by density.param_weights
    from its axis, mean, covariance, residual variance and curve, as a loaded
    model's are."""
    w, consts = param_weights(f.family, f.axis, f.mean_exp, f.cov_exp, f.resid_var, f.coeffs)
    return f._replace(w=w, consts=consts)


def table_of(params, entropies, sizes, n):
    """The ClusterFits of FAdaptedParams of one family, with their
    cross-entropies and point counts out of n points, weights built by
    reweighted."""
    stack = [
        np.array(v)
        for v in zip(*[(q.dependent_axis, q.mean_exp, q.cov_exp, q.resid_var, q.curve.coeffs,
                        q.curve.sse) for q in params])
    ]
    weight = np.array(sizes) / n
    return reweighted(
        ClusterFits(params[0].curve.family, *stack, np.array(entropies), weight, None, None)
    )
