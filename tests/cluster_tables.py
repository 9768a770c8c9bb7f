"""Cluster tables for tests: an engine.ClusterTable read one row at a time
as the single-cluster API's FAdaptedParams, built from such objects, or with
its score weights built again from its parameters."""

import numpy as np

from afcec.curves import ClusterFits, CurveFit
from afcec.density import FAdaptedParams, param_weights
from afcec.engine import ClusterTable


def row_params(table, i):
    """Row i of table as FAdaptedParams."""
    f = table.fits
    curve = CurveFit(f.family, f.coeffs[i], f.sse[i].item())
    return FAdaptedParams(f.axis[i].item(), f.mean_exp[i], f.cov_exp[i], f.resid_var[i].item(),
                          curve)


def reweighted(table):
    """table with every row's score weights built by density.param_weights
    from its axis, mean, covariance, residual variance and curve, as a loaded
    model's are."""
    f = table.fits
    w, consts = param_weights(f.family, f.axis, f.mean_exp, f.cov_exp, f.resid_var, f.coeffs)
    return table._replace(fits=f._replace(w=w, consts=consts))


def table_of(params, entropies, sizes, n):
    """The ClusterTable of FAdaptedParams of one family, with their
    cross-entropies and point counts out of n points, weights built by
    reweighted."""
    stack = [
        np.array(v)
        for v in zip(*[(q.dependent_axis, q.mean_exp, q.cov_exp, q.resid_var, q.curve.coeffs,
                        q.curve.sse) for q in params])
    ]
    fits = ClusterFits(params[0].curve.family, *stack, np.array(entropies), None, None)
    sizes = np.array(sizes)
    return reweighted(ClusterTable(fits, sizes / n, sizes))
