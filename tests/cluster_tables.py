"""Cluster tables for tests: a curves.ClusterFits read one row at a time
as the single-cluster API's FAdaptedParams, built from such objects, or with
its score weights built again from its parameters; and degenerate_mix, a
labelling whose refit drops clusters."""

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


def degenerate_mix():
    """Six labels in 3-d: a healthy cluster, one with fewer points than the
    quadratic family has terms, an empty one, one point repeated 20 times, an
    exact line, and a second healthy cluster."""
    rng = np.random.default_rng(5)
    healthy = rng.standard_normal((80, 3)) * [1.0, 2.0, 0.5]
    healthy[:, 2] += 0.3 * healthy[:, 0] ** 2
    few = rng.standard_normal((4, 3)) + 4.0
    repeated = np.tile([[3.0, -2.0, 1.0]], (20, 1))
    t = rng.uniform(-1.0, 1.0, 30)
    line = np.column_stack([1.0 + t, 2.0 - 3.0 * t, 0.5 + 0.5 * t])
    healthy2 = rng.standard_normal((60, 3)) * 0.7 + [-4.0, 0.0, 2.0]
    x = np.vstack([healthy, few, repeated, line, healthy2])
    return x, np.repeat([0, 1, 3, 4, 5], [80, 4, 20, 30, 60])
