"""Dense linear algebra and quadrature primitives used by the other modules."""

import numpy as np
import scipy.linalg

from .errors import RankDeficient

# ridge scale for least-squares conditioning, relative to trace of the
# normal matrix
RIDGE_SCALE = 1e-10


def least_squares(design, target):
    """Coefficients minimizing ||target - design @ c||^2.

    Solved via the normal equations with a ridge term RIDGE_SCALE*trace on the
    diagonal for conditioning, followed by one iterative-refinement step with
    the unregularized residual so well-posed fits are not visibly biased.
    """
    a = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    if a.ndim != 2:
        raise ValueError("design must be 2-D")
    n, nb = a.shape
    if n < nb:
        raise RankDeficient(f"need at least {nb} rows, got {n}")
    g = a.T @ a
    rhs = a.T @ y
    lam = RIDGE_SCALE * np.trace(g)
    greg = g + lam * np.eye(nb)
    try:
        fac = scipy.linalg.cho_factor(greg, lower=True)
    except scipy.linalg.LinAlgError as e:
        raise RankDeficient(str(e)) from e
    c = scipy.linalg.cho_solve(fac, rhs)
    c = c + scipy.linalg.cho_solve(fac, rhs - g @ c)
    return c


def simpson_grid_2d(xlo, xhi, ylo, yhi, n):
    """Nodes and weights of the composite 2-D Simpson rule on a box.

    n is the (even) number of segments per axis. Returns meshgrid arrays X, Y
    ("ij" indexing) and weights W such that sum(W * f(X, Y)) estimates the
    integral of f.
    """
    n = int(n)
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    X, Y = np.meshgrid(np.linspace(xlo, xhi, n + 1), np.linspace(ylo, yhi, n + 1), indexing="ij")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return X, Y, np.outer(w, w) * ((xhi - xlo) / n * ((yhi - ylo) / n) / 9.0)


def simpson_2d(f, xlo, xhi, ylo, yhi, n=500):
    """Composite 2-D Simpson estimate of the integral of f over a box.

    n is the (even) number of segments per axis. f is called once with the
    full meshgrid arrays.
    """
    X, Y, W = simpson_grid_2d(xlo, xhi, ylo, yhi, n)
    return float(np.sum(W * f(X, Y)))
