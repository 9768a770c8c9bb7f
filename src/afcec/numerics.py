"""Dense linear algebra and quadrature primitives used by the other modules."""

import numpy as np

from .errors import RankDeficient

# ridge scale for least-squares conditioning, relative to trace of the
# normal matrix
RIDGE_SCALE = 1e-10


def ridge_solve(gram, rhs):
    """Solve the normal equations gram @ c = rhs, one system or a stack of them.

    gram is (..., p, p) and rhs (..., p). A ridge term RIDGE_SCALE*trace on each
    diagonal conditions the solve; one iterative-refinement step with the
    unregularized residual rhs - gram @ c follows, so well-posed fits are not
    visibly biased. A system counts as solvable when its ridge-regularized
    matrix has a Cholesky factor; all of them are then solved by one stacked
    np.linalg.solve per step, since numpy has no stacked triangular solve.
    Returns (coeffs, ok): ok (...,) is False where the Cholesky factor does not
    exist, and coeffs is 0 there.
    """
    gram = np.asarray(gram, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    p = gram.shape[-1]
    lam = RIDGE_SCALE * np.trace(gram, axis1=-2, axis2=-1)
    greg = gram + np.asarray(lam)[..., None, None] * np.eye(p)
    ok = np.ones(gram.shape[:-2], dtype=bool)
    try:
        np.linalg.cholesky(greg)
    except np.linalg.LinAlgError:
        for i in np.ndindex(ok.shape):
            try:
                np.linalg.cholesky(greg[i])
            except np.linalg.LinAlgError:
                ok[i] = False
                greg[i] = np.eye(p)
    c = np.linalg.solve(greg, rhs[..., None])
    c += np.linalg.solve(greg, rhs[..., None] - gram @ c)
    c = c[..., 0]
    c[~ok] = 0.0
    return c, ok


def least_squares(design, target):
    """Coefficients minimizing ||target - design @ c||^2, via ridge_solve on
    the normal equations; RankDeficient when they have no Cholesky factor."""
    a = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    if a.ndim != 2:
        raise ValueError("design must be 2-D")
    n, nb = a.shape
    if n < nb:
        raise RankDeficient(f"need at least {nb} rows, got {n}")
    c, ok = ridge_solve(a.T @ a, a.T @ y)
    if not ok:
        raise RankDeficient("ridge-regularized normal matrix is not positive definite")
    return c


def simpson_blocks_2d(xlo, xhi, ylo, yhi, n, rows):
    """Nodes and weights of the composite 2-D Simpson rule on a box, `rows`
    x-nodes at a time.

    n is the (even) number of segments per axis; it is checked when this is
    called, not when the first block is drawn. Returns an iterator of
    meshgrid blocks (X, Y, W) ("ij" indexing, up to `rows` rows of n + 1
    nodes each) such that the sum over blocks of sum(W * f(X, Y)) estimates
    the integral of f. Each node's weight is (w_i * w_j) * h whatever the
    blocking, so the blocks are slices of the one-block grid.
    """
    n = int(n)
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    x, y = np.linspace(xlo, xhi, n + 1), np.linspace(ylo, yhi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (xhi - xlo) / n * ((yhi - ylo) / n) / 9.0

    def blocks():
        for lo in range(0, n + 1, rows):
            X, Y = np.meshgrid(x[lo : lo + rows], y, indexing="ij")
            yield X, Y, np.outer(w[lo : lo + rows], w) * h

    return blocks()


def simpson_grid_2d(xlo, xhi, ylo, yhi, n):
    """Nodes and weights of the composite 2-D Simpson rule on a box, as one
    block: meshgrid arrays X, Y ("ij" indexing) and weights W such that
    sum(W * f(X, Y)) estimates the integral of f (see simpson_blocks_2d)."""
    return next(simpson_blocks_2d(xlo, xhi, ylo, yhi, n, int(n) + 1))


def simpson_2d(f, xlo, xhi, ylo, yhi, n=500):
    """Composite 2-D Simpson estimate of the integral of f over a box.

    n is the (even) number of segments per axis. f is called once with the
    full meshgrid arrays.
    """
    X, Y, W = simpson_grid_2d(xlo, xhi, ylo, yhi, n)
    return float(np.sum(W * f(X, Y)))
