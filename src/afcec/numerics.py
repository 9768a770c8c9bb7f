"""Dense least squares and the 2-D Simpson rule."""

import numpy as np

from .errors import RankDeficient


def least_squares(design, target):
    """Coefficients minimizing ||target - design @ c||^2, the minimum-norm
    ones where the design is rank-deficient (np.linalg.lstsq); RankDeficient
    when it has fewer rows than columns or is all zero."""
    a = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    if a.ndim != 2:
        raise ValueError("design must be 2-D")
    n, nb = a.shape
    if n < nb:
        raise RankDeficient(f"need at least {nb} rows, got {n}")
    c, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank == 0:
        raise RankDeficient("design is zero")
    return c


def simpson_blocks_2d(xlo, xhi, ylo, yhi, n, rows, even_x=False):
    """Nodes and weights of the composite 2-D Simpson rule on a box, `rows`
    x-nodes at a time.

    n is the (even) number of segments per axis; it is checked when this is
    called, not when the first block is drawn. Returns an iterator of
    meshgrid blocks (X, Y, W) ("ij" indexing, up to `rows` rows of n + 1
    nodes each) such that the sum over blocks of sum(W * f(X, Y)) estimates
    the integral of f. Each node's weight is (w_i * w_j) * h whatever the
    blocking, so the blocks are slices of the one-block grid.

    With even_x, f must be even in x about the box's centre: the blocks hold
    only the n/2 + 1 x-nodes from the centre on, and every one but the centre
    carries its mirror image's weight too, so the sum equals the full rule's
    at about half the nodes. This folds the full rule rather than taking a
    Simpson rule on the half box, so it holds for odd n/2 as well.
    """
    n = int(n)
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    x, y = np.linspace(xlo, xhi, n + 1), np.linspace(ylo, yhi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    wx = w
    if even_x:
        x, wx = x[n // 2 :], w[n // 2 :].copy()
        wx[1:] *= 2.0
    h = (xhi - xlo) / n * ((yhi - ylo) / n) / 9.0

    def blocks():
        for lo in range(0, x.size, rows):
            X, Y = np.meshgrid(x[lo : lo + rows], y, indexing="ij")
            yield X, Y, np.outer(wx[lo : lo + rows], w) * h

    return blocks()

