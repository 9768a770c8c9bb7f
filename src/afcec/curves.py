"""Function families, least-squares curve fitting, dependent-axis selection.

A family is a finite monomial basis of functions R^{d-1} -> R, linear in
coefficients, stored as an integer exponent matrix. Every family contains the
constant function and all coordinate projections, so plain Gaussians are
always a special case of the curved model.
"""

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import DegenerateCluster, RankDeficient

BUILTIN_KINDS = ("linear", "quadratic", "cubic")


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """Monomial basis over R^{input_dim}: basis function b is
    prod_i x_i ** exponents[b, i].

    exponents is a (size, input_dim) integer matrix. Row 0 must be all zeros
    (the constant 1) and every unit row (coordinate projection) must be present.
    """

    input_dim: int
    exponents: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        e = np.array(self.exponents, dtype=int, ndmin=2)
        if e.ndim != 2 or e.shape[1] != self.input_dim or e.shape[0] == 0:
            raise ValueError(f"exponents must be a (size, {self.input_dim}) matrix")
        if np.any(e < 0):
            raise ValueError("exponents must be non-negative")
        if e[0].any():
            raise ValueError("basis[0] must be the constant function")
        for i, unit in enumerate(np.eye(self.input_dim, dtype=int)):
            if not (e == unit).all(axis=1).any():
                raise ValueError(f"basis lacks the projection onto coordinate {i}")
        e.setflags(write=False)
        object.__setattr__(self, "exponents", e)

    def __eq__(self, other):
        if not isinstance(other, FunctionFamily):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.exponents, other.exponents)

    def __hash__(self):
        return hash((self.kind, self.exponents.shape, self.exponents.tobytes()))

    @property
    def size(self):
        return self.exponents.shape[0]

    def design_matrix(self, xe):
        """(n, size) design: column b is prod_i xe[:, i] ** exponents[b, i].

        Each coordinate's powers are formed once by repeated multiplication
        (x, x*x, x*x*x, ...) and every column is a product of them, so columns
        of degree <= 2 are the correctly rounded monomials and cubes round
        twice.
        """
        xe = np.asarray(xe, dtype=float)
        if xe.ndim != 2:
            xe = xe.reshape(-1, self.input_dim)
        if xe.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} columns, got {xe.shape[1]}")
        # powers[i][k] = xe[:, i] ** k for k >= 1
        powers = []
        for i, top in enumerate(self.exponents.max(axis=0).tolist()):
            pw = [None, xe[:, i]]
            for _ in range(2, top + 1):
                pw.append(pw[-1] * xe[:, i])
            powers.append(pw)
        out = np.empty((xe.shape[0], self.size))
        for col, row in zip(out.T, self.exponents.tolist()):
            factors = [powers[i][k] for i, k in enumerate(row) if k]
            col[...] = factors[0] if factors else 1.0
            for f in factors[1:]:
                col *= f
        return out


def builtin_family(kind, input_dim):
    """linear = {1, x_i}; quadratic adds all degree-2 monomials; cubic adds
    univariate third powers on top of quadratic (full degree-3 tensor bases
    blow up combinatorially and are never needed here)."""
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    p = int(input_dim)
    eye = np.eye(p, dtype=int)
    rows = [np.zeros((1, p), dtype=int), eye]
    if kind in ("quadratic", "cubic"):
        pairs = itertools.combinations_with_replacement(range(p), 2)
        rows.append(np.array([eye[i] + eye[j] for i, j in pairs]))
    if kind == "cubic":
        rows.append(3 * eye)
    return FunctionFamily(p, np.concatenate(rows), kind)


@dataclass(frozen=True)
class CurveFit:
    """A fitted curve: x_j ~ sum_b coeffs[b] * basis[b](x_others)."""

    family: FunctionFamily
    coeffs: np.ndarray = field(repr=False)
    sse: float = 0.0

    def evaluate(self, xe):
        """Curve value at one point (scalar out) or a batch (vector out)."""
        xe = np.asarray(xe, dtype=float)
        p = self.family.input_dim
        single = xe.ndim == 0 or (xe.ndim == 1 and p > 1 and xe.shape[0] == p)
        vals = self.family.design_matrix(xe.reshape(-1, p)) @ self.coeffs
        return float(vals[0]) if single else vals


def explanatory(x, j):
    """Columns of x with axis j removed, original order kept."""
    x = np.asarray(x, dtype=float)
    return np.delete(x, j, axis=1)


class AxisDesign(NamedTuple):
    """Rows of x split for dependent axis j, with the family's design over them.

    xe_t is the explanatory block transposed, (d-1, n) with one contiguous row
    per coordinate; xj is coordinate j, (n,); matrix is
    family.design_matrix of the explanatory block, (n, family.size).
    """

    xe_t: np.ndarray
    xj: np.ndarray
    matrix: np.ndarray

    def take(self, idx):
        """The same split and design restricted to rows idx."""
        return AxisDesign(self.xe_t[:, idx], self.xj[idx], self.matrix[idx])


def axis_design(x, j, family):
    """AxisDesign of the (n, d) rows x for dependent axis j."""
    x = np.asarray(x, dtype=float)
    xe_t = x.T[[i for i in range(x.shape[1]) if i != j]]
    return AxisDesign(xe_t, x[:, j].copy(), family.design_matrix(xe_t.T))


def fit_curve(x, j, family):
    """Least-squares fit of coordinate j on the family basis over the others."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xe = explanatory(x, j)
    a = family.design_matrix(xe)
    if x.shape[0] < family.size:
        raise RankDeficient(f"need at least {family.size} points, got {x.shape[0]}")
    coeffs = numerics.least_squares(a, x[:, j])
    resid = x[:, j] - a @ coeffs
    return CurveFit(family, coeffs, float(resid @ resid))


def select_orientation(x, family):
    """Fit every candidate dependent axis, return the cross-entropy argmin.

    Returns (axis, CurveFit, H, FAdaptedParams); ties go to the smallest axis
    index. Axes whose fit or covariance is degenerate are skipped; if every
    axis fails, DegenerateCluster is raised.
    """
    from .density import fadapted_cross_entropy

    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    best = None
    for k in range(d):
        try:
            curve = fit_curve(x, k, family)
            h, params = fadapted_cross_entropy(x, k, curve, curve.sse)
        except (DegenerateCluster, RankDeficient):
            continue
        if best is None or h < best[2]:
            best = (k, curve, h, params)
    if best is None:
        raise DegenerateCluster("no orientation admits a non-degenerate fit")
    return best
