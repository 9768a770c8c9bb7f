"""Dataset container, CSV I/O, synthetic generators, model serialization."""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ClusterFits, CurveFit, FunctionFamily
from .density import param_weights
from .engine import AfcecModel
from .errors import InvalidSpec, IoError, NotPositiveDefinite, ParseError, SchemaVersionMismatch
from .numerics import is_count

MODEL_SCHEMA = 1

GENERATOR_KINDS = ("circle", "spiral", "strokes", "parametric3d")

CIRCLE_RADIUS = 1.0
SPIRAL_TURNS = 2.0
SPIRAL_PITCH = 0.25  # r = pitch * theta
# five quadratic/cubic strokes laid out like a rough glyph, sampled in equal
# proportions; each entry is (x(t) coefficients, y(t) coefficients) in
# ascending powers of t, t in [-1, 1]
STROKES = (
    ((0.0, 2.0), (1.8, 0.0, 0.1)),  # top bar
    ((-1.5, 0.0, 0.12), (0.0, 1.6)),  # left vertical, slightly bowed
    ((0.3, 1.2), (0.2, -1.2, 0.3)),  # falling diagonal
    ((0.0, 1.5), (-1.6, 0.0, 0.9)),  # bottom cup
    ((0.2, 1.4), (0.4, 0.0, -0.8, 0.2)),  # arch with a cubic flick
)


@dataclass(frozen=True)
class Dataset:
    """n points in R^d, the rows of a finite (n, d) float matrix."""

    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D array")
        if rows.shape[1] < 2:
            raise ValueError("need at least 2 coordinates per point")
        if not np.all(np.isfinite(rows)):
            raise ValueError("rows must be finite")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self):
        return self.rows.shape[0]

    @property
    def d(self):
        return self.rows.shape[1]


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int = 500
    noise_sigma: float = 0.1
    seed: int = 0

    def validate(self):
        if self.kind not in GENERATOR_KINDS:
            raise InvalidSpec(f"kind must be one of {GENERATOR_KINDS}")
        for name in ("n", "seed"):
            v = getattr(self, name)
            if not is_count(v):
                raise InvalidSpec(f"{name} must be an integer, got {v!r}")
        if self.n < 10:
            raise InvalidSpec("n must be >= 10")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be >= 0")


def _poly(coeffs, t):
    out = np.zeros_like(t)
    for k, c in enumerate(coeffs):
        out = out + c * t ** k
    return out


def generate(spec):
    """Synthetic datasets, pure functions of the configuration: a circle of
    radius CIRCLE_RADIUS, an Archimedean spiral of SPIRAL_TURNS turns, the
    STROKES glyph, or the helix (cos 2 pi t, sin 2 pi t, 1.5 t) for t in
    [0, 1], each with Gaussian noise of noise_sigma."""
    spec.validate()
    rng = np.random.default_rng(int(spec.seed) & 0xFFFFFFFFFFFFFFFF)
    n = spec.n
    if spec.kind == "circle":
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        r = CIRCLE_RADIUS + rng.normal(0.0, spec.noise_sigma, n)
        rows = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        return Dataset(rows)
    if spec.kind == "spiral":
        theta = rng.uniform(0.5, SPIRAL_TURNS * 2.0 * math.pi, n)
        r = SPIRAL_PITCH * theta + rng.normal(0.0, spec.noise_sigma, n)
        rows = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        return Dataset(rows)
    if spec.kind == "strokes":
        # drawn with explicit probabilities: p=None draws a different stream
        stroke = rng.choice(len(STROKES), size=n, p=np.full(len(STROKES), 1.0 / len(STROKES)))
        t = rng.uniform(-1.0, 1.0, n)
        rows = np.empty((n, 2))
        for i, (cx, cy) in enumerate(STROKES):
            sel = stroke == i
            rows[sel, 0] = _poly(cx, t[sel])
            rows[sel, 1] = _poly(cy, t[sel])
        rows += rng.normal(0.0, spec.noise_sigma, rows.shape)
        return Dataset(rows)
    # parametric3d
    t = rng.uniform(0.0, 1.0, n)
    rows = np.column_stack([np.cos(2 * math.pi * t), np.sin(2 * math.pi * t), 1.5 * t])
    rows = rows + rng.normal(0.0, spec.noise_sigma, rows.shape)
    return Dataset(rows)


def load_csv(path):
    """Numeric CSV with an optional single header line (the first record,
    when one of its cells is not a number). Blank lines are skipped. The file
    is read as UTF-8, a leading byte order mark dropped; other bytes raise
    ParseError.

    Past the header (_skip_header), the rows are parsed from the open file in
    one np.loadtxt call (_parse_numeric), so no copy of its text is held; only
    a file that np.loadtxt rejects is parsed again, cell by cell, from the
    same position (_parse_records)."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            first = _skip_header(fh)
            start = fh.tell()
            rows = _parse_numeric(fh, start)
            if rows is None:
                fh.seek(start)
                rows = _parse_records(fh, first)
    except OSError as e:
        raise IoError(str(e)) from e
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}") from e
    try:
        return Dataset(rows)
    except ValueError as e:
        raise ParseError(str(e)) from e


def _blank(rec):
    return not rec or (len(rec) == 1 and not rec[0].strip())


def _skip_header(fh):
    """Leaves the text file fh (opened with newline="") past its first record
    when that record is a header, one of whose cells is not a number, and at
    its start otherwise; returns the file record number of the next record,
    2 or 1."""
    rec = next(csv.reader(iter(fh.readline, "")), [])
    if not _blank(rec):
        try:
            for cell in rec:
                float(cell)
        except ValueError:
            return 2
    fh.seek(0)
    return 1


def _parse_numeric(fh, start):
    """Every row from position start of fh in one np.loadtxt call.

    None when there is no row or loadtxt fails (a non-numeric or empty cell,
    a quote that does not open a cell, ragged or whitespace-only rows);
    _parse_records then decides. loadtxt reads quoted cells as csv.reader
    does and parses a subset of what float() accepts, to the same values.
    """
    # loadtxt warns on a stream with no row, so look for one first
    if not any(line.strip() for line in iter(fh.readline, "")):
        return None
    fh.seek(start)
    try:
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, quotechar='"')
    except ValueError:
        return None


def _parse_records(fh, first):
    """Row lists from csv.reader over the rest of fh, one cell at a time,
    numbering file records (blank ones too) from first; raises ParseError at
    the first non-numeric cell or row whose width differs from the first
    row's, whichever comes first in the file."""
    rows = []
    for rix, rec in enumerate(csv.reader(fh), start=first):
        if _blank(rec):
            continue
        vals = []
        for cix, cell in enumerate(rec, start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"non-numeric cell {cell!r} at row {rix}, column {cix}",
                    row=rix,
                    col=cix,
                ) from None
        if rows and len(vals) != len(rows[0]):
            raise ParseError(f"row {rix} has {len(vals)} cells, expected {len(rows[0])}", row=rix)
        rows.append(vals)
    if not rows:
        raise ParseError("no data rows")
    return rows


def csv_lines(records):
    """The bytes csv.writer writes for records of cells: str() of each cell (a
    Python float's str is its shortest round-trip repr), joined by commas,
    each record ended by CRLF. The cells are numbers and plain names, which
    csv.writer never quotes."""
    return "".join([",".join(map(str, rec)) + "\r\n" for rec in records])


def _write_text(path, text):
    """text written to path at once, with no newline translation."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(str(e)) from e


def save_csv(ds, path):
    """The rows as csv_lines under an x0,x1,... header, written at once."""
    _write_text(path, csv_lines([[f"x{i}" for i in range(ds.d)]] + ds.rows.tolist()))


def _basis_tag(row):
    """constant, linear or monomial, by the degree of one exponent row."""
    degree = int(row.sum())
    return ("constant", "linear")[degree] if degree < 2 else "monomial"


def _family_to_json(fam):
    return {
        "kind": fam.kind,
        "input_dim": fam.input_dim,
        "basis": [{"tag": _basis_tag(e), "exponents": e.tolist()} for e in fam.exponents],
    }


def _family_from_json(obj):
    dim, kind = obj["input_dim"], obj.get("kind", "custom")
    if type(dim) is not int or not isinstance(kind, str):
        raise IoError(f"a family needs an integer input_dim and a string kind: {dim!r}, {kind!r}")
    return FunctionFamily(dim, [b["exponents"] for b in obj["basis"]], kind)


def model_to_json(model):
    f = model.clusters
    family = _family_to_json(f.family)
    clusters = [
        {
            "dependent_axis": j,
            "mean_exp": mean,
            "cov_exp": cov,
            "resid_var": rv,
            "mean_dep": 0.0,
            "curve": {"family": family, "coeffs": coeffs, "sse": sse},
            "weight": p,
            "size": size,
            "cross_entropy": h,
        }
        for j, mean, cov, rv, coeffs, sse, p, size, h in zip(
            f.axis.tolist(), f.mean_exp.tolist(), f.cov_exp.tolist(), f.resid_var.tolist(),
            f.coeffs.tolist(), f.sse.tolist(), f.weight.tolist(),
            np.bincount(model.assignment, minlength=model.k).tolist(), f.h.tolist(),
        )
    ]
    return {
        "schema": MODEL_SCHEMA,
        "clusters": clusters,
        "assignment": model.assignment.tolist(),
        "cost_trace": list(model.cost_trace),
        "iterations": model.iterations,
        "deleted_count": int(model.deleted_count),
        "deletion_iterations": [int(i) for i in model.deletion_iterations],
    }


def model_from_json(obj):
    """The AfcecModel a model_to_json object describes, its clusters built
    into a ClusterFits with their score weights. IoError when a field is
    missing or malformed (see _model_fields), or the model has no cluster or
    no cost; SchemaVersionMismatch when the schema is not MODEL_SCHEMA."""
    if not isinstance(obj, dict):
        raise IoError(f"a model is a JSON object, got {type(obj).__name__}")
    if obj.get("schema") != MODEL_SCHEMA:
        raise SchemaVersionMismatch(f"schema {obj.get('schema')!r}, expected {MODEL_SCHEMA}")
    try:
        return _model_fields(obj)
    # OverflowError: an integer too large for a float, as math.isfinite reads it
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise IoError(f"malformed model: {type(e).__name__}: {e}") from e


def _model_fields(obj):
    """The model of obj, each field checked once: one family for every
    cluster, mean_dep 0, finite numbers shaped for the family, integer
    dependent axes in 0..d-1, resid_var > 0, sse >= 0, positive integer
    sizes equal to the counts of the assignment's labels (each in 0..k-1),
    each weight size / n to the bit, and a cov_exp with a Cholesky factor;
    non-negative integer iterations and deleted_count, iterations + 1 finite
    costs, and deletion iterations strictly ascending in 0..iterations."""
    rows = obj["clusters"]
    if not rows:
        raise IoError("a model needs at least one cluster")
    iterations, deleted = obj["iterations"], obj["deleted_count"]
    for name, v in (("iterations", iterations), ("deleted_count", deleted)):
        if type(v) is not int or v < 0:
            raise IoError(f"{name} must be a non-negative integer, got {v!r}")
    costs = obj["cost_trace"]
    if len(costs) != iterations + 1:
        raise IoError(f"cost_trace must hold iterations + 1 = {iterations + 1} costs")
    if not all(type(c) in (int, float) and math.isfinite(c) for c in costs):
        raise IoError("every cost must be a finite number")
    # -1 < first < ... < last < iterations + 1
    steps = [-1, *obj.get("deletion_iterations", []), iterations + 1]
    if not all(type(i) is int for i in steps) or any(a >= b for a, b in zip(steps, steps[1:])):
        raise IoError("deletion_iterations must be strictly ascending integers in 0..iterations")
    fam = _family_from_json(rows[0]["curve"]["family"])
    for c in rows:
        # the curve's intercept carries the dependent mean; the field stays in
        # the format, always 0
        if c["mean_dep"] != 0:
            raise IoError(f"mean_dep must be 0, got {c['mean_dep']!r}")
        # every cluster is scored from one design of one family
        if _family_from_json(c["curve"]["family"]) != fam:
            raise IoError("every cluster must use the first cluster's family")
    k, m = len(rows), fam.input_dim

    def field(name, shape=(), integer=False, get=None):
        """c[name] (or get(c)) of every cluster c stacked, (k, *shape); IoError
        unless every entry is a finite JSON number, an integer if integer."""
        a = np.array([get(c) if get else c[name] for c in rows])
        if a.shape != (k, *shape):
            raise IoError(f"{name} must be shaped {shape} per cluster, got {a.shape[1:]}")
        if a.dtype.kind not in ("iu" if integer else "iuf") or not np.isfinite(a).all():
            raise IoError(f"every {name} must be {'an integer' if integer else 'finite'}")
        return a if integer else a.astype(float)

    axis = field("dependent_axis", integer=True)
    if not ((axis >= 0) & (axis <= m)).all():
        raise IoError(f"dependent_axis must be in 0..{m}, got {axis.tolist()}")
    mean_exp, cov_exp = field("mean_exp", (m,)), field("cov_exp", (m, m))
    coeffs = field("coeffs", (fam.size,), get=lambda c: c["curve"]["coeffs"])
    sse = field("sse", get=lambda c: c["curve"]["sse"])
    resid_var, weight, h = field("resid_var"), field("weight"), field("cross_entropy")
    # scoring takes the log of resid_var
    if not (resid_var > 0).all():
        raise IoError("resid_var must be > 0")
    if not (sse >= 0).all():
        raise IoError("sse must be >= 0")
    size = field("size", integer=True)
    assignment = np.asarray(obj["assignment"])
    if assignment.ndim != 1 or assignment.dtype.kind not in "iu":
        raise IoError("assignment must be a list of integer labels")
    if not 0 <= assignment.min() <= assignment.max() < k:
        raise IoError(f"assignment labels must be in 0..{k - 1}")
    if not (size > 0).all() or not np.array_equal(np.bincount(assignment, minlength=k), size):
        raise IoError("every size must be positive and count its label in the assignment")
    # as the refit computes it; so each is in (0, 1], and scoring takes its log
    if not np.array_equal(weight, size / assignment.size):
        raise IoError("every weight must be its size / the number of points")
    try:
        w, consts = param_weights(fam, axis, mean_exp, cov_exp, resid_var, coeffs)
    except NotPositiveDefinite as e:
        raise IoError(f"a cov_exp is not positive definite: {e}") from e
    fits = ClusterFits(fam, axis, mean_exp, cov_exp, resid_var, coeffs, sse, h, weight, w, consts)
    return AfcecModel(
        clusters=fits,
        assignment=assignment,
        cost_trace=[float(v) for v in costs],
        deleted_count=deleted,
        deletion_iterations=steps[1:-1],
    )


def save_model(model, path):
    """Compact JSON round-trip; floats use shortest round-trip decimals, so
    every numeric field reloads bit-identical."""
    # json.dumps, unlike json.dump, encodes in one pass of the C encoder
    _write_text(path, json.dumps(model_to_json(model), separators=(",", ":")))


def load_model(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise IoError(str(e)) from e
    except json.JSONDecodeError as e:
        raise IoError(f"invalid JSON: {e}") from e
    return model_from_json(obj)


CURVE_SAMPLES = 200


def export_plot_data(x, model, path):
    """CSV for plotting: every point with its assigned cluster, then for each
    cluster 200 samples of its fitted curve.

    Columns: kind,cluster,c0,...,c{d-1}. Point rows carry the data coordinates;
    curve rows walk the straight segment between the cluster's explanatory
    min and max corners and place coordinate j on the fitted curve. The rows
    are csv_lines, written at once.
    """
    rows_arr = np.asarray(getattr(x, "rows", x), dtype=float)
    d = rows_arr.shape[1]
    assignment = np.asarray(model.assignment)
    parts = [
        csv_lines([["kind", "cluster"] + [f"c{i}" for i in range(d)]]),
        csv_lines(["point", a, *row] for row, a in zip(rows_arr.tolist(), assignment.tolist())),
    ]
    frac = np.linspace(0.0, 1.0, CURVE_SAMPLES)[:, None]
    f = model.clusters
    for i, (j, coeffs) in enumerate(zip(f.axis.tolist(), f.coeffs)):
        xe = np.delete(rows_arr[assignment == i], j, axis=1)
        lo, hi = xe.min(axis=0), xe.max(axis=0)
        path_pts = lo + frac * (hi - lo)
        coords = np.insert(path_pts, j, CurveFit(f.family, coeffs).evaluate(path_pts), axis=1)
        parts.append(csv_lines(["curve", i, *row] for row in coords.tolist()))
    _write_text(path, "".join(parts))
