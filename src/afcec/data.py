"""Dataset container, CSV I/O, synthetic generators, model serialization."""

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import CurveFit, FunctionFamily
from .density import FAdaptedParams
from .engine import AfcecModel, ClusterModel
from .errors import InvalidSpec, IoError, ParseError, SchemaVersionMismatch

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
    rng = np.random.default_rng(spec.seed & 0xFFFFFFFFFFFFFFFF)
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
    """Numeric CSV with an optional single header line (the first line, when
    one of its cells is not a number). Blank lines are skipped. The file is
    read as UTF-8, a leading byte order mark dropped; other bytes raise
    ParseError.

    The rows are parsed from the open file (_parse_numeric), so no copy of
    its text is held; only a file that np.loadtxt rejects is read whole and
    parsed cell by cell (_parse_records)."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = _parse_numeric(fh)
            if rows is None:
                fh.seek(0)
                rows = _parse_records(fh.read())
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


def _numeric(rec):
    try:
        for cell in rec:
            float(cell)
    except ValueError:
        return False
    return True


def _parse_numeric(fh):
    """Every row past the header in one np.loadtxt call, read from the text
    file fh (opened with newline="").

    None when there is no row or loadtxt fails (a non-numeric or empty cell,
    a quote that does not open a cell, ragged or whitespace-only rows);
    _parse_records then decides. loadtxt reads quoted cells as csv.reader
    does and parses a subset of what float() accepts, to the same values.
    """
    first = next(csv.reader(iter(fh.readline, "")), [])
    if _blank(first) or _numeric(first):
        fh.seek(0)
    start = fh.tell()
    # loadtxt warns on a stream with no row, so look for one first
    if not any(line.strip() for line in iter(fh.readline, "")):
        return None
    fh.seek(start)
    try:
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, quotechar='"')
    except ValueError:
        return None


def _parse_records(text):
    """Row lists from csv.reader, one cell at a time; raises ParseError at the
    first non-numeric cell past the header, or at the first ragged row."""
    rows = []
    for rix, rec in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if _blank(rec):
            continue
        vals = []
        for cix, cell in enumerate(rec, start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                if rix == 1 and not rows:
                    vals = None  # header line
                    break
                raise ParseError(
                    f"non-numeric cell {cell!r} at row {rix}, column {cix}",
                    row=rix,
                    col=cix,
                ) from None
        if vals is not None:
            rows.append(vals)
    if not rows:
        raise ParseError("no data rows")
    width = len(rows[0])
    for rix, r in enumerate(rows, start=1):
        if len(r) != width:
            raise ParseError(f"row {rix} has {len(r)} cells, expected {width}", row=rix)
    return rows


def save_csv(ds, path):
    """The bytes csv.writer writes for the rows as repr strings (shortest
    round-trip decimals, which it never quotes) under an x0,x1,... header,
    built as one string and written at once."""
    lines = [",".join(f"x{i}" for i in range(ds.d))]
    lines += [",".join(map(repr, row)) for row in ds.rows.tolist()]
    try:
        with open(path, "w", newline="") as fh:
            fh.write("".join(line + "\r\n" for line in lines))
    except OSError as e:
        raise IoError(str(e)) from e


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
    exponents = [[int(e) for e in b["exponents"]] for b in obj["basis"]]
    return FunctionFamily(int(obj["input_dim"]), exponents, obj.get("kind", "custom"))


def model_to_json(model):
    clusters = []
    for cl in model.clusters:
        p = cl.params
        clusters.append(
            {
                "dependent_axis": int(p.dependent_axis),
                "mean_exp": p.mean_exp.tolist(),
                "cov_exp": p.cov_exp.tolist(),
                "resid_var": p.resid_var,
                "mean_dep": 0.0,
                "curve": {
                    "family": _family_to_json(p.curve.family),
                    "coeffs": np.asarray(p.curve.coeffs, dtype=float).tolist(),
                    "sse": p.curve.sse,
                },
                "weight": cl.weight,
                "size": int(cl.size),
                "cross_entropy": cl.cross_entropy,
            }
        )
    return {
        "schema": MODEL_SCHEMA,
        "clusters": clusters,
        "assignment": model.assignment.tolist(),
        "cost_trace": list(model.cost_trace),
        "iterations": int(model.iterations),
        "deleted_count": int(model.deleted_count),
        "deletion_iterations": [int(i) for i in model.deletion_iterations],
    }


def model_from_json(obj):
    """The AfcecModel a model_to_json object describes. IoError when a field
    is missing or malformed (including a cluster shaped for another family, a
    dependent axis outside 0..d-1, clusters of different families, a
    non-finite mean_exp, cov_exp, coeffs, resid_var or weight, a resid_var
    <= 0 or a weight outside (0, 1]), or the model has no cluster or no cost;
    SchemaVersionMismatch when the schema is not MODEL_SCHEMA."""
    if not isinstance(obj, dict):
        raise IoError(f"a model is a JSON object, got {type(obj).__name__}")
    if obj.get("schema") != MODEL_SCHEMA:
        raise SchemaVersionMismatch(f"schema {obj.get('schema')!r}, expected {MODEL_SCHEMA}")
    try:
        model = _model_fields(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise IoError(f"malformed model: {type(e).__name__}: {e}") from e
    if not model.clusters or not model.cost_trace:
        raise IoError("a model needs at least one cluster and one cost")
    return model


def _model_fields(obj):
    clusters = []
    for c in obj["clusters"]:
        # the curve's intercept carries the dependent mean; the field stays in
        # the format, always 0
        if c["mean_dep"] != 0:
            raise IoError(f"mean_dep must be 0, got {c['mean_dep']!r}")
        fam = _family_from_json(c["curve"]["family"])
        # every cluster is scored from one design of one family
        if clusters and fam != clusters[0].params.curve.family:
            raise IoError("every cluster must use the first cluster's family")
        m = fam.input_dim
        coeffs = np.asarray(c["curve"]["coeffs"], dtype=float)
        mean_exp = np.asarray(c["mean_exp"], dtype=float)
        cov_exp = np.asarray(c["cov_exp"], dtype=float)
        axis = int(c["dependent_axis"])
        if coeffs.shape != (fam.size,) or mean_exp.shape != (m,) or cov_exp.shape != (m, m):
            raise IoError(
                f"coeffs, mean_exp and cov_exp must be shaped ({fam.size},), ({m},) and "
                f"({m}, {m}), got {coeffs.shape}, {mean_exp.shape} and {cov_exp.shape}"
            )
        if not 0 <= axis <= m:
            raise IoError(f"dependent_axis must be in 0..{m}, got {axis}")
        resid_var, weight = float(c["resid_var"]), float(c["weight"])
        if not all(np.isfinite(v).all() for v in (coeffs, mean_exp, cov_exp, resid_var, weight)):
            raise IoError("mean_exp, cov_exp, coeffs, resid_var and weight must be finite")
        # scoring takes the log of the weight; FAdaptedParams rejects a
        # resid_var <= 0
        if not 0 < weight <= 1:
            raise IoError(f"weight must be in (0, 1], got {weight!r}")
        params = FAdaptedParams(
            dependent_axis=axis,
            mean_exp=mean_exp,
            cov_exp=cov_exp,
            resid_var=resid_var,
            curve=CurveFit(fam, coeffs, c["curve"]["sse"]),
        )
        clusters.append(ClusterModel(params, weight, int(c["size"]), c["cross_entropy"]))
    return AfcecModel(
        clusters=clusters,
        assignment=np.asarray(obj["assignment"], dtype=int),
        cost_trace=[float(v) for v in obj["cost_trace"]],
        iterations=int(obj["iterations"]),
        deleted_count=int(obj["deleted_count"]),
        deletion_iterations=[int(i) for i in obj.get("deletion_iterations", [])],
    )


def save_model(model, path):
    """Compact JSON round-trip; floats use shortest round-trip decimals, so
    every numeric field reloads bit-identical."""
    # json.dumps, unlike json.dump, encodes in one pass of the C encoder
    text = json.dumps(model_to_json(model), separators=(",", ":"))
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(str(e)) from e


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
    min and max corners and place coordinate j on the fitted curve. The bytes
    are those csv.writer writes for repr cells (which it never quotes), built
    as one string as in save_csv.
    """
    rows_arr = np.asarray(getattr(x, "rows", x), dtype=float)
    d = rows_arr.shape[1]
    assignment = np.asarray(model.assignment)
    lines = [",".join(["kind", "cluster"] + [f"c{i}" for i in range(d)])]
    lines += [
        f"point,{a},{','.join(map(repr, row))}"
        for row, a in zip(rows_arr.tolist(), assignment.tolist())
    ]
    frac = np.linspace(0.0, 1.0, CURVE_SAMPLES)[:, None]
    for i, cl in enumerate(model.clusters):
        j = cl.params.dependent_axis
        xe = np.delete(rows_arr[assignment == i], j, axis=1)
        lo, hi = xe.min(axis=0), xe.max(axis=0)
        path_pts = lo + frac * (hi - lo)
        coords = np.insert(path_pts, j, cl.params.curve.evaluate(path_pts), axis=1)
        lines += [f"curve,{i},{','.join(map(repr, row))}" for row in coords.tolist()]
    try:
        with open(path, "w", newline="") as fh:
            fh.write("".join(line + "\r\n" for line in lines))
    except OSError as e:
        raise IoError(str(e)) from e
