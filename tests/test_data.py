import csv
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from afcec import data
from afcec.curves import builtin_family
from afcec.data import (
    Dataset,
    GeneratorSpec,
    export_plot_data,
    generate,
    load_csv,
    load_model,
    model_from_json,
    model_to_json,
    save_csv,
    save_model,
)
from afcec.engine import EngineConfig, fit
from afcec.errors import InvalidSpec, IoError, ParseError, SchemaVersionMismatch


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros(5))  # not 2-d
    with pytest.raises(ValueError):
        Dataset(np.zeros((5, 1)))  # too thin
    with pytest.raises(ValueError):
        Dataset(np.array([[0.0, np.inf]]))


def test_generator_determinism():
    spec = GeneratorSpec(kind="strokes", n=400, noise_sigma=0.05, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.rows, b.rows)


def test_generator_kinds_and_shapes():
    for kind, d in (("circle", 2), ("spiral", 2), ("strokes", 2), ("parametric3d", 3)):
        ds = generate(GeneratorSpec(kind=kind, n=120, noise_sigma=0.05, seed=1))
        assert ds.n == 120
        assert ds.d == d


def test_circle_points_near_ring():
    ds = generate(GeneratorSpec(kind="circle", n=500, noise_sigma=0.02, seed=2))
    r = np.hypot(ds.rows[:, 0], ds.rows[:, 1])
    assert abs(r.mean() - 1.0) < 0.02
    assert r.std() < 0.05


def test_generator_spec_validation():
    with pytest.raises(InvalidSpec):
        GeneratorSpec(kind="torus").validate()
    with pytest.raises(InvalidSpec):
        GeneratorSpec(kind="circle", n=5).validate()
    with pytest.raises(InvalidSpec):
        GeneratorSpec(kind="circle", noise_sigma=-0.1).validate()


def test_csv_round_trip(tmp_path):
    ds = generate(GeneratorSpec(kind="circle", n=50, seed=3))
    path = tmp_path / "pts.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.allclose(back.rows, ds.rows, atol=0.0)  # repr round-trips exactly


@pytest.mark.parametrize("d", [2, 3, 5])
def test_save_csv_writes_the_csv_writer_bytes(tmp_path, d):
    rng = np.random.default_rng(d)
    rows = rng.standard_normal((300, d)) * 10.0 ** rng.integers(-300, 300, (300, d))
    specials = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, -1e16, 1e22, 0.1]
    rows.flat[rng.choice(rows.size, len(specials), replace=False)] = specials
    ds = Dataset(rows)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow([f"x{i}" for i in range(d)])
    for row in ds.rows:
        writer.writerow([repr(float(v)) for v in row])
    path = tmp_path / "pts.csv"
    save_csv(ds, path)
    assert path.read_bytes() == want.getvalue().encode()
    assert np.array_equal(load_csv(path).rows, rows)
    assert np.array_equal(np.signbit(load_csv(path).rows), np.signbit(rows))


# every kind of cell the CSV outputs write: counts and cluster indices, header
# and row names, and floats, which csv.writer writes as their repr
CSV_CELLS = [0, 7, 12345, "x0", "k_final", "point", "curve", 0.1, -0.0, 1e-05, 5e-324,
             1.7976931348623157e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize(
    "records", [[[c]] for c in CSV_CELLS] + [[CSV_CELLS], [CSV_CELLS[:7], CSV_CELLS[7:]]], ids=repr
)
def test_csv_lines_writes_the_csv_writer_bytes(records):
    want = io.StringIO(newline="")
    csv.writer(want).writerows(records)
    reprs = io.StringIO(newline="")
    csv.writer(reprs).writerows(
        [repr(c) if isinstance(c, float) else c for c in rec] for rec in records
    )
    assert data.csv_lines(records) == want.getvalue() == reprs.getvalue()


def test_load_csv_without_header(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    ds = load_csv(path)
    assert ds.n == 2
    assert np.allclose(ds.rows, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_reports_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.row == 3
    assert err.value.col == 2


def test_load_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_csv(tmp_path / "nope.csv")


@pytest.mark.parametrize(
    "text",
    [
        "x0,x1\n1.0,2.0\n3.5,-4e-3\n",
        "1,2\r\n\r\n3,4\r\n",
        "x,y\r1,2\r3,4",
        " 1 , 2\t\n\n3,4\n",
        "1,2\n   \n3,4\n",  # whitespace-only row
        '"1","2"\n3,4\n',  # quoted cells
        '"x0","x1"\n1,2\n',
        "1_0,2\n3,4\n",  # float() takes underscores, loadtxt does not
        "\n1,2\n3,4\n",
        '"x\n0",x1\n1,2\n3,4\n',  # a quoted header cell holding a newline
        "x0,x1\r1.5,2\r\r3,-4\r",
        "\ufeff1.0,2.0\n3.0,4.0\n5.0,6.0\n",  # byte order marks
        "\ufeffx0,x1\n1,2\n",
        '"1","2"\n"3","4"\n',  # every cell quoted
        '"x0","x1"\r\n"1.5",2\r\n3,"-4e-3"\r\n',  # quoted and plain cells mixed
        '"1\n",2\n3,"4\n"\n',  # a quoted cell holding a newline
        '"1"2,3\n4,5\n',  # text after the closing quote joins the cell
        '" 1 ",2\n3,4\n',
        '1,2\n""\n3,4\n',  # a quoted empty row, which loadtxt rejects
    ],
)
def test_load_csv_equals_cell_by_cell_parse(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    # the cell-by-cell parse from the same position as load_csv's, past any header
    with open(path, encoding="utf-8-sig", newline="") as fh:
        want = np.asarray(data._parse_records(fh, data._skip_header(fh)), dtype=float)
    got = load_csv(path).rows
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "text, row, col",
    [
        ("x0,x1\n\n1,2\n3,oops\n", 4, 2),  # blank rows count
        ("\nx0,x1\n1,2\n", 2, 1),  # a header only on the first line
        ("1,2\nx0,x1\n", 2, 1),
        ("1,2\n3,4,\n", 2, 3),
        ("x0,x1\n", None, None),  # no data rows
        ("1,2\n3\n", 2, None),  # ragged: the file record
        ("x0,x1\n\n\r\n", None, None),  # a header and blank lines only
        ("x0,x1\n \n\t\n", None, None),
        ("\ufeffx0,x1\n1,oops\n", 2, 2),
        ('1,2\n"3""4",5\n', 2, 1),  # a doubled quote
        ('1,2\n3,"4,5"\n', 2, 2),  # a quoted comma
        ('1,2\n"3\nx",4\n', 2, 1),  # a quoted newline inside a bad cell
        ('1,2\n3, "4"\n', 2, 2),  # a space before the quote
        ('1,2\n"",4\n', 2, 1),  # an empty quoted cell
        ('1,2\n"3"x,4\n', 2, 1),  # text after the closing quote
        ('1,2\n3,4"5\n', 2, 2),  # a quote inside a cell
    ],
)
def test_load_csv_errors(tmp_path, text, row, col):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError) as err:
            load_csv(path)
    assert (err.value.row, err.value.col) == (row, col)


# records that load_csv skips as blank, a quoted empty cell among them
BLANK_RECORDS = ("", " ", "\t", '""')
BAD_CELLS = ("a", "", " ", "1.2.3", "x0", "0x10")


@st.composite
def _csv_files(draw):
    """(records, values, data_at): a random numeric CSV as lists of cells,
    its finite values, and the index among the records of each values row.
    An optional header comes first; blank records may come anywhere else, and
    any cell may be quoted."""
    width = draw(st.integers(2, 4))
    values = draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width,
                 max_size=width),
        min_size=1, max_size=6,
    ))

    def cell(text):
        return f'"{text}"' if draw(st.booleans()) else text

    records = []
    if draw(st.booleans()):
        # a header: one of its names is not a number, the others may be
        names = [draw(st.sampled_from([f"x{i}", str(i)])) for i in range(width)]
        names[draw(st.integers(0, width - 1))] = "x"
        records.append([cell(name) for name in names])
    data_at = []
    for row in values:
        records += [[b] for b in draw(st.lists(st.sampled_from(BLANK_RECORDS), max_size=2))]
        data_at.append(len(records))
        records.append([cell(repr(v)) for v in row])
    records += [[b] for b in draw(st.lists(st.sampled_from(BLANK_RECORDS), max_size=2))]
    return records, values, data_at


def _write_records(path, records, draw):
    """records written with one drawn line ending (LF, CR or CRLF), the last
    one's optional, and an optional byte order mark."""
    end = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    text = end.join(",".join(rec) for rec in records) + draw(st.sampled_from(["", end]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    path.write_bytes((bom + text).encode())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_load_csv_reads_any_table_under_one_header_rule(tmp_path, source):
    records, values, _ = source.draw(_csv_files())
    path = tmp_path / "t.csv"
    _write_records(path, records, source.draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = load_csv(path).rows
    assert rows.tolist() == values


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_load_csv_names_the_file_record_of_a_defect(tmp_path, source):
    records, _, data_at = source.draw(_csv_files())
    if source.draw(st.booleans(), label="short row"):
        # the first values row sets the width
        assume(len(data_at) > 1)
        at = data_at[source.draw(st.integers(1, len(data_at) - 1))]
        records[at] = records[at][:-1]
        col = None
    else:
        # a first record with a bad cell is the header
        at = source.draw(st.sampled_from(data_at))
        assume(at > 0)
        col = source.draw(st.integers(1, len(records[at])))
        records[at][col - 1] = source.draw(st.sampled_from(BAD_CELLS))
    path = tmp_path / "t.csv"
    _write_records(path, records, source.draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError) as err:
            load_csv(path)
    # file records count from 1, header and blank records included
    assert (err.value.row, err.value.col) == (at + 1, col)


@pytest.mark.parametrize("header", ["", "x0,x1\n"])
def test_load_csv_drops_a_byte_order_mark(tmp_path, header):
    path = tmp_path / "t.csv"
    path.write_bytes(("\ufeff" + header + "1.0,2.0\n3.0,4.0\n5.0,6.0\n").encode())
    assert load_csv(path).rows.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


@pytest.mark.parametrize("raw", [b"x\xb0,y\n1,2\n", b"1,2\n3,\xff\n"])
def test_load_csv_rejects_bytes_that_are_not_utf8(tmp_path, raw):
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(path)


def test_load_csv_holds_no_copy_of_the_text(tmp_path):
    path = tmp_path / "strokes.csv"
    save_csv(generate(GeneratorSpec(kind="strokes", n=20000, seed=0)), path)
    tracemalloc.start()
    try:
        rows = load_csv(path).rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the file's text alone is over twice the array's size
    assert peak <= 3 * rows.nbytes


def test_load_csv_holds_no_copy_of_quoted_text(tmp_path):
    ds = generate(GeneratorSpec(kind="strokes", n=20000, seed=0))
    path = tmp_path / "quoted.csv"
    lines = ['"x0","x1"'] + [",".join(f'"{v!r}"' for v in row) for row in ds.rows.tolist()]
    path.write_text("".join(line + "\r\n" for line in lines), newline="")
    tracemalloc.start()
    try:
        rows = load_csv(path).rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, ds.rows)
    assert peak <= 3 * rows.nbytes


def _small_model():
    ds = generate(GeneratorSpec(kind="circle", n=150, noise_sigma=0.08, seed=4))
    return ds, fit(ds, EngineConfig(k_init=2, family=builtin_family("quadratic", 1), seed=0))


def test_model_json_round_trip(tmp_path):
    ds, m = _small_model()
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    assert back.k == m.k
    assert np.array_equal(back.assignment, m.assignment)
    assert back.final_cost == m.final_cost
    for c0, c1 in zip(m.clusters, back.clusters):
        assert c0.weight == c1.weight
        assert c0.params.dependent_axis == c1.params.dependent_axis
        assert np.array_equal(c0.params.curve.coeffs, c1.params.curve.coeffs)
        assert np.array_equal(c0.params.cov_exp, c1.params.cov_exp)


def test_save_model_writes_compact_json(tmp_path):
    ds, m = _small_model()
    path = tmp_path / "model.json"
    save_model(m, path)
    text = path.read_text()
    assert "\n" not in text and ", " not in text
    assert path.read_bytes() == json.dumps(model_to_json(m), separators=(",", ":")).encode()
    assert json.loads(text) == model_to_json(m)


def test_model_json_schema_guard():
    ds, m = _small_model()
    blob = model_to_json(m)
    blob["schema"] = 999
    with pytest.raises(SchemaVersionMismatch):
        model_from_json(blob)


# A schema-1 model file as save_model writes it, basis rows as {tag, exponents}:
# one 3-d cluster on the quadratic family over two coordinates.
SCHEMA1_MODEL = {
    "schema": 1,
    "clusters": [
        {
            "dependent_axis": 2,
            "mean_exp": [0.25, -1.5],
            "cov_exp": [[1.0, 0.125], [0.125, 2.0]],
            "resid_var": 0.01,
            "mean_dep": 0.0,
            "curve": {
                "family": {
                    "kind": "quadratic",
                    "input_dim": 2,
                    "basis": [
                        {"tag": "constant", "exponents": [0, 0]},
                        {"tag": "linear", "exponents": [1, 0]},
                        {"tag": "linear", "exponents": [0, 1]},
                        {"tag": "monomial", "exponents": [2, 0]},
                        {"tag": "monomial", "exponents": [1, 1]},
                        {"tag": "monomial", "exponents": [0, 2]},
                    ],
                },
                "coeffs": [0.5, -1.0, 2.0, 0.1, 0.2, -0.3],
                "sse": 0.04,
            },
            "weight": 1.0,
            "size": 4,
            "cross_entropy": 1.2345678901234567,
        }
    ],
    "assignment": [0, 0, 0, 0],
    "cost_trace": [2.5, 1.2345678901234567],
    "iterations": 1,
    "deleted_count": 0,
    "deletion_iterations": [],
}


def test_schema1_model_loads_and_reserializes_unchanged():
    model = model_from_json(json.loads(json.dumps(SCHEMA1_MODEL)))
    fam = model.clusters[0].params.curve.family
    assert fam == builtin_family("quadratic", 2)
    assert hash(fam) == hash(builtin_family("quadratic", 2))
    curve = model.clusters[0].params.curve
    assert curve.evaluate([[1.0, 2.0]]).tolist() == [0.5 - 1.0 + 4.0 + 0.1 + 0.4 - 1.2]
    assert json.dumps(model_to_json(model)) == json.dumps(SCHEMA1_MODEL)


def test_nonzero_mean_dep_is_rejected():
    # the curve's intercept carries the dependent mean, so the model has no
    # field for an offset beside it
    blob = json.loads(json.dumps(SCHEMA1_MODEL))
    blob["clusters"][0]["mean_dep"] = 0.25
    with pytest.raises(IoError, match="mean_dep"):
        model_from_json(blob)


def _without_curve(blob):
    del blob["clusters"][0]["curve"]
    return blob


def _setting(*path, value):
    """An edit setting the first cluster's field at path to value."""

    def edit(blob):
        target = blob["clusters"][0]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return blob

    return edit


def _adding_cluster(kind, input_dim):
    """An edit appending a cluster that fits its own family, kind over
    input_dim coordinates, but not the first cluster's."""

    def edit(blob):
        fam = builtin_family(kind, input_dim)
        m = input_dim
        cluster = {
            **blob["clusters"][0],
            "dependent_axis": m,
            "mean_exp": [0.0] * m,
            "cov_exp": np.eye(m).tolist(),
            "curve": {"family": data._family_to_json(fam), "coeffs": [0.0] * fam.size, "sse": 0.0},
        }
        blob["clusters"].append(cluster)
        return blob

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda blob: {"schema": 1},
        lambda blob: {**blob, "clusters": [], "cost_trace": []},
        lambda blob: {**blob, "cost_trace": []},
        _without_curve,
        lambda blob: [blob],
        _setting("curve", "coeffs", value=[0.5]),
        _setting("curve", "family", "basis", 3, "exponents", value=[3, 0]),
        _setting("dependent_axis", value=-1),
        _setting("dependent_axis", value=3),
        _setting("mean_exp", value=[0.25]),
        _setting("mean_exp", value=[[0.25, -1.5]]),
        _setting("cov_exp", value=[[1.0]]),
        _adding_cluster("linear", 2),
        _adding_cluster("quadratic", 1),
        _setting("mean_exp", value=[0.25, math.inf]),
        _setting("cov_exp", value=[[1.0, math.nan], [math.nan, 2.0]]),
        _setting("curve", "coeffs", value=[0.5, -1.0, 2.0, 0.1, -math.inf, -0.3]),
        _setting("resid_var", value=math.nan),
        _setting("resid_var", value=math.inf),
        _setting("resid_var", value=0.0),
        _setting("resid_var", value=-0.01),
        _setting("weight", value=math.nan),
        _setting("weight", value=0.0),
        _setting("weight", value=-1.0),
        _setting("weight", value=7.0),
    ],
    ids=[
        "schema-only", "no-clusters-no-costs", "no-costs", "cluster-without-curve",
        "not-an-object", "short-coeffs", "cube-without-square", "axis-below-0", "axis-above-d-1",
        "short-mean-exp", "2d-mean-exp", "small-cov-exp", "second-family", "second-dimension",
        "inf-mean-exp", "nan-cov-exp", "inf-coeff", "nan-resid-var", "inf-resid-var",
        "zero-resid-var", "negative-resid-var", "nan-weight", "zero-weight", "negative-weight",
        "weight-above-1",
    ],
)
def test_incomplete_model_file_is_an_io_error(tmp_path, edit):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(json.loads(json.dumps(SCHEMA1_MODEL)))))
    with pytest.raises(IoError):
        load_model(path)


def test_load_model_bad_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(IoError):
        load_model(path)
    with pytest.raises(IoError):
        load_model(tmp_path / "absent.json")


def _csv_writer_plot_data(x, model, path):
    """export_plot_data's rows written one csv.writer row at a time."""
    rows = np.asarray(x.rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "cluster"] + [f"c{i}" for i in range(rows.shape[1])])
        for row, a in zip(rows, model.assignment):
            writer.writerow(["point", int(a)] + [repr(float(v)) for v in row])
        for i, cl in enumerate(model.clusters):
            j = cl.params.dependent_axis
            xe = np.delete(rows[np.asarray(model.assignment) == i], j, axis=1)
            lo, hi = xe.min(axis=0), xe.max(axis=0)
            path_pts = lo + np.linspace(0.0, 1.0, data.CURVE_SAMPLES)[:, None] * (hi - lo)
            for pt, v in zip(path_pts, cl.params.curve.evaluate(path_pts)):
                coords = list(pt[:j]) + [v] + list(pt[j:])
                writer.writerow(["curve", i] + [repr(float(c)) for c in coords])


@pytest.mark.parametrize("kind, family", [("circle", "quadratic"), ("parametric3d", "cubic")])
def test_export_plot_data_writes_the_csv_writer_bytes(tmp_path, kind, family):
    ds = generate(GeneratorSpec(kind=kind, n=300, seed=5))
    m = fit(ds, EngineConfig(k_init=3, family=builtin_family(family, ds.d - 1), seed=1))
    export_plot_data(ds, m, tmp_path / "plot.csv")
    _csv_writer_plot_data(ds, m, tmp_path / "want.csv")
    assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_export_plot_data(tmp_path):
    ds, m = _small_model()
    path = tmp_path / "plot.csv"
    export_plot_data(ds, m, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kind,cluster,c0,c1"
    kinds = {ln.split(",")[0] for ln in lines[1:]}
    assert kinds == {"point", "curve"}
    n_points = sum(1 for ln in lines[1:] if ln.startswith("point"))
    assert n_points == ds.n
