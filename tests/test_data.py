import csv
import io
import json
import warnings

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        Dataset(np.zeros((5, 2)), labels=np.zeros(4, dtype=int))


def test_generator_determinism():
    spec = GeneratorSpec(kind="strokes", n=400, noise_sigma=0.05, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.labels, b.labels)


def test_generator_kinds_and_shapes():
    for kind, d in (("circle", 2), ("spiral", 2), ("strokes", 2), ("parametric3d", 3)):
        ds = generate(GeneratorSpec(kind=kind, n=120, noise_sigma=0.05, seed=1))
        assert ds.n == 120
        assert ds.d == d
        assert ds.labels is not None and len(ds.labels) == 120


def test_circle_points_near_ring():
    ds = generate(GeneratorSpec(kind="circle", n=500, noise_sigma=0.02, seed=2, radius=1.0))
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


@pytest.mark.parametrize("d, header", [(2, True), (3, False), (5, True)])
def test_save_csv_writes_the_csv_writer_bytes(tmp_path, d, header):
    rng = np.random.default_rng(d)
    rows = rng.standard_normal((300, d)) * 10.0 ** rng.integers(-300, 300, (300, d))
    specials = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, -1e16, 1e22, 0.1]
    rows.flat[rng.choice(rows.size, len(specials), replace=False)] = specials
    ds = Dataset(rows)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    if header:
        writer.writerow([f"x{i}" for i in range(d)])
    for row in ds.rows:
        writer.writerow([repr(float(v)) for v in row])
    path = tmp_path / "pts.csv"
    save_csv(ds, path, header=header)
    assert path.read_bytes() == want.getvalue().encode()
    assert np.array_equal(load_csv(path).rows, rows)
    assert np.array_equal(np.signbit(load_csv(path).rows), np.signbit(rows))


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
    ],
)
def test_load_csv_equals_cell_by_cell_parse(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    want = np.asarray(data._parse_records(text), dtype=float)
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
        ("1,2\n3\n", 2, None),  # ragged: row among the data rows
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
    assert curve.evaluate([1.0, 2.0]) == 0.5 - 1.0 + 4.0 + 0.1 + 0.4 - 1.2
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


@pytest.mark.parametrize(
    "edit",
    [
        lambda blob: {"schema": 1},
        lambda blob: {**blob, "clusters": [], "cost_trace": []},
        lambda blob: {**blob, "cost_trace": []},
        _without_curve,
        lambda blob: [blob],
    ],
    ids=["schema-only", "no-clusters-no-costs", "no-costs", "cluster-without-curve", "not-an-object"],
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
