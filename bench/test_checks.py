"""Each output check of the benchmark passes on a real result and fails on a
deliberately corrupted copy of it, so the checks are known to work."""

import contextlib
import copy
import io
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from afcec import data  # noqa: E402
from afcec.cli import main  # noqa: E402


def _stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def fit_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit")
    csv_path, model_path = tmp / "in.csv", tmp / "m.json"
    ds = data.generate(data.GeneratorSpec(kind="strokes", n=600, noise_sigma=0.1, seed=3))
    data.save_csv(ds, csv_path)
    out = checks.parse_fit(_stdout("fit", "--input", csv_path, "--k", 6, "--seed", 3,
                                   "--output-model", model_path))
    return out, data.load_model(model_path), ds.rows


def test_fit_check_passes_and_model_has_a_deletion_free_descent(fit_result):
    out, model, x = fit_result
    assert checks.check_fit(out, model, x) == []
    free = [it for it in range(1, model.iterations + 1) if it not in model.deletion_iterations]
    assert free, "the corrupted-trace case below needs a deletion-free iteration"


@pytest.mark.parametrize("field, delta", [("cost", 1e-6), ("bic", 1e-3)])
def test_fit_check_catches_wrong_printed_value(fit_result, field, delta):
    out, model, x = fit_result
    bad = dict(out, **{field: out[field] + delta})
    assert any(field in f for f in checks.check_fit(bad, model, x))


@pytest.mark.parametrize("field", ["k_final", "iterations"])
def test_fit_check_catches_count_mismatch(fit_result, field):
    out, model, x = fit_result
    bad = dict(out, **{field: out[field] + 1})
    assert any(field in f for f in checks.check_fit(bad, model, x))


def test_fit_check_catches_rising_cost_trace(fit_result):
    out, model, x = fit_result
    it = next(i for i in range(1, model.iterations + 1) if i not in model.deletion_iterations)
    trace = list(model.cost_trace)
    trace[it] = trace[it - 1] + 1e-3
    bad = replace(model, cost_trace=trace)
    assert any("cost rose" in f for f in checks.check_fit(out, bad, x))


def test_fit_check_catches_model_that_does_not_match_its_cost(fit_result):
    out, model, x = fit_result
    labels = np.asarray(model.assignment).copy()
    moved = np.flatnonzero(labels == 0)[:5]
    labels[moved] = 1
    bad = replace(model, assignment=labels)
    assert any("engine.cost" in f for f in checks.check_fit(out, bad, x))


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    csv_path = tmp / "in.csv"
    data.save_csv(data.generate(data.GeneratorSpec(kind="circle", n=300, seed=1)), csv_path)
    return checks.parse_table(_stdout("sweep", "--input", csv_path, "--k-max", 3))


def test_sweep_check_passes(sweep_result):
    header, rows = sweep_result
    assert checks.check_sweep(header, rows, 3, 300) == []


def _corrupt(rows, i, col, value):
    bad = copy.deepcopy(rows)
    bad[i][col] = value
    return bad


@pytest.mark.parametrize("corrupt, expect", [
    (lambda rows: rows[:-1], "cover k"),
    (lambda rows: _corrupt(rows, 1, 1, 3.0), "outside 1..k"),
    (lambda rows: _corrupt(rows, 2, 4, float("nan")), "non-finite"),
    (lambda rows: _corrupt(rows, 0, 6, rows[0][6] + 1.0), "disagrees"),
])
def test_sweep_check_catches_corruption(sweep_result, corrupt, expect):
    header, rows = sweep_result
    assert any(expect in f for f in checks.check_sweep(header, corrupt(rows), 3, 300))


@pytest.fixture(scope="module")
def aca_result():
    return checks.parse_table(
        _stdout("acagmm-check", "--a-grid", "0.5,1", "--sigma-grid", "0.5", "--n", 60))


def test_aca_check_passes(aca_result):
    header, rows = aca_result
    assert checks.check_aca(header, rows, 2) == []
    assert checks.aca_summary(rows)["aca_mass_gap"] > 0


@pytest.mark.parametrize("corrupt, expect", [
    (lambda rows: rows[:1], "configurations"),
    (lambda rows: _corrupt(rows, 0, 3, float("inf")), "non-finite"),
    (lambda rows: _corrupt(rows, 1, 4, rows[1][3] * 1.01), "exceeds raw"),
    (lambda rows: _corrupt(rows, 0, 5, -1e-3), "negative excluded"),
])
def test_aca_check_catches_corruption(aca_result, corrupt, expect):
    header, rows = aca_result
    assert any(expect in f for f in checks.check_aca(header, corrupt(rows), 2))


def test_unreadable_outputs_raise():
    with pytest.raises(ValueError):
        checks.parse_fit("not json")
    with pytest.raises(ValueError):
        checks.parse_table("a,b\n1,x\n")
