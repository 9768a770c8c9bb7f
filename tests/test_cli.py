import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import afcec
from afcec.cli import main
from afcec.data import GeneratorSpec, generate, save_csv


@pytest.fixture()
def circle_csv(tmp_path):
    ds = generate(GeneratorSpec(kind="circle", n=200, noise_sigma=0.08, seed=0))
    path = tmp_path / "circle.csv"
    save_csv(ds, path)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fit_emits_exact_json_keys(circle_csv, capsys):
    code, out = _run(capsys, "fit", "--input", circle_csv, "--k", "2", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"cost", "loglik", "bic", "aic", "k_final", "iterations"}
    assert payload["k_final"] >= 1
    assert payload["iterations"] >= 1
    assert np.isfinite(payload["cost"])


def test_fit_writes_model_and_plot(circle_csv, tmp_path, capsys):
    model_path = tmp_path / "m.json"
    plot_path = tmp_path / "p.csv"
    code, out = _run(
        capsys, "fit", "--input", circle_csv, "--k", "2",
        "--output-model", str(model_path), "--output-plot", str(plot_path),
    )
    assert code == 0
    assert json.loads(model_path.read_text())["schema"] == 1
    assert plot_path.read_text().startswith("kind,cluster")


def test_fit_restarts_never_worse(circle_csv, capsys):
    code1, out1 = _run(capsys, "fit", "--input", circle_csv, "--k", "3", "--seed", "0")
    code5, out5 = _run(capsys, "fit", "--input", circle_csv, "--k", "3", "--seed", "0",
                       "--restarts", "5")
    assert code1 == code5 == 0
    assert json.loads(out5)["cost"] <= json.loads(out1)["cost"] + 1e-12


def test_fit_k_zero_is_config_error(circle_csv, capsys):
    code, out = _run(capsys, "fit", "--input", circle_csv, "--k", "0")
    assert code == 1
    assert out == ""


def test_fit_missing_file_is_data_error(capsys):
    code, out = _run(capsys, "fit", "--input", "/nonexistent/x.csv", "--k", "2")
    assert code == 2
    assert out == ""


def test_fit_degenerate_data_exits_3(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("x0,x1\n" + "".join("1.0,1.0\n" for _ in range(30)))
    code, out = _run(capsys, "fit", "--input", str(path), "--k", "2")
    assert code == 3
    assert out == ""


def test_unknown_flag_is_config_error(circle_csv, capsys):
    with pytest.raises(SystemExit) as err:
        main(["fit", "--input", circle_csv, "--k", "2", "--mystery"])
    assert err.value.code == 1


def test_bad_family_is_config_error(circle_csv):
    with pytest.raises(SystemExit) as err:
        main(["fit", "--input", circle_csv, "--k", "2", "--family", "quartic"])
    assert err.value.code == 1


@pytest.mark.parametrize(
    "command", [["fit", "--k", "2"], ["sweep", "--k-max", "2"]], ids=["fit", "sweep"]
)
@pytest.mark.parametrize(
    "flag", [["--epsilon", "-1"], ["--max-iters", "0"]], ids=["epsilon", "max-iters"]
)
def test_bad_engine_flag_is_config_error_with_no_output(circle_csv, capsys, command, flag):
    code, out = _run(capsys, *command, "--input", circle_csv, *flag)
    assert code == 1
    assert out == ""


def test_sweep_k_max_beyond_data_is_config_error_with_no_output(tmp_path, capsys):
    # 30 points in 2-d hold at most k=10 clusters of d+1 points
    path = tmp_path / "small.csv"
    save_csv(generate(GeneratorSpec(kind="circle", n=30, seed=0)), path)
    code, out = _run(capsys, "sweep", "--input", str(path), "--k-max", "11")
    assert code == 1
    assert out == ""


def test_fit_and_sweep_agree(circle_csv, capsys):
    code, out = _run(capsys, "fit", "--input", circle_csv, "--k", "3", "--seed", "2",
                     "--restarts", "2")
    assert code == 0
    fitted = json.loads(out)
    code, out = _run(capsys, "sweep", "--input", circle_csv, "--k-max", "3", "--seed", "2",
                     "--restarts", "2")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[2]
    assert row["k"] == "3"
    assert float(row["cost"]) == fitted["cost"]
    assert float(row["loglik_mixture"]) == fitted["loglik"]
    assert float(row["bic"]) == fitted["bic"]


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate is only needed by acagmm-check's fold mass
    script = (
        "import sys, afcec, afcec.cli; "
        "sys.exit('scipy.integrate' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(afcec.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0


def test_import_leaves_out_scipy_linalg():
    # least squares and every Cholesky factor go through numpy.linalg, and the
    # mixture log-likelihood reduces its own log-sum-exp (no scipy.special)
    script = (
        "import sys, afcec, afcec.cli; "
        "sys.exit(any(m in sys.modules for m in ('scipy.linalg', 'scipy.special')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(afcec.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0


def test_generate_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "gen.csv"
    code, _ = _run(capsys, "generate", "--kind", "spiral", "--n", "100",
                   "--seed", "7", "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == ["x0", "x1"]
    assert len(rows) == 101


def test_sweep_emits_csv_table(circle_csv, capsys):
    code, out = _run(capsys, "sweep", "--input", circle_csv, "--k-max", "3", "--seed", "0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "k_final", "cost", "loglik_mixture", "loglik_max",
                       "n_params", "bic", "aic"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    for r in rows[1:]:
        assert float(r[3]) >= float(r[4]) - 1e-9  # mixture >= max
        ll, npar, n = float(r[3]), float(r[5]), 200
        assert float(r[6]) == pytest.approx(-2 * ll + npar * np.log(n), abs=1e-8)


def test_acagmm_check_table(capsys):
    code, out = _run(capsys, "acagmm-check", "--a-grid", "1.0",
                     "--sigma-grid", "1.0", "--n", "200")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "sigma1", "sigma2", "raw_integral",
                       "corrected_integral", "excluded_mass"]
    assert len(rows) == 2
    assert float(rows[1][3]) == pytest.approx(1.038, abs=3e-3)


def test_acagmm_check_odd_n_is_config_error(capsys):
    code, out = _run(capsys, "acagmm-check", "--n", "301")
    assert code == 1
    assert out == ""


def test_acagmm_check_bad_grid_is_config_error(capsys):
    code, out = _run(capsys, "acagmm-check", "--a-grid", "1.0,zero")
    assert code == 1
    code, out = _run(capsys, "acagmm-check", "--a-grid", "0.0")
    assert code == 1
