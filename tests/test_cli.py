import csv
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import afcec
from afcec import engine, selection
from afcec.cli import main
from afcec.curves import builtin_family
from afcec.data import GeneratorSpec, generate, load_csv, load_model, save_csv
from afcec.errors import AllClustersDegenerate, ZeroResidualWarning


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


_T = np.random.default_rng(0).uniform(-1.0, 1.0, 60)
_XY = np.random.default_rng(2).standard_normal((60, 2))
_STROKES = generate(GeneratorSpec(kind="strokes", n=600, seed=2)).rows
# input rows, then the documented outcome of `fit --k 2 --seed 0`: its exit
# code and whether a residual variance is floored (ZeroResidualWarning)
DEGENERATE_INPUTS = {
    # two clusters over three distinct points: each fit is exact
    "duplicate-points": (np.repeat([[0.3, -1.2], [1.5, 0.4], [-0.7, 0.9]], 20, axis=0), 0, True),
    "exact-line": (np.column_stack([_T, 2.0 * _T + 1.0]), 0, True),
    "exact-line-moved-by-1e6": (np.column_stack([_T, 2.0 * _T + 1.0]) + 1e6, 0, True),
    "exact-parabola": (np.column_stack([_T, _T * _T - 0.5]), 0, True),
    # n = k * (d + 1): three points per cluster fit the quadratic exactly
    "n-is-k(d+1)": (np.random.default_rng(1).standard_normal((6, 2)), 0, True),
    # no cluster has a covariance to regularize: exit 3 with no output
    "constant": (np.ones((30, 2)), 3, False),
    # z is constant, so it is every cluster's dependent axis, floored at
    # RESID_VAR_FLOOR whatever constant it is (see SAME_COST)
    "constant-coordinate": (np.column_stack([_XY, np.full(60, 0.1)]), 0, True),
    # residuals of 1e-6 against a spread of about 0.3: the Gram's Schur
    # complement would cancel, so the refit sums these SSEs explicitly
    "parabola-with-noise-1e-6": (
        np.column_stack([_T, _T * _T - 0.5 + 1e-6 * np.random.default_rng(3).standard_normal(60)]),
        0,
        False,
    ),
    # the covariance eigendecomposition breaks down (np.linalg.LinAlgError)
    # this far from unit scale: exit 3 with no output
    "strokes-scaled-by-1e100": (_STROKES * 1e100, 3, False),
    "strokes-scaled-by-1e-100": (_STROKES * 1e-100, 3, False),
}
# inputs whose fit must cost what the named case's fit costs
SAME_COST = {
    "exact-line-moved-by-1e6": DEGENERATE_INPUTS["exact-line"][0],
    "constant-coordinate": np.column_stack([_XY, np.ones(60)]),
}


def _save_rows(path, rows):
    header = ",".join(f"x{i}" for i in range(rows.shape[1]))
    np.savetxt(path, rows, delimiter=",", header=header, comments="")


@pytest.mark.parametrize("case", sorted(DEGENERATE_INPUTS))
def test_fit_degenerate_inputs_have_their_documented_outcome(tmp_path, capsys, case):
    rows, want_code, floored = DEGENERATE_INPUTS[case]
    path, model_path = tmp_path / "in.csv", tmp_path / "m.json"
    _save_rows(path, rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(capsys, "fit", "--input", str(path), "--k", "2", "--seed", "0",
                         "--output-model", str(model_path))
    assert code == want_code
    assert (ZeroResidualWarning in [w.category for w in caught]) == floored
    if code:
        assert out == ""
        return
    payload = json.loads(out)
    assert all(np.isfinite(v) for v in payload.values())
    model = load_model(model_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroResidualWarning)
        recomputed = engine.cost(rows, model.clusters, model.assignment)
    assert payload["cost"] == pytest.approx(recomputed, rel=1e-9)
    if case in SAME_COST:
        _save_rows(path, SAME_COST[case])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroResidualWarning)
            _, twin = _run(capsys, "fit", "--input", str(path), "--k", "2", "--seed", "0")
        assert payload["cost"] == pytest.approx(json.loads(twin)["cost"], rel=1e-9)


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
    "flag",
    [["--epsilon", "-1"], ["--max-iters", "0"], ["--restarts", "0"]],
    ids=["epsilon", "max-iters", "restarts"],
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


SWEEP_HEADER = ["k", "k_final", "cost", "loglik_mixture", "loglik_max", "n_params", "bic", "aic"]


def _per_k_sweep(path, k_max, restarts, family, ll_mode="mixture", **cfg_kw):
    """(stdout, exit code) of the sweep as one fit_restarts call per k, each
    scored on its own: the loop cmd_sweep ran before its k values shared
    lockstep batches."""
    ds = load_csv(path)
    cache = engine.DesignCache(ds.rows)
    cfg = engine.EngineConfig(k_init=1, family=builtin_family(family, ds.d - 1), **cfg_kw)
    other = "max" if ll_mode == "mixture" else "mixture"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_HEADER)
    for k in range(1, k_max + 1):
        try:
            best, _ = engine.fit_restarts(cache, replace(cfg, k_init=k), restarts)
        except AllClustersDegenerate:
            return buf.getvalue(), 3
        sc = selection.score(cache, best, ll_mode)
        ll = {ll_mode: sc.loglik, other: selection.log_likelihood(cache, best, other)}
        writer.writerow([
            k, best.k, repr(best.final_cost), repr(ll["mixture"]), repr(ll["max"]),
            sc.n_params, repr(sc.bic), repr(sc.aic),
        ])
    return buf.getvalue(), 0


SWEEP_CASES = {
    # name: (generator spec, sweep flags, the oracle's keywords)
    "deletions": (
        GeneratorSpec("circle", n=300, seed=3),
        ["--k-max", "6", "--restarts", "3", "--deletion-fraction", "0.1", "--seed", "4"],
        dict(k_max=6, restarts=3, family="quadratic", deletion_fraction=0.1, seed=4),
    ),
    "kmeanspp": (
        GeneratorSpec("strokes", n=500, seed=1),
        ["--k-max", "6", "--restarts", "2", "--init", "kmeanspp", "--ll-mode", "max"],
        dict(k_max=6, restarts=2, family="quadratic", init="kmeanspp", ll_mode="max"),
    ),
    "cubic-3d": (
        GeneratorSpec("parametric3d", n=400, seed=2),
        ["--k-max", "5", "--restarts", "2", "--family", "cubic", "--max-iters", "15"],
        dict(k_max=5, restarts=2, family="cubic", max_iters=15),
    ),
    # every restart at k=2 leaves no cluster above the threshold: exit 3 after row 1
    "k-fails": (
        GeneratorSpec("circle", n=300, seed=0),
        ["--k-max", "4", "--restarts", "2", "--deletion-fraction", "0.6"],
        dict(k_max=4, restarts=2, family="quadratic", deletion_fraction=0.6),
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_equals_the_per_k_loop(tmp_path, capsys, monkeypatch, case):
    spec, flags, oracle = SWEEP_CASES[case]
    path = tmp_path / "in.csv"
    save_csv(generate(spec), path)
    want = _per_k_sweep(path, **oracle)
    if case == "k-fails":
        assert want[1] == 3 and want[0].count("\n") == 2
    run_points = oracle["restarts"] * spec.n
    # the default cap, one k per batch, two k per batch, and every k in one batch
    for cap in (engine.LOCKSTEP_POINTS, 1, 2 * run_points, 1 << 40):
        monkeypatch.setattr(engine, "LOCKSTEP_POINTS", cap)
        code, out = _run(capsys, "sweep", "--input", str(path), *flags)
        assert (out, code) == want, cap


# up to 10 clusters on 300 points keep clusters as small as the 1% threshold,
# 3 points, which a quadratic curve interpolates: their residuals are floored
@pytest.mark.filterwarnings("ignore::afcec.errors.ZeroResidualWarning")
def test_sweep_batches_hold_whole_k_values_under_the_cap(tmp_path, capsys, monkeypatch):
    calls = {"init": [], "refit": []}
    init, reestimate = engine._init_partition, engine._reestimate

    def record_init(x, how, runs):
        calls["init"].append([k for k, _ in runs])
        return init(x, how, runs)

    def record_refit(cache, labels, ks, family):
        calls["refit"].append(labels.shape)
        return reestimate(cache, labels, ks, family)

    monkeypatch.setattr(engine, "_init_partition", record_init)
    monkeypatch.setattr(engine, "_reestimate", record_refit)
    for n, restarts, cap, batches in [
        # the benchmark's ring sweep: restarts x n = 8000 run-points per k
        (2000, 4, None, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10]]),
        (300, 2, 1000, [[k] for k in range(1, 11)]),  # under the cap, but two k are over
        (300, 4, 1000, [[k] for k in range(1, 11)]),  # one k alone is over the cap
        (300, 3, 1800, [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]]),
    ]:
        if cap is not None:
            monkeypatch.setattr(engine, "LOCKSTEP_POINTS", cap)
        cap = engine.LOCKSTEP_POINTS
        path = tmp_path / f"ring{n}.csv"
        save_csv(generate(GeneratorSpec("circle", n=n, seed=1)), path)
        calls["init"].clear()
        calls["refit"].clear()
        code, _ = _run(capsys, "sweep", "--input", str(path), "--k-max", "10",
                       "--restarts", str(restarts), "--max-iters", "3")
        assert code == 0
        assert calls["init"] == [[k for k in ks for _ in range(restarts)] for ks in batches]
        assert calls["refit"]
        for runs, points in calls["refit"]:
            assert points == n
            assert runs * n <= max(restarts * n, cap)
            if restarts * n >= cap:
                assert runs == restarts


def test_import_leaves_out_scipy_integrate():
    # fold_mass needs neither (its Gauss-Legendre rule is written out), and
    # importing either would slow every command's start-up
    script = (
        "import sys, afcec, afcec.cli; "
        "sys.exit(any(m in sys.modules for m in ('scipy.integrate', 'numpy.polynomial')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(afcec.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0


def test_acagmm_check_runs_without_scipy():
    # the fold mass is numpy and math alone, so the command loads no scipy
    script = (
        "import sys, afcec.cli; "
        "rc = afcec.cli.main(['acagmm-check', '--n', '60']); "
        "sys.exit(rc or any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(afcec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(b"\n") == 28


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


def _csv_writer_text(text):
    """text's records parsed by csv.reader and written again by csv.writer."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(csv.reader(io.StringIO(text, newline="")))
    return buf.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--k-max", "3", "--restarts", "2"],
        ["acagmm-check", "--a-grid", "1,-2.5", "--sigma-grid", "0.1,3", "--n", "100"],
    ],
    ids=["sweep", "acagmm-check"],
)
def test_csv_tables_are_the_csv_writer_bytes(circle_csv, capsys, argv):
    if argv[0] == "sweep":
        argv = [*argv, "--input", circle_csv]
    code, out = _run(capsys, *argv)
    assert code == 0
    assert out.endswith("\r\n") and out.count("\n") > 2
    assert out == _csv_writer_text(out)


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


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--a-grid", "1e-300"], "a=1e-300"),
        (["--a-grid", "1e300"], "a=1e+300"),
        (["--box", "1e160", "--sigma-grid", "2e159"], "box=1e+160"),
        (["--a-grid", "1", "--sigma-grid", "1e-300", "--box", "1e-299", "--n", "40"],
         "sigma grid (1e-300,)"),
        (["--sigma-grid", "1e200", "--box", "2e200"], "sigma grid (1e+200,)"),
    ],
    ids=["tiny-a", "huge-a", "huge-box", "tiny-sigma", "huge-sigma"],
)
def test_acagmm_check_beyond_float64_is_config_error(capsys, caplog, argv, config):
    # each of these overflows or divides by zero somewhere in the table: it
    # must fail naming its configuration, not print NaN or raise. Each grid
    # resolves its sigmas (at least one grid spacing, a box of at least 1.5
    # sigmas), so float64's range is what fails
    code, out = _run(capsys, "acagmm-check", "--n", "20", "--sigma-grid", "1", *argv)
    assert code == 1
    assert out == ""
    assert "out of float64 range" in caplog.text
    assert config in caplog.text


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--sigma-grid", "0.001"], "under 1 grid spacing"),
        (["--sigma-grid", "0.01"], "under 1 grid spacing"),
        (["--sigma-grid", "100", "--n", "20"], "under 1.5 widest sigmas"),
    ],
    ids=["sigma-0.001", "sigma-0.01", "sigma-100"],
)
def test_acagmm_check_refuses_what_the_grid_cannot_resolve(capsys, caplog, argv, reason):
    # a sigma under the grid spacing (0.02 at the defaults) or a box holding
    # little of the mass once printed meaningless integrals with exit 0
    code, out = _run(capsys, "acagmm-check", "--a-grid", "1", *argv)
    assert code == 1
    assert out == ""
    assert reason in caplog.text
    assert f"sigma grid ({argv[1]}" in caplog.text


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["a-grid", "sigma-grid", "box"])
def test_acagmm_check_non_finite_value_is_config_error(capsys, flag, value):
    # "--flag=value": argparse reads a separate "-inf" as an option
    code, out = _run(capsys, "acagmm-check", f"--{flag}={value}", "--n", "20")
    assert code == 1
    assert out == ""
