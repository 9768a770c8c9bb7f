"""Golden outputs: `fit` and `sweep` on small generated inputs must keep
printing the values recorded below.

The values were recorded before the engine's assignment step moved to cached
per-axis designs, so a speed change that alters a result fails here. Counts
must match exactly; costs and scores to GOLDEN_RTOL relative.
"""

import contextlib
import csv
import io
import json

import pytest

from afcec.cli import main
from afcec.data import GeneratorSpec, generate, load_model, save_csv
from afcec.selection import count_params

GOLDEN_RTOL = 1e-9
EXACT = ("k_final", "iterations", "n_params")

FIT_GOLDEN = {
    ("strokes", 3000, "quadratic", 8): {
        "cost": 2.0996449016954513, "loglik": -6097.769093134453,
        "bic": 12643.89477005732, "aic": 12307.538186268906,
        "k_final": 8, "iterations": 37, "n_params": 56,
    },
    # re-recorded when the refit dropped its ridge: a np.longdouble solve on
    # centred data over the same partition gives loglik -348.6815136582782
    ("parametric3d", 2000, "cubic", 6): {
        "cost": 0.23129382162300355, "loglik": -348.6815136582785,
        "bic": 1381.4442486753444, "aic": 877.363027316557,
        "k_final": 6, "iterations": 6, "n_params": 90,
    },
}

# `sweep --k-max 4 --restarts 2` on 400 circle points
SWEEP_GOLDEN = [
    {"k": 1, "k_final": 1, "cost": 2.1428772478452456, "loglik_mixture": -857.1508991380983,
     "loglik_max": -857.1508991380983, "n_params": 7, "bic": 1756.2420501059526,
     "aic": 1728.3017982761967},
    {"k": 2, "k_final": 2, "cost": 1.3414358646221192, "loglik_mixture": -523.9242978649485,
     "loglik_max": -536.5743458488475, "n_params": 14, "bic": 1131.7290993894087,
     "aic": 1075.848595729897},
    {"k": 3, "k_final": 3, "cost": 1.1745836423154554, "loglik_mixture": -450.9845606390978,
     "loglik_max": -469.83345692618207, "n_params": 21, "bic": 1027.7898767674633,
     "aic": 943.9691212781956},
    {"k": 4, "k_final": 4, "cost": 1.127473994884462, "loglik_mixture": -430.3750678475305,
     "loglik_max": -450.9895979537848, "n_params": 28, "bic": 1028.5111430140844,
     "aic": 916.750135695061},
]


def _run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue()


def _write_input(tmp_path, kind, n):
    path = tmp_path / f"{kind}.csv"
    save_csv(generate(GeneratorSpec(kind=kind, n=n, noise_sigma=0.1, seed=1)), path)
    return str(path)


def _assert_matches(got, want):
    for key, value in want.items():
        if key in EXACT or key == "k":
            assert got[key] == value, key
        else:
            assert got[key] == pytest.approx(value, rel=GOLDEN_RTOL, abs=0), key


@pytest.mark.parametrize("case", sorted(FIT_GOLDEN), ids=lambda c: f"{c[0]}-{c[2]}")
def test_fit_matches_golden(tmp_path, case):
    kind, n, family, k = case
    model_path = tmp_path / "model.json"
    out = json.loads(_run(
        "fit", "--input", _write_input(tmp_path, kind, n), "--k", str(k), "--family", family,
        "--seed", "0", "--init", "kmeanspp", "--output-model", str(model_path),
    ))
    out["n_params"] = count_params(load_model(model_path))
    _assert_matches(out, FIT_GOLDEN[case])


def test_sweep_matches_golden(tmp_path):
    out = _run(
        "sweep", "--input", _write_input(tmp_path, "circle", 400),
        "--k-max", "4", "--restarts", "2", "--seed", "0",
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(SWEEP_GOLDEN)
    for row, want in zip(rows, SWEEP_GOLDEN):
        got = {key: (int(v) if key in EXACT or key == "k" else float(v)) for key, v in row.items()}
        _assert_matches(got, want)
