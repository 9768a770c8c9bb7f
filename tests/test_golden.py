"""Golden outputs: `fit`, `sweep` and `acagmm-check` on small or default
inputs must keep printing the values recorded below.

The fit and sweep values were recorded before the engine's assignment step
moved to cached designs (first one per dependent axis, now one union design
per command), so a speed or design change that alters a result fails here.
Counts must match exactly; costs and scores to GOLDEN_RTOL relative. The
acagmm-check table was recorded from the full-grid Simpson walk, before the
table folded its grid about x = 0; its excluded_mass column was re-recorded
when fold_mass's span was cut to where its integrand lives, and again when
fold_mass moved from adaptive quadrature to a fixed Gauss-Legendre rule. The `generate`
digests were recorded before GeneratorSpec's per-kind fields became
constants; the benchmark's inputs come from `afcec generate`.
"""

import contextlib
import csv
import hashlib
import io
import json

import pytest

from afcec.cli import main
from afcec.data import GENERATOR_KINDS, GeneratorSpec, generate, load_model, save_csv
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

# default `acagmm-check`: (a, sigma1, sigma2, raw_integral, corrected_integral,
# excluded_mass), as printed
ACA_GOLDEN = [
    (0.25, 0.25, 0.25, 0.9999999999999994, 0.9999999999999896, 4.390892617493492e-16),
    (0.25, 0.25, 0.5, 1.0000011112878122, 0.9999791216885358, 2.8206775618123737e-05),
    (0.25, 0.25, 1.0, 1.0036900220758802, 0.9797175982668875, 0.021963174489428357),
    (0.25, 0.5, 0.25, 1.0000000000000002, 0.999999999999998, 2.779144358502516e-16),
    (0.25, 0.5, 0.5, 1.000000555439889, 0.9999812280111157, 2.225943279350523e-05),
    (0.25, 0.5, 1.0, 1.002636370210291, 0.9806571028590438, 0.02009352652026458),
    (0.25, 1.0, 0.25, 0.9999999999967126, 0.9999999999967003, 1.5084655995818796e-16),
    (0.25, 1.0, 0.5, 1.000000117560595, 0.9999875888496277, 1.4126057268266154e-05),
    (0.25, 1.0, 1.0, 1.0010850749457276, 0.9845056709659241, 0.01585058518492877),
    (0.5, 0.25, 0.25, 1.0000004548812618, 0.9999798433426984, 2.2259432793505222e-05),
    (0.5, 0.25, 0.5, 1.0026337796125315, 0.980646712467251, 0.02009352652026458),
    (0.5, 0.25, 1.0, 1.0663404397021328, 0.8497003102551445, 0.1520199668376136),
    (0.5, 0.5, 0.25, 1.0000001116691448, 0.999986992671709, 1.4126057268266148e-05),
    (0.5, 0.5, 0.5, 1.0010957505800422, 0.9844756263112975, 0.01585058518492877),
    (0.5, 0.5, 1.0, 1.0419514622871593, 0.8626489414419783, 0.1381081976927305),
    (0.5, 1.0, 0.25, 1.0000000045516957, 0.9999928758361797, 7.687626551075936e-06),
    (0.5, 1.0, 0.5, 1.0001541724996004, 0.989982110537769, 0.010175497824412032),
    (0.5, 1.0, 1.0, 1.0144716138368723, 0.8904239118662471, 0.10993532256547502),
    (1.0, 0.25, 0.25, 1.0010957459770977, 0.9823582790747124, 0.015850585184928767),
    (1.0, 0.25, 0.5, 1.0419562563644424, 0.8581053739422423, 0.13810819769273053),
    (1.0, 0.25, 1.0, 1.2600530281109852, 0.7050499066810895, 0.2922335982722256),
    (1.0, 0.5, 0.25, 1.0001545006001478, 0.9888866935296377, 0.010175497824412032),
    (1.0, 0.5, 0.5, 1.0144816740000644, 0.8880693565788111, 0.10993532256547502),
    (1.0, 0.5, 1.0, 1.1400028373716513, 0.7335349769026865, 0.2650318128692355),
    (1.0, 1.0, 0.25, 0.9999417559092032, 0.9939291805413524, 0.005596500818307839),
    (1.0, 1.0, 0.5, 0.9998050603264594, 0.9258357267488011, 0.0731535913402302),
    (1.0, 1.0, 1.0, 1.0380984718712798, 0.7822321137350334, 0.2170378973335264),
]
ACA_RTOL = 1e-12
# excluded_mass of each ACA_GOLDEN row by a 30-digit mpmath quadrature
# (recipe at tests/test_acagmm.py::FOLD_MASS_MPMATH)
ACA_FOLD_MPMATH = [
    4.3908926174934716e-16, 2.8206775618123693e-05, 0.021963174489428347,
    2.7791443585025026e-16, 2.2259432793505195e-05, 0.02009352652026457,
    1.508465599581872e-16, 1.412605726826613e-05, 0.015850585184928764,
    2.2259432793505195e-05, 0.02009352652026457, 0.15201996683761357,
    1.412605726826613e-05, 0.015850585184928764, 0.13810819769273047,
    7.687626551075926e-06, 0.010175497824412027, 0.10993532256547497,
    0.015850585184928764, 0.13810819769273047, 0.2922335982722256,
    0.010175497824412027, 0.10993532256547497, 0.26503181286923544,
    0.005596500818307835, 0.07315359134023017, 0.21703789733352638,
]
ACA_FOLD_ATOL = 1e-15

# sha256 of save_csv(generate(GeneratorSpec(kind, n=500, noise_sigma=0.1, seed=seed)))
GENERATE_SHA256 = {
    ("circle", 0): "2cffbc590c01fd7a5c3af5f31e08f728acd05788a997b17509ef98939353ca82",
    ("circle", 1): "ebeb83bb6dea8adeb3df2aeebcbe059c2aa989e2fbd240b807e18000dc9663b2",
    ("spiral", 0): "c18ada8436b77a62cca3f0b81a16350cd1f8d9909d37269cbaa567b8c21f1a42",
    ("spiral", 1): "035b3cee6d20b844162886e90b42f9022ac12889813284b2db99723740ca70bd",
    ("strokes", 0): "23fec1ae9640c633548e3ed526aeca477db02a1b6760b9ddd10ffd20f9e2250c",
    ("strokes", 1): "1147541a71bda101e438aa909e564e2cb66e31e19ed1197d4bd482e126503c1b",
    ("parametric3d", 0): "898b6f7b882c160526efaeeb9d83bc3ce91c40136aee3c160240b00d6969530b",
    ("parametric3d", 1): "a2e278f8a2129a141d88f7b1d7cf2764a82f3ca2e6482c3b2b9b0966b8612ec3",
}
# `afcec generate --kind K --n N --noise 0.1 --seed 0`: the benchmark's inputs
BENCH_INPUT_SHA256 = {
    ("strokes", 50000): "461638d5378f3850244745234a01638a4a9be49b0d03842f55bbca9c6c5d313a",
    ("parametric3d", 10000): "452f867577636a6c9e7c32ffdab1aab845ede4055c4954ce499da8896fbaf9f1",
    ("circle", 2000): "acad06722af741ddd1a90eb736809f3bf5da16da5b8e33e71f368dcadbe3e832",
}
# sha256 of the default `acagmm-check` stdout, recorded before the foot cubic
# was solved with product cubes at a power-of-two scale
ACA_STDOUT_SHA256 = "c7d729c173297bfc07beb7ce292ed6a5d45e5634728aa08c2ced5ce167c293c4"


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


def test_acagmm_check_matches_golden():
    out = _run("acagmm-check")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "sigma1", "sigma2", "raw_integral",
                       "corrected_integral", "excluded_mass"]
    assert len(rows) == 1 + len(ACA_GOLDEN)
    for row, want, fold_ref in zip(rows[1:], ACA_GOLDEN, ACA_FOLD_MPMATH):
        got = tuple(float(v) for v in row)
        assert got[:3] == want[:3]
        assert got[3] == pytest.approx(want[3], rel=ACA_RTOL, abs=0)
        assert got[4] == pytest.approx(want[4], rel=ACA_RTOL, abs=0)
        # the fold mass is 1-D quadrature, untouched by the grid
        assert got[5] == want[5]
        assert got[5] == pytest.approx(fold_ref, rel=0, abs=ACA_FOLD_ATOL)
    # and the whole table to the bit
    assert hashlib.sha256(out.encode()).hexdigest() == ACA_STDOUT_SHA256


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_generate_matches_golden(tmp_path, kind, seed):
    path = tmp_path / "gen.csv"
    save_csv(generate(GeneratorSpec(kind=kind, n=500, noise_sigma=0.1, seed=seed)), path)
    assert _sha256(path) == GENERATE_SHA256[(kind, seed)]


@pytest.mark.parametrize("case", sorted(BENCH_INPUT_SHA256), ids=lambda c: f"{c[0]}-{c[1]}")
def test_generate_cli_matches_golden_benchmark_inputs(tmp_path, case):
    kind, n = case
    path = tmp_path / "gen.csv"
    _run("generate", "--kind", kind, "--n", str(n), "--noise", "0.1", "--seed", "0",
         "--out", str(path))
    assert _sha256(path) == BENCH_INPUT_SHA256[case]
