"""bench/spans.py times afcec by wrapping module attributes by name. A rename
that drops one of them, or a call path that stops going through one, must
fail here rather than crash the benchmark's traced run."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from afcec import acagmm, cli, engine, selection
from afcec.curves import builtin_family
from afcec.data import GeneratorSpec, generate, save_csv

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# spans every plain fit must record
FIT_SPANS = {
    "engine.fit",
    "engine.init",
    "engine.assign",
    "engine.delete",
    "engine.refit",
    "curves.design",
    "selection.loglik",
}
# (child, parent) span pairs on the refit path the per-layer metrics describe
REFIT_PATH = {
    ("curves.design", "engine.refit"),
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_trace_hooks_install_record_and_uninstall():
    spans = _load_spans()
    tracer = spans.Tracer()
    x = generate(GeneratorSpec("strokes", n=300, seed=3)).rows
    cfg = engine.EngineConfig(k_init=3, family=builtin_family("quadratic", 1), max_iters=3)
    try:
        spans.install(tracer)
        patches = list(tracer._patches)
        for owner, attr, orig in patches:
            assert _current(owner, attr) is not orig, attr
        model = engine.fit(x, cfg)
        selection.log_likelihood(x, model)
    finally:
        tracer.uninstall()
    for owner, attr, orig in patches:
        assert _current(owner, attr) is orig, attr
    names = {s[2] for s in tracer.spans}
    assert FIT_SPANS <= names, sorted(FIT_SPANS - names)
    name_of = {s[0]: s[2] for s in tracer.spans}
    pairs = {(s[2], name_of.get(s[1])) for s in tracer.spans}
    assert REFIT_PATH <= pairs, sorted(REFIT_PATH - pairs)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["engine.iterations"] == model.iterations
    assert metrics["curves.design_calls"] > 0
    assert np.isfinite(metrics["curves.design_s"])


def test_trace_hooks_cover_the_aca_layers():
    spans = _load_spans()
    tracer = spans.Tracer()
    a_grid, sigma_grid = (0.5, -1.0), (0.5, 1.0)
    try:
        spans.install(tracer)
        patches = list(tracer._patches)
        rows = tracer.call(
            "cli", acagmm.normalization_table, (a_grid, sigma_grid), {"box": 3.0, "n": 40}
        )
        # the table sums separable sigma factors and never evaluates a
        # per-configuration log-density; the single-point density still does
        tracer.call(
            "cli", acagmm.aca_log_density, (acagmm.AcaParabolaModel(0.5, 1.0, 1.0), (0.3, 0.2)), {}
        )
    finally:
        tracer.uninstall()
    for owner, attr, orig in patches:
        assert _current(owner, attr) is orig, attr
    assert len(rows) == len(a_grid) * len(sigma_grid) ** 2
    name_of = {s[0]: s[2] for s in tracer.spans}
    for layer, calls in (("acagmm.grid_density", 1), ("acagmm.fold_mass", len(rows))):
        parents = [name_of.get(s[1]) for s in tracer.spans if s[2] == layer]
        assert parents == ["cli"] * calls, layer
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["acagmm.grid_nodes"] == 1
    assert metrics["acagmm.fold_mass_calls"] == len(rows)


def _traced_fit_counts(spans, x, cfg, seed):
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        engine.fit(x, replace(cfg, seed=seed))
    finally:
        tracer.uninstall()
    return spans.layer_metrics(tracer.spans)


def test_trace_hooks_follow_lockstep_restarts(tmp_path, capsys):
    spans = _load_spans()
    ds = generate(GeneratorSpec("circle", n=400, seed=6))
    cfg = engine.EngineConfig(k_init=6, family=builtin_family("quadratic", 1), max_iters=6,
                              deletion_fraction=0.1, seed=2)
    save_csv(ds, tmp_path / "ring.csv")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        engine.fit_restarts(ds.rows, cfg, restarts=3)
        restart_metrics = spans.layer_metrics(tracer.spans)
        argv = ["sweep", "--input", str(tmp_path / "ring.csv"), "--k-max", "3",
                "--restarts", "2", "--max-iters", "4"]
        assert tracer.call("cli", cli.main, (argv,), {}) == 0
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["engine.assign_calls"] > restart_metrics["engine.assign_calls"] > 0
    assert metrics["selection.loglik_rows"] == 3 * 2 * ds.n
    # the work counted over the lockstep batch is the sum over the lone fits
    lone = [_traced_fit_counts(spans, ds.rows, cfg, s) for s in range(2, 5)]
    for name in ("engine.points_moved", "engine.deleted", "engine.refit_dropped"):
        assert restart_metrics[name] == sum(m[name] for m in lone), name
    assert restart_metrics["engine.deleted"] > 0
    # bench/run.py's untraced commands wrap engine.fit alone and read r.iterations
    plain = spans.Tracer()
    try:
        plain.wrap(engine, "fit", "engine.fit", lambda a, r: r.iterations)
        model = engine.fit(ds.rows, cfg)
    finally:
        plain.uninstall()
    assert [s[7] for s in plain.spans] == [model.iterations]
    assert spans.layer_metrics(plain.spans)["engine.iterations"] == model.iterations
