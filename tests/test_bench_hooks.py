"""bench/spans.py times afcec by wrapping module attributes by name. A rename
that drops one of them, or a call path that stops going through one, must
fail here rather than crash the benchmark's traced run."""

import importlib.util
from pathlib import Path

import numpy as np

from afcec import acagmm, engine, selection
from afcec.curves import builtin_family
from afcec.data import GeneratorSpec, generate

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
