"""The batched refit (engine._reestimate over curves.refit_segments) against
per-cluster references."""

import warnings

import numpy as np
import pytest
from cluster_tables import degenerate_mix, reweighted, table_of
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from afcec import density, engine
from afcec.curves import BUILTIN_KINDS, builtin_family, fit_curve, select_orientation
from afcec.data import model_from_json, model_to_json
from afcec.density import fadapted_cross_entropy
from afcec.engine import DesignCache, EngineConfig
from afcec.errors import (
    AllClustersDegenerate,
    DegenerateCluster,
    RankDeficient,
    ZeroResidualWarning,
)


def _close(got, want):
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_refit_matches_select_orientation_per_cluster(kind, d, log_scale, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((240, d))
    x[:, -1] += 0.5 * x[:, 0] ** 2
    x = (x + rng.uniform(-2.0, 2.0, d)) * 10.0**log_scale
    family = builtin_family(kind, d - 1)
    labels = rng.integers(0, k, x.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroResidualWarning)
        try:
            ref = [select_orientation(x[labels == lab], family) for lab in range(k)]
        except DegenerateCluster:
            assume(False)
        (f,), (assignment,), dropped = engine._reestimate(
            DesignCache(x), labels[None], [k], family
        )
    assert dropped == 0
    assert np.array_equal(assignment, labels)
    assert len(f.weight) == k
    assert f.axis.tolist() == [axis for axis, *_ in ref]
    assert np.array_equal(f.weight, np.bincount(labels, minlength=k) / len(labels))
    for i, (axis, curve, h, params) in enumerate(ref):
        _close(f.h[i], h)
        _close(f.resid_var[i], params.resid_var)
        _close(f.mean_exp[i], params.mean_exp)
        _close(f.cov_exp[i], params.cov_exp)
        _close(f.sse[i], curve.sse)


def _per_cluster_reestimate(x, assignment, k, family):
    """The refit as one fit_curve and fadapted_cross_entropy call per cluster
    and axis, dropping clusters no axis fits and reassigning their points.
    Returns the surviving clusters' (H, FAdaptedParams, size) and the labels."""
    n, d = x.shape
    cache = DesignCache(x)
    dropped = 0
    while True:
        clusters, keep = [], []
        for lab in range(k):
            pts = x[assignment == lab]
            best = None
            for j in range(d):
                try:
                    h, params = fadapted_cross_entropy(pts, j, fit_curve(pts, j, family))
                except (DegenerateCluster, RankDeficient):
                    continue
                if best is None or h < best[0]:
                    best = (h, params)
            if best is not None:
                keep.append(lab)
                clusters.append((*best, len(pts)))
        if not clusters:
            raise AllClustersDegenerate("every cluster failed estimation")
        if len(keep) == k:
            return clusters, assignment, dropped
        dropped += k - len(keep)
        entropies, params, sizes = zip(*clusters)
        survivors = table_of(params, entropies, sizes, n)
        (assignment,), _, _ = engine._drop(
            cache, assignment[None], [0], [k], [np.array(keep)], lambda r, kept: survivors
        )
        k = len(keep)


def _run_recording(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [w.category for w in caught]


def test_degenerate_mix_matches_per_cluster_refit(monkeypatch):
    x, labels = degenerate_mix()
    family = builtin_family("quadratic", 2)
    rungs = []
    reg = density._cholesky_reg

    def spy(cov, ladder=True):
        low, used, ok = reg(cov, ladder)
        # every covariance of the stack; the rank test's Grams climb no ladder
        if ladder:
            for i in np.ndindex(ok.shape):
                plain = np.array_equal(used[i], cov[i])
                rungs.append("degenerate" if not ok[i] else "plain" if plain else "regularized")
        return low, used, ok

    monkeypatch.setattr(density, "_cholesky_reg", spy)
    ((f,), (assignment,), dropped), caught = _run_recording(
        engine._reestimate, DesignCache(x), labels[None], [6], family
    )
    batched_rungs, rungs[:] = list(rungs), []
    (ref, ref_assignment, ref_dropped), ref_caught = _run_recording(
        _per_cluster_reestimate, x, labels, 6, family
    )
    # the repeated point fails the ladder on every axis and the line climbs it,
    # in the batched refit as in the per-cluster one
    assert "degenerate" in batched_rungs and "regularized" in batched_rungs
    assert "degenerate" in rungs and "regularized" in rungs
    # the empty label, the few points and the repeated point are dropped, and
    # the orphans go to cluster 0; the line is kept, with its residual
    # variance floored on all three axes in both passes
    assert dropped == ref_dropped == 3
    assert np.array_equal(assignment, ref_assignment)
    assert np.bincount(assignment).tolist() == [104, 30, 60]
    assert f.axis.tolist() == [params.dependent_axis for _, params, _ in ref] == [2, 1, 1]
    assert caught == ref_caught == [ZeroResidualWarning] * 6
    assert f.weight.tolist() == [size / len(x) for *_, size in ref]
    for i, (h, params, _) in enumerate(ref):
        _close(f.h[i], h)
        _close(f.resid_var[i], params.resid_var)
        _close(f.cov_exp[i], params.cov_exp)


def _assert_same_weights(table, again):
    """The score weights and constants the refit built for table have the
    bits of those of the ClusterFits again."""
    assert table.w.shape == again.w.shape
    assert table.w.tobytes() == again.w.tobytes()
    assert table.consts.tobytes() == again.consts.tobytes()


def _duplicate_heavy(rng, n, d, dup_frac, line):
    """A noisy curve with a share of its rows copied onto two points and,
    with line, 30 points of an exact line far from it: in 3-d and up the
    line's explanatory covariance is singular, so its Cholesky factor is
    regularized, and its residual is floored."""
    t = rng.uniform(-1.0, 1.0, n)
    x = rng.normal(0.0, 0.1, (n, d)) + t[:, None] * rng.uniform(-2.0, 2.0, d)
    x[:, -1] += rng.uniform(-1.0, 1.0) * t**2
    dup = rng.random(n) < dup_frac
    x[dup] = x[rng.integers(0, 2, dup.sum())]
    if line:
        s = rng.uniform(-1.0, 1.0, 30)
        x = np.vstack([x, 10.0 + s[:, None] * rng.uniform(0.5, 2.0, d)])
    return x


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    dup_frac=st.sampled_from([0.0, 0.5, 0.9]),
    line=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# copied rows and the exact line are interpolated: their residuals are floored
@pytest.mark.filterwarnings("ignore::afcec.errors.ZeroResidualWarning")
# the line's covariance is regularized in 3-d and in 4-d
@example(kind="quadratic", d=3, k=3, dup_frac=0.5, line=True, seed=1)
@example(kind="cubic", d=4, k=2, dup_frac=0.9, line=True, seed=0)
def test_refit_weights_equal_the_loaded_models_weights(kind, d, k, dup_frac, line, seed):
    rng = np.random.default_rng(seed)
    x = _duplicate_heavy(rng, 120, d, dup_frac, line)
    cfg = EngineConfig(k_init=k, family=builtin_family(kind, d - 1), seed=seed % 1000,
                       max_iters=6, init="kmeanspp")
    try:
        model = engine.fit(x, cfg)
    except AllClustersDegenerate:
        assume(False)
    # a saved model's weights are built again at load from its parameters
    _assert_same_weights(model.clusters, model_from_json(model_to_json(model)).clusters)


def test_regularized_and_floored_weights_equal_the_rebuilt_weights(monkeypatch):
    x, labels = degenerate_mix()
    family = builtin_family("quadratic", 2)
    plain = []
    reg = density._cholesky_reg

    def spy(cov, ladder=True):
        low, used, ok = reg(cov, ladder)
        if ladder:
            plain.extend(np.array_equal(used[i], cov[i]) for i in np.ndindex(ok.shape))
        return low, used, ok

    monkeypatch.setattr(density, "_cholesky_reg", spy)
    # the line climbs the ladder and its residual is floored on every axis
    with pytest.warns(ZeroResidualWarning):
        (table,), _, _ = engine._reestimate(DesignCache(x), labels[None], [6], family)
    assert False in plain
    _assert_same_weights(table, reweighted(table))
