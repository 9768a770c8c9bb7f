"""The batched refit (engine._reestimate over curves.refit_segments) against
per-cluster references."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afcec import density, engine
from afcec.curves import BUILTIN_KINDS, builtin_family, fit_curve, select_orientation
from afcec.density import fadapted_cross_entropy
from afcec.engine import ClusterModel, DesignCache
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
        clusters, assignment, dropped = engine._reestimate(x, labels, k, family)
    assert dropped == 0
    assert np.array_equal(assignment, labels)
    assert len(clusters) == k
    for lab, (cl, (axis, curve, h, params)) in enumerate(zip(clusters, ref)):
        assert cl.params.dependent_axis == axis
        assert cl.size == np.count_nonzero(labels == lab)
        _close(cl.cross_entropy, h)
        _close(cl.params.resid_var, params.resid_var)
        _close(cl.params.mean_exp, params.mean_exp)
        _close(cl.params.cov_exp, params.cov_exp)
        _close(cl.params.curve.sse, curve.sse)


def _per_cluster_reestimate(x, assignment, k, family):
    """The refit as one fit_curve and fadapted_cross_entropy call per cluster
    and axis, dropping clusters no axis fits and reassigning their points."""
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
                clusters.append(ClusterModel(best[1], len(pts) / n, len(pts), best[0]))
        if not clusters:
            raise AllClustersDegenerate("every cluster failed estimation")
        if len(keep) == k:
            return clusters, assignment, dropped
        dropped += k - len(keep)
        assignment = engine._reassign(cache, assignment, k, keep, clusters)
        k = len(keep)


def _degenerate_mix():
    """Six labels in 3-d: a healthy cluster, one with fewer points than the
    quadratic family has terms, an empty one, one point repeated 20 times, an
    exact line, and a second healthy cluster."""
    rng = np.random.default_rng(5)
    healthy = rng.standard_normal((80, 3)) * [1.0, 2.0, 0.5]
    healthy[:, 2] += 0.3 * healthy[:, 0] ** 2
    few = rng.standard_normal((4, 3)) + 4.0
    repeated = np.tile([[3.0, -2.0, 1.0]], (20, 1))
    t = rng.uniform(-1.0, 1.0, 30)
    line = np.column_stack([1.0 + t, 2.0 - 3.0 * t, 0.5 + 0.5 * t])
    healthy2 = rng.standard_normal((60, 3)) * 0.7 + [-4.0, 0.0, 2.0]
    x = np.vstack([healthy, few, repeated, line, healthy2])
    return x, np.repeat([0, 1, 3, 4, 5], [80, 4, 20, 30, 60])


def _run_recording(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [w.category for w in caught]


def test_degenerate_mix_matches_per_cluster_refit(monkeypatch):
    x, labels = _degenerate_mix()
    family = builtin_family("quadratic", 2)
    ladder = []
    reg = density._cholesky_reg

    def spy(cov):
        try:
            low, used = reg(cov)
        except DegenerateCluster:
            ladder.append("degenerate")
            raise
        ladder.append("plain" if np.array_equal(used, cov) else "regularized")
        return low, used

    monkeypatch.setattr(density, "_cholesky_reg", spy)
    (clusters, assignment, dropped), caught = _run_recording(
        engine._reestimate, x, labels, 6, family
    )
    batched_ladder, ladder[:] = list(ladder), []
    (ref, ref_assignment, ref_dropped), ref_caught = _run_recording(
        _per_cluster_reestimate, x, labels, 6, family
    )
    # the repeated point fails the ladder on every axis and the line climbs it,
    # in the batched refit as in the per-cluster one
    assert "degenerate" in batched_ladder and "regularized" in batched_ladder
    assert "degenerate" in ladder and "regularized" in ladder
    # the empty label, the few points and the repeated point are dropped, and
    # the orphans go to cluster 0; the line is kept, with its residual
    # variance floored on all three axes in both passes
    assert dropped == ref_dropped == 3
    assert np.array_equal(assignment, ref_assignment)
    assert np.bincount(assignment).tolist() == [104, 30, 60]
    axes = [cl.params.dependent_axis for cl in clusters]
    assert axes == [cl.params.dependent_axis for cl in ref] == [2, 1, 1]
    assert caught == ref_caught == [ZeroResidualWarning] * 6
    for cl, want in zip(clusters, ref):
        assert cl.size == want.size
        _close(cl.cross_entropy, want.cross_entropy)
        _close(cl.params.resid_var, want.params.resid_var)
        _close(cl.params.cov_exp, want.params.cov_exp)
