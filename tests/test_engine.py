import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afcec import engine
from afcec.curves import (
    BUILTIN_KINDS,
    FunctionFamily,
    axis_design,
    builtin_family,
    select_orientation,
)
from afcec.data import Dataset, GeneratorSpec, generate
from afcec.density import fadapted_log_density
from afcec.engine import (
    ClusterModel,
    DesignCache,
    EngineConfig,
    assign_step,
    cost,
    delete_small,
    fit,
    fit_restarts,
)
from afcec.errors import AllClustersDegenerate, DegenerateCluster, InvalidConfig

QUAD1 = builtin_family("quadratic", 1)


def _circle(n=300, seed=0, noise=0.08):
    return generate(GeneratorSpec(kind="circle", n=n, noise_sigma=noise, seed=seed))


def test_fit_cost_decreases_without_deletions():
    ds = _circle(seed=1)
    m = fit(ds, EngineConfig(k_init=3, family=QUAD1, seed=4))
    for it in range(1, len(m.cost_trace)):
        if it not in m.deletion_iterations:
            assert m.cost_trace[it] <= m.cost_trace[it - 1] + 1e-9


def test_fit_terminates_before_max_iters():
    ds = _circle(seed=2)
    m = fit(ds, EngineConfig(k_init=4, family=QUAD1, seed=0, max_iters=200))
    assert m.iterations < 200


def test_fit_deterministic():
    ds = _circle(seed=3)
    cfg = EngineConfig(k_init=3, family=QUAD1, seed=9)
    a = fit(ds, cfg)
    b = fit(ds, cfg)
    assert a.final_cost == b.final_cost
    assert np.array_equal(a.assignment, b.assignment)
    assert a.cost_trace == b.cost_trace


def test_fit_invariant_to_row_order():
    # the initial partition sorts rows first, so a shuffle cannot change the fit
    ds = _circle(seed=4)
    rng = np.random.default_rng(0)
    perm = rng.permutation(ds.n)
    shuffled = Dataset(ds.rows[perm])
    cfg = EngineConfig(k_init=3, family=QUAD1, seed=5)
    a = fit(ds, cfg)
    b = fit(shuffled, cfg)
    assert a.final_cost == pytest.approx(b.final_cost, abs=1e-12)
    assert a.k == b.k


def test_final_cost_matches_recomputation():
    ds = _circle(seed=5)
    m = fit(ds, EngineConfig(k_init=3, family=QUAD1, seed=1))
    assert cost(ds.rows, m.clusters, m.assignment) == pytest.approx(m.final_cost, abs=1e-10)


def test_no_final_cluster_below_threshold():
    ds = _circle(n=500, seed=6)
    m = fit(ds, EngineConfig(k_init=8, family=QUAD1, seed=2, deletion_fraction=0.01))
    sizes = np.bincount(m.assignment, minlength=m.k)
    assert sizes.min() >= 0.01 * ds.n


def test_kmeanspp_init_runs():
    ds = _circle(seed=7)
    m = fit(ds, EngineConfig(k_init=3, family=QUAD1, seed=3, init="kmeanspp"))
    assert m.k >= 1
    assert m.final_cost <= m.cost_trace[0]


def test_single_cluster_fit():
    ds = _circle(seed=8)
    m = fit(ds, EngineConfig(k_init=1, family=QUAD1, seed=0))
    assert m.k == 1
    assert np.all(m.assignment == 0)


def test_weights_match_sizes():
    ds = _circle(seed=9)
    m = fit(ds, EngineConfig(k_init=4, family=QUAD1, seed=6))
    sizes = np.bincount(m.assignment, minlength=m.k)
    for cl, s in zip(m.clusters, sizes):
        assert cl.size == s
        assert cl.weight == pytest.approx(s / ds.n, abs=1e-12)
    assert sum(cl.weight for cl in m.clusters) == pytest.approx(1.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=0, family=QUAD1).validate()
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=2, family=QUAD1, epsilon=-1.0).validate()
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=2, family=QUAD1, deletion_fraction=1.5).validate()
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=2, family=QUAD1, max_iters=0).validate()
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=2, family=QUAD1, init="grid").validate()


def test_fit_rejects_small_or_thin_data():
    with pytest.raises(InvalidConfig):
        fit(np.zeros((10, 1)), EngineConfig(k_init=2, family=QUAD1))
    with pytest.raises(InvalidConfig):
        fit(np.random.default_rng(0).standard_normal((5, 2)),
            EngineConfig(k_init=2, family=QUAD1))


def test_fit_degenerate_data_raises():
    pts = np.zeros((30, 2))
    with pytest.raises(AllClustersDegenerate):
        fit(pts, EngineConfig(k_init=2, family=QUAD1, seed=0))


def test_assign_step_picks_cheapest_cluster():
    ds = _circle(seed=10)
    m = fit(ds, EngineConfig(k_init=3, family=QUAD1, seed=7))
    again = assign_step(ds.rows, m.clusters)
    # the fit has converged, so one more assignment pass changes nothing
    assert np.array_equal(again, m.assignment)


def test_delete_small_removes_planted_speck():
    rng = np.random.default_rng(11)
    big = rng.normal(0.0, 1.0, (400, 2))
    speck = rng.normal(50.0, 0.01, (3, 2))
    pts = np.vstack([big, speck])
    m = fit(pts, EngineConfig(k_init=2, family=QUAD1, seed=1, init="kmeanspp"))
    assert m.deleted_count >= 1
    assert m.k == 1


def test_delete_small_requires_survivor():
    pts = np.random.default_rng(12).standard_normal((40, 2))
    clusters = fit(pts, EngineConfig(k_init=2, family=QUAD1, seed=0)).clusters
    assignment = np.zeros(40, dtype=int) if len(clusters) == 1 else None
    if assignment is None:
        assignment = np.arange(40) % len(clusters)
    with pytest.raises(AllClustersDegenerate):
        delete_small(pts, clusters, assignment, threshold_fraction=1.1)


def test_fit_restarts_returns_best():
    ds = _circle(seed=13)
    cfg = EngineConfig(k_init=4, family=QUAD1, seed=0)
    best, costs = fit_restarts(ds, cfg, restarts=5)
    assert len(costs) == 5
    assert best.final_cost == min(costs)


def test_fit_restarts_equals_separate_fits(monkeypatch):
    ds = _circle(seed=14)
    cfg = EngineConfig(k_init=3, family=QUAD1, seed=5)
    best, costs = fit_restarts(ds, cfg, restarts=4)
    separate = [fit(ds, replace(cfg, seed=s)) for s in range(5, 9)]
    assert costs == [m.final_cost for m in separate]
    first = separate[costs.index(min(costs))]
    assert np.array_equal(best.assignment, first.assignment)
    # equal costs go to the smallest seed
    fake = {s: SimpleNamespace(final_cost=c) for s, c in zip(range(3, 8), [2.0, 1.0, 3.0, 1.0, 1.5])}
    monkeypatch.setattr(engine, "fit", lambda x, c: fake[c.seed])
    best, costs = fit_restarts(ds, replace(cfg, seed=3), restarts=5)
    assert best is fake[4]
    assert costs == [2.0, 1.0, 3.0, 1.0, 1.5]


def test_fit_restarts_propagates_total_failure():
    pts = np.zeros((30, 2))
    with pytest.raises(AllClustersDegenerate):
        fit_restarts(pts, EngineConfig(k_init=2, family=QUAD1, seed=0), restarts=3)


def _column_scores(x, clusters):
    """(n, k) assignment costs, one uncached log-density call per cluster."""
    return np.column_stack(
        [-math.log(cl.weight) - fadapted_log_density(cl.params, x) for cl in clusters]
    )


def _clusters_on(x, labels, family):
    n = x.shape[0]
    out = []
    for lab in np.unique(labels):
        pts = x[labels == lab]
        _, _, h, params = select_orientation(pts, family)
        out.append(ClusterModel(params, len(pts) / n, len(pts), h))
    return out


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cached_assignment_matches_uncached_scores(kind, d, log_scale, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    x = rng.standard_normal((240, d))
    x[:, -1] += 0.5 * x[:, 0] ** 2 - 0.2 * x[:, 1] ** 3
    x = (x + rng.uniform(-2.0, 2.0, d)) * scale
    family = builtin_family(kind, d - 1)
    try:
        clusters = _clusters_on(x, rng.integers(0, 3, x.shape[0]), family)
    except DegenerateCluster:
        assume(False)
    cache = DesignCache(x)
    ref = _column_scores(x, clusters)
    assert np.array_equal(assign_step(x, clusters, cache), np.argmin(ref, axis=1))
    np.testing.assert_allclose(engine._score_matrix(cache, clusters).T, ref, rtol=1e-12, atol=0)


def test_argmin_rows_matches_numpy_with_ties():
    rng = np.random.default_rng(17)
    for k in (1, 2, 5, 20):
        scores = rng.integers(0, 3, (k, 500)).astype(float)  # many exact ties
        assert np.array_equal(engine._argmin_rows(scores), np.argmin(scores, axis=0))


def test_assign_step_ties_go_to_lowest_index():
    ds = _circle(seed=15)
    m = fit(ds, EngineConfig(k_init=3, family=QUAD1, seed=2))
    assert m.k >= 2
    first, second = m.clusters[0], m.clusters[1]
    labels = assign_step(ds.rows, [first, second, first])
    assert not np.any(labels == 2)
    assert np.array_equal(labels, assign_step(ds.rows, [first, second]))


def test_orphan_reassignment_ties_go_to_lowest_index():
    ds = _circle(seed=15)
    m = fit(ds, EngineConfig(k_init=3, family=QUAD1, seed=2))
    first, second = m.clusters[0], m.clusters[1]
    cache = DesignCache(ds.rows)
    expected = assign_step(ds.rows, [first, second], cache)  # fills the cache
    # every point sits in label 3, which is dropped; survivors 0 and 2 are equal
    orphans = np.full(ds.n, 3)
    out = engine._reassign(cache, orphans, 4, [0, 1, 2], [first, second, first])
    assert not np.any(out == 2)
    assert np.array_equal(out, expected)


def test_design_cache_take_equals_fresh_designs():
    ds = generate(GeneratorSpec(kind="parametric3d", n=400, noise_sigma=0.1, seed=18))
    m = fit(ds, EngineConfig(k_init=4, family=builtin_family("cubic", 2), seed=1, max_iters=3))
    cache = DesignCache(ds.rows)
    assign_step(ds.rows, m.clusters, cache)
    rows = np.flatnonzero(np.arange(ds.n) % 7 == 3)
    sub = cache.take(rows)
    for cl in m.clusters:
        fresh = axis_design(ds.rows[rows], cl.params.dependent_axis, cl.params.curve.family)
        for got, want in zip(sub.design(cl.params), fresh):
            assert np.array_equal(got, want)


def test_fit_builds_each_full_design_once_per_axis(monkeypatch):
    ds = generate(GeneratorSpec(kind="parametric3d", n=900, noise_sigma=0.1, seed=16))
    original = FunctionFamily.design_matrix
    full_rows = []

    def counting(self, xe):
        if np.shape(xe)[0] == ds.n:
            full_rows.append(1)
        return original(self, xe)

    monkeypatch.setattr(FunctionFamily, "design_matrix", counting)
    fit(ds, EngineConfig(k_init=6, family=builtin_family("quadratic", 2), seed=0, max_iters=5))
    assert 1 <= len(full_rows) <= ds.d
