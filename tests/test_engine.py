import contextlib
import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from afcec import engine, selection
from afcec.cli import main
from afcec.curves import BUILTIN_KINDS, builtin_family, select_orientation
from afcec.data import Dataset, GeneratorSpec, generate, save_csv
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_library_calls_reject_non_finite_data(bad):
    ds = generate(GeneratorSpec(kind="strokes", n=600, seed=2))
    cfg = EngineConfig(k_init=3, family=QUAD1, seed=0)
    model = fit(ds, cfg)
    x = ds.rows.copy()
    x[17, 1] = bad
    calls = [
        lambda: fit(x, cfg),
        lambda: fit_restarts(x, cfg, 2),
        lambda: selection.score(x, model),
        lambda: selection.log_likelihood(x, model),
        lambda: selection.log_likelihood(x, model, "max"),
        # a DesignCache is checked when it is made
        lambda: fit(DesignCache(x), cfg),
        lambda: selection.score(DesignCache(x), model),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfig, match="data must be finite"):
                call()


def test_fit_degenerate_data_raises():
    pts = np.zeros((30, 2))
    with pytest.raises(AllClustersDegenerate):
        fit(pts, EngineConfig(k_init=2, family=QUAD1, seed=0))


def test_assign_step_picks_cheapest_cluster():
    ds = _circle(seed=10)
    m = fit(ds, EngineConfig(k_init=3, family=QUAD1, seed=7))
    (again,) = assign_step(DesignCache(ds.rows), [m.clusters], m.assignment[None])
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
        delete_small(DesignCache(pts), clusters, assignment, threshold_fraction=1.1)


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
    # equal costs go to the smallest seed, and failed seeds are skipped
    fake = {s: engine.AfcecModel([], None, [c], 0, 0) for s, c in
            zip(range(3, 8), [2.0, 1.0, 3.0, 1.0, 1.5])}
    fake[5] = AllClustersDegenerate("every cluster failed estimation")
    monkeypatch.setattr(engine, "_lloyd", lambda cache, c, runs: [fake[s] for _, s in runs])
    best, costs = fit_restarts(ds, replace(cfg, seed=3), restarts=5)
    assert best is fake[4]
    assert costs == [2.0, 1.0, 1.0, 1.5]


def _restart_data(rng, n, d, dup_frac):
    """Noisy curves plus a share of rows copied onto a few points, so that
    clusters can fall below the size threshold or go degenerate."""
    t = rng.uniform(-1.0, 1.0, n)
    x = rng.normal(0.0, 0.1, (n, d)) + t[:, None] * rng.uniform(-2.0, 2.0, d)
    x[:, -1] += rng.uniform(-1.0, 1.0) * t**2
    dup = rng.random(n) < dup_frac
    x[dup] = x[rng.integers(0, 3, dup.sum())]
    return x


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=3),
    restarts=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=1, max_value=6),
    init=st.sampled_from(engine.INITS),
    deletion_fraction=st.sampled_from([0.0, 0.05, 0.2, 0.4]),
    dup_frac=st.sampled_from([0.0, 0.5, 0.97]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# two of four seeds fail the size threshold, and the others delete clusters
@pytest.mark.filterwarnings("ignore::afcec.errors.ZeroResidualWarning")
@example(kind="linear", d=3, restarts=4, k=4, init="kmeanspp", deletion_fraction=0.4,
         dup_frac=0.0, seed=3520269953)
@example(kind="cubic", d=3, restarts=4, k=6, init="kmeanspp", deletion_fraction=0.4,
         dup_frac=0.97, seed=2311307930)
def test_lockstep_restarts_equal_separate_fits(
    kind, d, restarts, k, init, deletion_fraction, dup_frac, seed
):
    rng = np.random.default_rng(seed)
    x = _restart_data(rng, 90, d, dup_frac)
    cfg = EngineConfig(k_init=k, family=builtin_family(kind, d - 1), seed=seed % 1000,
                       max_iters=8, init=init, deletion_fraction=deletion_fraction)
    separate = []
    for s in range(cfg.seed, cfg.seed + restarts):
        try:
            separate.append(fit(x, replace(cfg, seed=s)))
        except AllClustersDegenerate:
            pass
    if not separate:
        with pytest.raises(AllClustersDegenerate):
            fit_restarts(x, cfg, restarts)
        return
    best, costs = fit_restarts(x, cfg, restarts)
    assert costs == [m.final_cost for m in separate]
    want = separate[costs.index(min(costs))]
    assert np.array_equal(best.assignment, want.assignment)
    assert best.cost_trace == want.cost_trace
    assert best.deletion_iterations == want.deletion_iterations
    assert (best.iterations, best.deleted_count) == (want.iterations, want.deleted_count)


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
    (labels,) = assign_step(cache, [clusters], np.zeros((1, x.shape[0]), dtype=np.intp))
    assert np.array_equal(labels, np.argmin(ref, axis=1))
    scores = np.empty((len(clusters), x.shape[0]))
    for cols, block in engine.cluster_score_blocks(cache, clusters):
        scores[:, cols] = block
    np.testing.assert_allclose(scores.T, ref, rtol=1e-12, atol=0)


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
    cache = DesignCache(ds.rows)
    # one batch holding both lists: each row is reduced over its own clusters
    labels, expected = assign_step(
        cache, [[first, second, first], [first, second]], np.zeros((2, ds.n), dtype=np.intp)
    )
    assert not np.any(labels == 2)
    assert np.array_equal(labels, expected)


def test_orphan_reassignment_ties_go_to_lowest_index():
    ds = _circle(seed=15)
    m = fit(ds, EngineConfig(k_init=3, family=QUAD1, seed=2))
    first, second = m.clusters[0], m.clusters[1]
    cache = DesignCache(ds.rows)
    (expected,) = engine._nearest(cache, [[first, second]])  # fills the cache
    # every point sits in label 3, which is dropped; survivors 0 and 2 are equal
    orphans = np.full(ds.n, 3)
    out = engine._reassign(cache, orphans, 4, [0, 1, 2], [first, second, first])
    assert not np.any(out == 2)
    assert np.array_equal(out, expected)


def test_design_cache_take_equals_fresh_designs():
    ds = generate(GeneratorSpec(kind="parametric3d", n=400, noise_sigma=0.1, seed=18))
    family = builtin_family("cubic", 2)
    m = fit(ds, EngineConfig(k_init=4, family=family, seed=1, max_iters=3))
    cache = DesignCache(ds.rows)
    engine._nearest(cache, [m.clusters])  # fills the cache
    rows = np.flatnonzero(np.arange(ds.n) % 7 == 3)
    sub = cache.take(rows)
    fresh = family._refit_layout.union.design_matrix(ds.rows[rows])
    assert np.array_equal(sub.design(family), fresh)


@pytest.mark.parametrize("command", ["fit", "sweep"])
def test_command_builds_its_scoring_design_once(tmp_path, monkeypatch, command):
    ds = generate(GeneratorSpec(kind="parametric3d", n=900, noise_sigma=0.1, seed=16))
    path = tmp_path / "in.csv"
    save_csv(ds, path)
    original = DesignCache.design
    full = []  # the distinct designs over every point

    def recording(self, family):
        out = original(self, family)
        # orphan reassignment scores a cache over a subset of the points
        if out.shape[0] == ds.n and not any(out is seen for seen in full):
            full.append(out)
        return out

    monkeypatch.setattr(DesignCache, "design", recording)
    size = ["--k", "6"] if command == "fit" else ["--k-max", "4", "--restarts", "2"]
    argv = [command, "--input", str(path), *size, "--family", "quadratic", "--max-iters", "5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(full) == 1
