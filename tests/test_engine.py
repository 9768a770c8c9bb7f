import contextlib
import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from cluster_tables import degenerate_mix, row_params
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from afcec import density, engine, selection
from afcec.cli import main
from afcec.curves import BUILTIN_KINDS, builtin_family
from afcec.data import Dataset, GeneratorSpec, generate, save_csv
from afcec.density import fadapted_log_density
from afcec.engine import (
    DesignCache,
    EngineConfig,
    assign_step,
    cost,
    delete_small,
    fit,
    fit_restarts,
)
from afcec.errors import (
    AllClustersDegenerate,
    InvalidConfig,
    ZeroResidualWarning,
)

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
    assert np.array_equal(m.clusters.weight, sizes / ds.n)
    assert m.clusters.weight.sum() == pytest.approx(1.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=0, family=QUAD1).validate((100, 2))
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=2, family=QUAD1, epsilon=-1.0).validate((100, 2))
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=2, family=QUAD1, deletion_fraction=1.5).validate((100, 2))
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=2, family=QUAD1, max_iters=0).validate((100, 2))
    with pytest.raises(InvalidConfig):
        EngineConfig(k_init=2, family=QUAD1, init="grid").validate((100, 2))
    # a count is an int or a numpy integer, never a float or a bool
    for bad in ({"k_init": 2.5}, {"k_init": True}, {"max_iters": 2.5}, {"max_iters": True},
                {"seed": 1.5}, {"seed": True}):
        with pytest.raises(InvalidConfig, match="must be an integer"):
            EngineConfig(**{"k_init": 2, "family": QUAD1, **bad}).validate((100, 2))
    for restarts in (2.5, True):
        with pytest.raises(InvalidConfig, match="restarts must be an integer"):
            fit_restarts(np.zeros((100, 2)), EngineConfig(k_init=2, family=QUAD1), restarts)


def test_numpy_integer_counts_fit_as_python_ints():
    ds = _circle(seed=5)
    cfg = EngineConfig(k_init=3, family=QUAD1, max_iters=20, seed=7)
    want, want_costs = fit_restarts(ds, cfg, 2)
    counts = {"k_init": np.int64(3), "max_iters": np.int32(20), "seed": np.int64(7)}
    got, got_costs = fit_restarts(ds, replace(cfg, **counts), np.int64(2))
    assert got_costs == want_costs
    assert np.array_equal(got.assignment, want.assignment)


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
    # the speck's 3 points are as many as QUAD1 has terms: its curve
    # interpolates them and the residual is floored until it is deleted
    with pytest.warns(ZeroResidualWarning):
        m = fit(pts, EngineConfig(k_init=2, family=QUAD1, seed=1, init="kmeanspp"))
    assert m.deleted_count >= 1
    assert m.k == 1


def test_delete_small_requires_survivor():
    pts = np.random.default_rng(12).standard_normal((40, 2))
    clusters = fit(pts, EngineConfig(k_init=2, family=QUAD1, seed=0)).clusters
    assignment = np.arange(40) % len(clusters.weight)
    # a restart none of whose clusters meets the threshold gets no count
    ks, labels, deleted = delete_small(
        DesignCache(pts), [clusters], assignment[None], threshold_fraction=1.1
    )
    assert (ks, deleted) == ([None], 0)
    assert np.array_equal(labels, assignment[None])
    # and the loop ends it with AllClustersDegenerate
    with pytest.raises(AllClustersDegenerate, match="size threshold"):
        fit(pts, EngineConfig(k_init=2, family=QUAD1, seed=0, deletion_fraction=0.99))


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
    fake = {s: engine.AfcecModel([], None, [c], 0) for s, c in
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
    d=st.integers(min_value=2, max_value=6),
    restarts=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=1, max_value=6),
    init=st.sampled_from(engine.INITS),
    deletion_fraction=st.sampled_from([0.0, 0.05, 0.2, 0.4]),
    dup_frac=st.sampled_from([0.0, 0.5, 0.97]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# rows copied onto a few points make clusters that their curves interpolate,
# so residuals are floored
@pytest.mark.filterwarnings("ignore::afcec.errors.ZeroResidualWarning")
# two of four seeds fail the size threshold, and the others delete clusters
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


def test_commands_build_no_fadapted_params(tmp_path, monkeypatch):
    # a model holds its clusters as the ClusterFits its Lloyd loop carries,
    # and saving and scoring it read that table
    built = []
    monkeypatch.setattr(density.FAdaptedParams, "__post_init__", lambda self: built.append(self))
    ds = _circle(n=400, seed=19)
    path, model_path = tmp_path / "ring.csv", tmp_path / "model.json"
    save_csv(ds, path)
    for argv in (
        ["fit", "--k", "6", "--restarts", "3", "--deletion-fraction", "0.1",
         "--output-model", str(model_path)],
        ["sweep", "--k-max", "5", "--restarts", "3"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--input", str(path)]) == 0
    assert model_path.stat().st_size > 0
    assert built == []


def test_fit_restarts_propagates_total_failure():
    pts = np.zeros((30, 2))
    with pytest.raises(AllClustersDegenerate):
        fit_restarts(pts, EngineConfig(k_init=2, family=QUAD1, seed=0), restarts=3)


def _column_scores(x, table):
    """(n, k) assignment costs, one uncached log-density call per cluster."""
    return np.column_stack([
        -math.log(table.weight[i]) - fadapted_log_density(row_params(table, i), x)
        for i in range(len(table.weight))
    ])


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
    cache = DesignCache(x)
    table, fitted = engine._refit(cache, rng.integers(0, 3, (1, x.shape[0])), [3], family)
    assume(fitted.size == 3)
    ref = _column_scores(x, table)
    (labels,) = assign_step(cache, [table], np.zeros((1, x.shape[0]), dtype=np.intp))
    assert np.array_equal(labels, np.argmin(ref, axis=1))
    scores = np.empty((3, x.shape[0]))
    for cols, block in engine.cluster_score_blocks(cache.design(family), [table]):
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
    cache = DesignCache(ds.rows)
    # one batch holding both lists: each row is reduced over its own clusters
    batch = [m.clusters.take([0, 1, 0]), m.clusters.take([0, 1])]
    labels, expected = assign_step(cache, batch, np.zeros((2, ds.n), dtype=np.intp))
    assert not np.any(labels == 2)
    assert np.array_equal(labels, expected)


def test_orphan_reassignment_ties_go_to_lowest_index():
    ds = _circle(seed=15)
    m = fit(ds, EngineConfig(k_init=3, family=QUAD1, seed=2))
    cache = DesignCache(ds.rows)
    # fills the cache
    (expected,) = engine._nearest(cache.design(QUAD1), [m.clusters.take([0, 1])])
    # every point sits in label 3, which is dropped; survivors 0 and 2 are equal
    orphans = np.full(ds.n, 3)
    survivors = m.clusters.take([0, 1, 0])
    (out,), moved, dropped = engine._drop(
        cache, orphans[None], [0], [4], [np.arange(3)], lambda r, keep: survivors
    )
    assert (moved, dropped) == ([0], 1)
    assert not np.any(out == 2)
    assert np.array_equal(out, expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=6), min_size=1, max_size=6))
# runs keeping nothing and everything, first, in the middle and last
@example([[False, False], [True, False, True], [True, True]])
@example([[True, True], [False, False, False], [False, True]])
@example([[False, True], [True, True, True], [False]])
def test_split_runs_equals_per_run_flatnonzero(runs):
    keep = np.concatenate([np.array(run) for run in runs])
    parts = engine._split_runs(np.flatnonzero(keep), [len(run) for run in runs])
    assert len(parts) == len(runs)
    for part, run in zip(parts, runs):
        assert np.array_equal(part, np.flatnonzero(run))


def _same_bits(a, b):
    """a and b are both None, or ClusterFits whose arrays hold the same bits."""
    if a is None or b is None:
        return a is b
    pairs = zip(a[1:], b[1:])
    return all(u.shape == v.shape and u.tobytes() == v.tobytes() for u, v in pairs)


def test_drop_step_gives_each_run_of_a_batch_what_it_gets_alone():
    rng = np.random.default_rng(23)
    n = 300
    x = rng.standard_normal((n, 2))
    x[:, 1] += x[:, 0] ** 2
    cache = DesignCache(x)
    thirds = np.arange(n) % 3
    (table,), _, _ = engine._reestimate(cache, thirds[None], [3], QUAD1)
    idle = np.zeros(n, dtype=np.intp)

    # below 0.2 * n = 60 points: none of run 0's clusters of 100, the cluster
    # of 10 of run 1, every cluster of 50 of run 2; row 3 is not running
    batch = [table, table, table.take([0, 1, 2, 0, 1, 2]), None]
    labels = np.stack([thirds, rng.permutation(np.repeat([0, 1, 2], [150, 140, 10])),
                       np.arange(n) % 6, idle])
    ks, out, deleted = delete_small(cache, batch, labels, 0.2)
    alone = [delete_small(cache, [t], row[None], 0.2) for t, row in zip(batch, labels[:3])]
    assert ks == [k for (k,), _, _ in alone] + [None] == [3, 2, None, None]
    for row, (_, (want,), _) in zip(out, alone):
        assert np.array_equal(row, want)
    assert np.array_equal(out[3], idle)
    assert deleted == sum(d for *_, d in alone) == 1

    # no fit on fewer points than QUAD1's 3 terms: run 1 drops its cluster of
    # 2, run 2 all of its clusters of 2
    ks = [3, 3, n // 2, None]
    labels = np.stack([thirds, rng.permutation(np.repeat([0, 1, 2], [149, 149, 2])),
                       np.arange(n) // 2, idle])
    tables, out, dropped = engine._reestimate(cache, labels, ks, QUAD1)
    alone = [engine._reestimate(cache, row[None], [k], QUAD1) for row, k in zip(labels, ks[:3])]
    assert [None if t is None else len(t.weight) for t in tables] == [3, 2, None, None]
    for t, row, ((want_t,), (want,), _) in zip(tables, out, alone):
        assert _same_bits(t, want_t)
        assert np.array_equal(row, want)
    assert tables[3] is None and np.array_equal(out[3], idle)
    assert dropped == sum(d for *_, d in alone) == 1


def test_orphans_scored_from_design_rows_get_a_fresh_designs_labels():
    ds = generate(GeneratorSpec(kind="parametric3d", n=400, noise_sigma=0.1, seed=18))
    family = builtin_family("cubic", 2)
    m = fit(ds, EngineConfig(k_init=4, family=family, seed=1, max_iters=3))
    cache = DesignCache(ds.rows)
    # cluster 0 is dropped: its points are the orphans
    keep = np.arange(1, m.k)
    survivors = m.clusters.take(keep)
    (out,), _, _ = engine._drop(
        cache, m.assignment[None], [0], [m.k], [keep], lambda r, kept: survivors
    )
    orphans = np.flatnonzero(m.assignment == 0)
    assert orphans.size and m.k > 2
    fresh = family._refit_layout.union.design_matrix(ds.rows[orphans])
    assert np.array_equal(cache.design(family)[orphans], fresh)
    (want,) = engine._nearest(fresh, [survivors])
    assert np.array_equal(out[orphans], want)
    assert np.array_equal(out, np.where(m.assignment == 0, out, m.assignment - 1))


def _recorded_designs(monkeypatch):
    """The list of every array DesignCache.design returns from now on."""
    original = DesignCache.design
    designs = []

    def recording(self, family):
        designs.append(original(self, family))
        return designs[-1]

    monkeypatch.setattr(DesignCache, "design", recording)
    return designs


def _assert_one_full_design(designs, n):
    # orphans are scored from rows of the one design, so every call returns it
    assert designs and all(out is designs[0] for out in designs)
    assert designs[0].shape[0] == n


@pytest.mark.parametrize("command", ["fit", "sweep"])
def test_command_builds_its_scoring_design_once(tmp_path, monkeypatch, command):
    ds = generate(GeneratorSpec(kind="parametric3d", n=900, noise_sigma=0.1, seed=16))
    path = tmp_path / "in.csv"
    save_csv(ds, path)
    designs = _recorded_designs(monkeypatch)
    size = ["--k", "6"] if command == "fit" else ["--k-max", "4", "--restarts", "2"]
    argv = [command, "--input", str(path), *size, "--family", "quadratic", "--max-iters", "5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    _assert_one_full_design(designs, ds.n)


def test_first_refit_drop_scores_its_orphans_from_the_one_design(monkeypatch):
    # the degenerate mix's first refit drops three of its six labels, before
    # any assignment has built the design
    x, labels = degenerate_mix()
    monkeypatch.setattr(engine, "_init_partition", lambda rows, init, runs: labels[None].copy())
    designs = _recorded_designs(monkeypatch)
    with pytest.warns(ZeroResidualWarning):
        m = fit(x, EngineConfig(k_init=6, family=builtin_family("quadratic", 2)))
    assert m.deletion_iterations[0] == 0 and m.deleted_count >= 3
    _assert_one_full_design(designs, len(x))
