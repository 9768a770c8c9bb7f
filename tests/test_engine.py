from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from afcec import engine
from afcec.curves import builtin_family
from afcec.data import Dataset, GeneratorSpec, generate
from afcec.engine import EngineConfig, assign_step, cost, delete_small, fit, fit_restarts
from afcec.errors import AllClustersDegenerate, InvalidConfig

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
