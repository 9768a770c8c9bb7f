import math

import numpy as np
import pytest

from afcec.curves import builtin_family
from afcec.data import GeneratorSpec, generate
from afcec.engine import DesignCache, EngineConfig, assign_step, fit
from afcec.selection import count_params, log_likelihood, score

QUAD1 = builtin_family("quadratic", 1)
LIN1 = builtin_family("linear", 1)


def _fitted(family=QUAD1, k=3, seed=0, n=400):
    ds = generate(GeneratorSpec(kind="circle", n=n, noise_sigma=0.08, seed=seed))
    return ds, fit(ds, EngineConfig(k_init=k, family=family, seed=seed))


def test_count_params_quadratic_2d_is_7_per_cluster():
    # mean 1 + variance 1 + residual variance 1 + three coefficients + weight
    ds, m = _fitted(QUAD1, k=3, seed=1)
    assert count_params(m) == 7 * m.k


def test_count_params_linear_2d_is_6_per_cluster():
    # matches a full 2-d Gaussian: 2 mean + 3 covariance + 1 weight
    ds, m = _fitted(LIN1, k=2, seed=2)
    assert count_params(m) == 6 * m.k


def test_count_params_general_3d():
    ds3 = generate(GeneratorSpec(kind="parametric3d", n=300, noise_sigma=0.1, seed=3))
    m = fit(ds3, EngineConfig(k_init=2, family=builtin_family("quadratic", 2), seed=3))
    # (d-1) mean + (d-1)d/2 cov + 1 resid + 6 coefficients + 1 weight = 13
    assert count_params(m) == 13 * m.k


def test_mixture_loglik_at_least_max():
    ds, m = _fitted(QUAD1, k=3, seed=5)
    assert log_likelihood(ds, m, "mixture") >= log_likelihood(ds, m, "max") - 1e-12


def test_single_cluster_modes_coincide():
    ds, m = _fitted(QUAD1, k=1, seed=6)
    mix = log_likelihood(ds, m, "mixture")
    mx = log_likelihood(ds, m, "max")
    assert mix == pytest.approx(mx, abs=1e-12)


def test_loglik_rejects_unknown_mode():
    ds, m = _fitted(QUAD1, k=2, seed=7)
    with pytest.raises(ValueError):
        log_likelihood(ds, m, "map")


def test_max_loglik_equals_minus_n_cost_at_fixed_point():
    # iterate assignment/refit to a mutually consistent state first
    from afcec.engine import _reestimate, cost as engine_cost

    ds, m = _fitted(QUAD1, k=3, seed=8)
    table, assignment = m.clusters, m.assignment
    cache = DesignCache(ds.rows)
    for _ in range(50):
        (nxt,) = assign_step(cache, [table], assignment[None])
        if np.array_equal(nxt, assignment):
            break
        assignment = nxt
        (table,), (assignment,), _ = _reestimate(
            cache, assignment[None], [len(table.weight)], QUAD1
        )
    h = engine_cost(ds.rows, table, assignment)
    m.clusters, m.assignment = table, assignment
    assert log_likelihood(ds, m, "max") == pytest.approx(-ds.n * h, abs=1e-8)


def test_score_formulas():
    ds, m = _fitted(QUAD1, k=2, seed=9)
    sc = score(ds, m)
    ll = log_likelihood(ds, m, "mixture")
    p = count_params(m)
    assert sc.loglik == pytest.approx(ll, abs=1e-12)
    assert sc.n_params == p
    assert sc.bic == pytest.approx(-2.0 * ll + p * math.log(ds.n), abs=1e-10)
    assert sc.aic == pytest.approx(-2.0 * ll + 2.0 * p, abs=1e-10)


def test_score_max_mode_uses_max_loglik():
    ds, m = _fitted(QUAD1, k=2, seed=10)
    sc = score(ds, m, ll_mode="max")
    assert sc.loglik == pytest.approx(log_likelihood(ds, m, "max"), abs=1e-12)
