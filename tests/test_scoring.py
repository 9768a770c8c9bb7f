"""The blocked assignment scorer (density.score_blocks) and its reductions:
assign_step's argmin, the mixture and max log-likelihood, and the k-means++
seeding labels."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from afcec import engine
from afcec.curves import BUILTIN_KINDS, builtin_family, select_orientation
from afcec.density import SCORE_BLOCK, SCORE_GEMM_CLUSTERS, fadapted_log_density, score_blocks
from afcec.engine import ClusterModel, DesignCache, EngineConfig
from afcec.errors import DegenerateCluster
from afcec.selection import log_likelihood

LD = np.longdouble
EPS = np.finfo(float).eps
# scores agree with the long-double reference to this many float64 epsilons
# of the sum of absolute terms (the worst seen in 300 random cases is 1.6)
SCORE_TOL_EPS = 16


def _data(rng, n, d, scale=1.0):
    x = rng.standard_normal((n, d))
    x[:, -1] += 0.5 * x[:, 0] ** 2 - 0.2 * x[:, 1] ** 3
    return (x + rng.uniform(-2.0, 2.0, d)) * scale


def _score_rows(cache, clusters):
    """(k, n) -ln p_i - log f_i(x) over the cache's points, gathered from
    engine.cluster_score_blocks."""
    scores = np.empty((len(clusters), cache.rows.shape[0]))
    for cols, block in engine.cluster_score_blocks(cache, clusters):
        scores[:, cols] = block
    return scores


def _clusters_on(x, labels, family):
    n = x.shape[0]
    out = []
    for lab in np.unique(labels):
        pts = x[labels == lab]
        _, _, h, params = select_orientation(pts, family)
        out.append(ClusterModel(params, len(pts) / n, len(pts), h))
    return out


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    extra=st.integers(min_value=1, max_value=SCORE_BLOCK - 1),
    # past SCORE_GEMM_CLUSTERS, the clusters span more than one matrix product
    k=st.integers(min_value=1, max_value=SCORE_GEMM_CLUSTERS + 4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cluster_row_has_the_same_bits_alone_and_in_a_block(kind, d, extra, k, seed):
    rng = np.random.default_rng(seed)
    n = SCORE_BLOCK + extra  # a full block and a partial one
    x = _data(rng, n, d)
    family = builtin_family(kind, d - 1)
    try:
        clusters = _clusters_on(x, rng.integers(0, k, n), family)
    except DegenerateCluster:
        assume(False)
    cache = DesignCache(x)
    block = _score_rows(cache, clusters)
    design = family._refit_layout.union.design_matrix(x)
    assert np.array_equal(cache.design(family), design)
    for i, cl in enumerate(clusters):
        shift = -math.log(cl.weight)
        alone = np.empty(n)
        for cols, scores in score_blocks([cl.params], design, [shift]):
            alone[cols] = scores[0]
        assert np.array_equal(block[i], alone)
        assert np.array_equal(block[i], shift - fadapted_log_density(cl.params, x))


def test_clusters_of_different_families_are_rejected():
    rng = np.random.default_rng(4)
    x = _data(rng, 900, 3)
    labels = rng.integers(0, 2, x.shape[0])
    clusters = [
        _clusters_on(x[labels == lab], np.zeros(np.count_nonzero(labels == lab)),
                     builtin_family(kind, 2))[0]
        for lab, kind in enumerate(["quadratic", "cubic"])
    ]
    design = clusters[0].params.curve.family._refit_layout.union.design_matrix(x)
    with pytest.raises(ValueError, match="one family"):
        next(score_blocks([cl.params for cl in clusters], design))


def _long_double_scores(x, cl):
    """-ln p - log f at every row of x in long double from the parameters, and
    the sum of absolute terms that computation adds up, per row."""
    p = cl.params
    d, j = p.dim, p.dependent_axis
    xe = np.delete(x, j, axis=1).astype(LD)
    xj = x[:, j].astype(LD)
    cov, m = p.cov_exp.astype(LD), d - 1
    low = np.zeros((m, m), LD)
    for a in range(m):
        for b in range(a + 1):
            s = cov[a, b] - sum(low[a, t] * low[b, t] for t in range(b))
            low[a, b] = np.sqrt(s) if a == b else s / low[b, b]
    inv = np.zeros((m, m), LD)
    for c in range(m):
        for a in range(m):
            unit = LD(a == c)
            inv[a, c] = (unit - sum(low[a, t] * inv[t, c] for t in range(a))) / low[a, a]
    z = inv @ (xe - p.mean_exp.astype(LD)).T
    phi = np.ones((x.shape[0], p.curve.family.size), LD)
    for b, row in enumerate(p.curve.family.exponents.tolist()):
        for i, e in enumerate(row):
            phi[:, b] *= xe[:, i] ** e
    beta = p.curve.coeffs.astype(LD)
    var = LD(p.resid_var)
    resid = xj - phi @ beta
    log_diag = np.log(np.diag(low))
    ln_p = np.log(LD(cl.weight))
    ln_2pi = np.log(2 * LD(np.pi))
    ref = (-ln_p + 0.5 * (d * ln_2pi + 2 * log_diag.sum() + np.log(var))
           + 0.5 * (z * z).sum(axis=0) + 0.5 * resid * resid / var)
    a_exp = np.abs(inv) @ (np.abs(xe.T) + np.abs(p.mean_exp.astype(LD))[:, None])
    a_res = (np.abs(xj) + np.abs(phi) @ np.abs(beta)) / np.sqrt(var)
    terms = (abs(ln_p) + 0.5 * (d * ln_2pi + 2 * np.abs(log_diag).sum() + abs(np.log(var)))
             + 0.5 * ((a_exp * a_exp).sum(axis=0) + a_res * a_res))
    return ref, terms


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_scores_match_long_double_reference(kind, d, log_scale, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    x = _data(rng, 300, d, scale)
    try:
        clusters = _clusters_on(x, rng.integers(0, 3, x.shape[0]), builtin_family(kind, d - 1))
    except DegenerateCluster:
        assume(False)
    # an intercept off the least-squares one, so the residuals have a mean
    params = clusters[0].params
    coeffs = params.curve.coeffs.copy()
    coeffs[0] += 0.1 * scale
    curve = replace(params.curve, coeffs=coeffs)
    clusters[0] = replace(clusters[0], params=replace(params, curve=curve))
    got = _score_rows(DesignCache(x), clusters)
    for row, cl in zip(got, clusters):
        ref, terms = _long_double_scores(x, cl)
        assert np.all(np.abs(row.astype(LD) - ref) <= SCORE_TOL_EPS * EPS * terms)


def test_log_likelihood_matches_numpy_reference_far_from_every_cluster():
    rng = np.random.default_rng(21)
    near = rng.standard_normal((200, 2))
    tight = rng.normal([30.0, 0.0], 0.1, (100, 2))
    model = SimpleNamespace(
        clusters=_clusters_on(np.vstack([near, tight]), np.repeat([0, 1], [200, 100]),
                              builtin_family("quadratic", 1))
    )
    # the outlier's best term is below -745 (exp underflows to 0) and beats
    # the other cluster's by far more than 745 nats
    x = np.vstack([near, tight, [[-40.0, 0.0]]])
    wl = np.stack([math.log(cl.weight) + fadapted_log_density(cl.params, x)
                   for cl in model.clusters])
    best, other = np.sort(wl[:, -1])[::-1]
    assert best < -745.0 and best - other > 745.0
    top = wl.max(axis=0)
    mixture = np.sum(top + np.log(np.exp(wl - top).sum(axis=0)))
    np.testing.assert_allclose(log_likelihood(x, model, "mixture"), mixture, rtol=1e-13)
    np.testing.assert_allclose(log_likelihood(x, model, "max"), np.sum(top), rtol=1e-13)
    assert np.isfinite(mixture)


def _reference_kmeanspp(x, k, seed):
    """k-means++ labels by one argmin over the (n, k, d) distance block."""
    n = x.shape[0]
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    order = np.lexsort(x.T[::-1])
    xs = x[order]
    centers = [xs[rng.integers(n)]]
    d2 = np.sum((xs - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers.append(xs[rng.integers(n)])
            continue
        centers.append(xs[rng.choice(n, p=d2 / total)])
        d2 = np.minimum(d2, np.sum((xs - centers[-1]) ** 2, axis=1))
    c = np.asarray(centers)
    nearest = np.argmin(((xs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2), axis=1)
    labels = np.empty(n, dtype=int)
    labels[order] = nearest
    return labels


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=2, max_value=4).flatmap(
        lambda d: hnp.arrays(
            float,
            st.tuples(st.integers(min_value=1, max_value=40), st.just(d)),
            # few distinct small integers: duplicate rows and exact distance ties
            elements=st.integers(min_value=-2, max_value=2).map(float),
        )
    ),
    k=st.integers(min_value=1, max_value=8),
    scale=st.sampled_from([1.0, 0.1, 1e3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kmeanspp_labels_equal_broadcast_argmin(x, k, scale, seed):
    x = x * scale
    cfg = EngineConfig(k_init=k, family=builtin_family("linear", x.shape[1] - 1),
                       seed=seed, init="kmeanspp")
    (labels,) = engine._init_partition(x, cfg, [seed])
    assert np.array_equal(labels, _reference_kmeanspp(x, k, seed))


def test_kmeanspp_constant_data_takes_the_random_branch():
    x = np.full((12, 3), 1.5)
    cfg = EngineConfig(k_init=4, family=builtin_family("linear", 2), seed=3, init="kmeanspp")
    (labels,) = engine._init_partition(x, cfg, [3])
    assert np.array_equal(labels, _reference_kmeanspp(x, 4, 3))
    assert not labels.any()


def test_first_traced_cost_equals_recomputed_cost():
    x = _data(np.random.default_rng(8), 600, 2)
    family = builtin_family("quadratic", 1)
    for init in engine.INITS:
        cfg = EngineConfig(k_init=5, family=family, seed=2, init=init)
        (clusters,), (assignment,), _ = engine._reestimate(
            DesignCache(x), engine._init_partition(x, cfg, [cfg.seed]), [cfg.k_init], family
        )
        first = engine.fit(x, cfg).cost_trace[0]
        # the refit's H reads the SSE from the Gram, engine.cost from explicit
        # residuals of the same curves
        assert first == pytest.approx(engine.cost(x, clusters, assignment), rel=1e-13, abs=0)


def test_argmin_rows_sends_nan_columns_to_row_zero():
    scores = np.array([[1.0, np.nan, 3.0, 2.0], [0.5, 0.0, np.nan, 2.0], [0.5, 1.0, 1.0, 1.0]])
    assert engine._argmin_rows(scores).tolist() == [1, 0, 0, 2]
