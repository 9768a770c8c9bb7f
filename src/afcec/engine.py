"""The clustering loop: assignment, small-cluster deletion, re-estimation.

Cost being minimized: sum_i p_i * (-ln p_i + H_i) where p_i is the cluster
weight and H_i the cluster's closed-form cross-entropy against its fitted
curved Gaussian. Each step (assignment by cost argmin, weight update,
per-cluster refit) is an exact argmin of the same objective, so the cost
decreases on every iteration that performs no deletion.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

# select_orientation is not called here; bench/spans.py wraps it under this
# module's name as well
from .curves import axis_design, refit_segments, select_orientation  # noqa: F401
# fadapted_log_density is not called here; bench/spans.py wraps it under this
# module's name as well
from .density import fadapted_cross_entropy, fadapted_log_density, score_blocks  # noqa: F401
from .errors import AllClustersDegenerate, DegenerateCluster, InvalidConfig

INITS = ("random_partition", "kmeanspp")


@dataclass(frozen=True)
class ClusterModel:
    params: object  # FAdaptedParams
    weight: float
    size: int
    cross_entropy: float


@dataclass
class AfcecModel:
    clusters: list
    assignment: np.ndarray
    cost_trace: list
    iterations: int
    deleted_count: int
    deletion_iterations: list = field(default_factory=list)

    @property
    def k(self):
        return len(self.clusters)

    @property
    def final_cost(self):
        return self.cost_trace[-1]


@dataclass(frozen=True)
class EngineConfig:
    k_init: int
    family: object
    epsilon: float = 1e-4
    deletion_fraction: float = 0.01
    max_iters: int = 200
    seed: int = 0
    init: str = "random_partition"

    def validate(self):
        if self.k_init < 1:
            raise InvalidConfig("k_init must be >= 1")
        if not (self.epsilon > 0):
            raise InvalidConfig("epsilon must be > 0")
        if not (0 <= self.deletion_fraction < 1):
            raise InvalidConfig("deletion_fraction must be in [0, 1)")
        if self.max_iters < 1:
            raise InvalidConfig("max_iters must be >= 1")
        if self.init not in INITS:
            raise InvalidConfig(f"init must be one of {INITS}")

    def validate_for(self, shape):
        """validate(), plus the checks against an (n, d) data shape."""
        self.validate()
        n, d = shape
        if d < 2:
            raise InvalidConfig("need at least 2 coordinates")
        if n < self.k_init * (d + 1):
            raise InvalidConfig(
                f"need at least k_init*(d+1)={self.k_init * (d + 1)} points, got {n}"
            )


def as_array(x):
    """Accept a Dataset or a plain (n, d) array."""
    rows = getattr(x, "rows", x)
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2:
        raise InvalidConfig("data must be 2-D (n points x d coordinates)")
    return a


def cost(x, clusters, assignment):
    """sum_i p_i * (-ln p_i + H_i), H_i recomputed from each cluster's
    current point set with its stored axis and curve."""
    x = as_array(x)
    assignment = np.asarray(assignment)
    n = x.shape[0]
    total = 0.0
    for i, cl in enumerate(clusters):
        xi = x[assignment == i]
        if len(xi) == 0:
            raise DegenerateCluster(f"cluster {i} is empty")
        h, _ = fadapted_cross_entropy(xi, cl.params.dependent_axis, cl.params.curve)
        p = len(xi) / n
        total += p * (-math.log(p) + h)
    return total


class DesignCache:
    """Per-axis designs over one fixed (n, d) point set.

    A dependent axis's AxisDesign is built the first time a cluster on that
    axis (and family) is scored. fit,
    fit_restarts and selection.score take a DesignCache wherever they take
    data (it holds the points as `rows`, like a Dataset), so a command that
    passes one cache to all of them splits its data and builds each design
    once per axis.
    """

    def __init__(self, rows):
        self.rows = rows
        self._designs = {}

    def design(self, params):
        return self.axis(params.dependent_axis, params.curve.family)

    def axis(self, j, family):
        """The AxisDesign of dependent axis j under family."""
        found = self._designs.get((j, family))
        if found is None:
            found = self._designs[j, family] = axis_design(self.rows, j, family)
        return found

    def take(self, idx):
        """A cache over rows[idx] holding this one's designs restricted to idx."""
        sub = DesignCache(self.rows[idx])
        sub._designs = {key: found.take(idx) for key, found in self._designs.items()}
        return sub


def design_cache(x):
    """x itself when it is a DesignCache, else a new one over as_array(x)."""
    return x if isinstance(x, DesignCache) else DesignCache(as_array(x))


def cluster_score_blocks(cache, clusters):
    """density.score_blocks of -ln p_i - log f_i(x) over the cache's points,
    each cluster scored from the cache's design for its axis."""
    params = [cl.params for cl in clusters]
    augs = [cache.design(p).aug for p in params]
    return score_blocks(params, augs, [-math.log(cl.weight) for cl in clusters])


def _argmin_rows(scores):
    """np.argmin(scores, axis=0) of a (k, n) block, ties to the lowest row.

    Marks the rows attaining each column's minimum, weights row i by k - i and
    takes each column's largest weight, so the lowest marked row wins; this
    avoids the transposed (n, k) copy that numpy's argmin along axis 0 makes.
    A column holding NaN marks no row and goes to row 0.
    """
    k = scores.shape[0]
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    top = np.multiply(scores == scores.min(axis=0), rank).max(axis=0)
    labels = k - top.astype(np.intp)
    labels[top == 0] = 0
    return labels


def _nearest(cache, batch):
    """(len(batch), n) labels: row r sends each of the cache's points to
    argmin_i [-ln p_i - log f_i(x)] over the cluster list batch[r], ties to
    the lowest index.

    One score_blocks walk scores the clusters of every list, and each block
    is reduced list by list; a score has the same bits in any set of clusters,
    so each row equals the labels of its list scored alone.
    """
    bounds = np.cumsum([0] + [len(clusters) for clusters in batch]).tolist()
    labels = np.empty((len(batch), cache.rows.shape[0]), dtype=np.intp)
    flat = [cl for clusters in batch for cl in clusters]
    for cols, block in cluster_score_blocks(cache, flat):
        for row, lo, hi in zip(labels, bounds, bounds[1:]):
            row[cols] = _argmin_rows(block[lo:hi])
    return labels


def assign_step(cache, batch, labels):
    """A copy of the (R, n) labels in which every row r whose batch[r] is not
    None (a running restart) holds _nearest's labels over the clusters
    batch[r]; the other rows are kept.

    The Lloyd loop's assignment over every point of every running restart.
    Orphan reassignment calls _nearest on its subset instead, so
    bench/spans.py, which times this function by name and counts the points
    each call moves against the last refit's labels, sees one call per
    iteration.
    """
    live = [r for r, clusters in enumerate(batch) if clusters is not None]
    found = _nearest(cache, [batch[r] for r in live])
    if len(live) == len(batch):  # no row to keep, so no copy of labels
        return found
    out = labels.copy()
    out[live] = found
    return out


def _refit(cache, labels, ks, family):
    """One batched refit of the rows of the (R, n) labels, row r holding
    labels 0..ks[r]-1: per row, one ClusterModel per label, None for an empty
    or degenerate cluster.

    Each row's points are stably sorted by label, so every cluster is one
    contiguous segment holding its points in their original order. The rows'
    segments are concatenated into one gather of the points, and
    curves.refit_segments fits each segment from its own centred Gram, as it
    would fit it alone.
    """
    n = cache.rows.shape[0]
    # numpy sorts 8- and 16-bit keys stably by radix sort
    order = np.argsort(
        labels.astype(np.min_scalar_type(max(ks))), axis=1, kind="stable"
    ).reshape(-1)
    sizes = np.concatenate([np.bincount(row, minlength=k) for row, k in zip(labels, ks)])
    bounds = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    fits = refit_segments(np.take(cache.rows, order, axis=0), bounds, family)
    models = [
        None if f is None else ClusterModel(f[3], size / n, size, f[2])
        for f, size in zip(fits, sizes.tolist())
    ]
    ends = np.cumsum(ks).tolist()
    return [models[end - k : end] for k, end in zip(ks, ends)]


def _reassign(cache, assignment, k, keep, survivors):
    """Relabel keep[i] -> i (keep ascending, labels below k) and send every
    point whose label is not kept to the survivor minimizing the assignment
    cost, scored from the cache's designs."""
    lookup = np.full(k, -1)
    lookup[keep] = np.arange(len(keep))
    out = lookup[assignment]
    moved = np.flatnonzero(out < 0)
    if moved.size:
        (out[moved],) = _nearest(cache.take(moved), [survivors])
    return out


def _reestimate(cache, labels, ks, family):
    """Refit the clusters of every running restart; drop the ones that fail,
    reassigning their points.

    labels is (R, n); ks[r] is restart r's cluster count, or None for a
    restart that is not running. Returns (batch, labels, dropped): batch[r]
    holds restart r's refit clusters, None where ks[r] is None or every
    cluster failed; labels holds the labels after reassignment (the input
    array when nothing was dropped); dropped counts the clusters dropped over
    all restarts. Points of failed clusters go to the surviving cluster
    minimizing the assignment cost. Survivors that receive points are refit
    again; repeats until stable (k only shrinks). Labels are compacted to
    0..k'-1 in original order. Every pass refits all restarts that need it at
    once, so each restart gets the clusters a lone refit gives it.
    """
    ks = list(ks)
    batch = [None] * len(ks)
    todo = [r for r, k in enumerate(ks) if k is not None]
    dropped, copied = 0, False
    while todo:
        rows = labels if len(todo) == len(ks) else labels[todo]
        again = []
        for r, fitted in zip(todo, _refit(cache, rows, [ks[r] for r in todo], family)):
            keep = [lab for lab, cl in enumerate(fitted) if cl is not None]
            if not keep:
                continue
            batch[r] = [fitted[lab] for lab in keep]
            if len(keep) < ks[r]:
                if not copied:
                    labels, copied = labels.copy(), True
                dropped += ks[r] - len(keep)
                # refit survivors on their (possibly grown) point sets next pass
                labels[r] = _reassign(cache, labels[r], ks[r], keep, batch[r])
                ks[r] = len(keep)
                again.append(r)
        todo = again
    return batch, labels, dropped


def delete_small(cache, clusters, assignment, threshold_fraction):
    """Remove clusters holding fewer than threshold_fraction*n of the cache's
    n points (empty ones always go); reassign their points by the assignment
    cost argmin over the survivors (using the survivors' current weights),
    then renormalize all weights from the final sizes."""
    assignment = np.asarray(assignment)
    n = cache.rows.shape[0]
    sizes = np.bincount(assignment, minlength=len(clusters))
    keep = [i for i, s in enumerate(sizes) if s > 0 and s >= threshold_fraction * n]
    if not keep:
        raise AllClustersDegenerate("no cluster meets the size threshold")
    deleted = len(clusters) - len(keep)
    if deleted == 0:
        return list(clusters), assignment, 0
    survivors = [clusters[i] for i in keep]
    assignment = _reassign(cache, assignment, len(clusters), keep, survivors)
    new_sizes = np.bincount(assignment, minlength=len(survivors))
    survivors = [
        replace(cl, weight=int(s) / n, size=int(s)) for cl, s in zip(survivors, new_sizes)
    ]
    return survivors, assignment, deleted


def _sq_dist(xs_t, c):
    """Squared distances of the columns of xs_t ((d, n)) to the point c,
    added coordinate by coordinate in order: for d < 8 the same bits as
    np.sum(..., axis=1) over the rows, at a fraction of its cost."""
    c = c.tolist()
    out = (xs_t[0] - c[0]) ** 2
    for xi, ci in zip(xs_t[1:], c[1:]):
        out += (xi - ci) ** 2
    return out


def _init_partition(x, cfg, seeds):
    """Initial balanced partitions, one row per seed (cfg.seed is not read),
    each deterministic over (data multiset, seed).

    The rows of x are sorted lexicographically once; per seed they are
    shuffled by the seeded generator and dealt round-robin (random_partition)
    or assigned to their nearest k-means++ seed (kmeanspp).
    """
    n = x.shape[0]
    order = np.lexsort(x.T[::-1])  # sort by column 0, then 1, ...
    if cfg.init == "random_partition":
        out = np.empty((len(seeds), n), dtype=int)
        deal = np.arange(n) % cfg.k_init
        for row, seed in zip(out, seeds):
            rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
            row[order[rng.permutation(n)]] = deal
        return out
    # k-means++-style seeding on the sorted rows; each point keeps the first
    # centre at its smallest squared distance (ties to the lowest index)
    xs_t = x[order].T.copy()
    out = np.empty((len(seeds), n), dtype=int)
    for row, seed in zip(out, seeds):
        rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        d2 = _sq_dist(xs_t, xs_t[:, rng.integers(n)])
        nearest = np.zeros(n, dtype=int)
        for t in range(1, cfg.k_init):
            total = d2.sum()
            if total <= 0:
                # every point sits on a centre already: the new one wins nowhere
                rng.integers(n)
                continue
            dist = _sq_dist(xs_t, xs_t[:, rng.choice(n, p=d2 / total)])
            nearest[dist < d2] = t
            np.minimum(d2, dist, out=d2)
        row[order] = nearest
    return out


def _total_cost(clusters):
    """sum_i p_i * (-ln p_i + H_i) from each cluster's stored weight and H."""
    return sum(cl.weight * (-math.log(cl.weight) + cl.cross_entropy) for cl in clusters)


def _lloyd(cache, cfg, seeds):
    """The clustering loop from one initial partition per seed, all seeds run
    in lockstep over one DesignCache. Returns, per seed, its AfcecModel or the
    AllClustersDegenerate that ended its run.

    Each iteration scores every running seed's clusters in one assign_step,
    runs delete_small per seed and refits every running seed in one
    _reestimate. A seed stops when h_n >= h_{n-1} - epsilon, at max_iters, or
    when it fails. The stop condition is only consulted on iterations that
    deleted nothing (a deletion can bump the cost, and stopping there would
    freeze a partial model); every deletion lowers k, so this cannot loop
    forever. Every step treats each seed as a lone run would, so each result
    is bit for bit the one a batch of that seed alone gives.
    """
    cfg.validate_for(cache.rows.shape)
    results = [AfcecModel([], None, [], 0, 0) for _ in seeds]
    running = list(range(len(seeds)))
    ks = [cfg.k_init] * len(seeds)
    deleted = [0] * len(seeds)
    labels = _init_partition(cache.rows, cfg, seeds)
    # iteration 0 refits the initial partitions
    for it in range(cfg.max_iters + 1):
        if it:
            batch = [None] * len(seeds)
            for r in running:
                batch[r] = results[r].clusters
            labels = assign_step(cache, batch, labels)
            ks = [None] * len(seeds)
            for r in running:
                try:
                    survivors, labels[r], deleted[r] = delete_small(
                        cache, batch[r], labels[r], cfg.deletion_fraction
                    )
                except AllClustersDegenerate as e:
                    results[r] = e
                    continue
                ks[r] = len(survivors)
        batch, labels, _ = _reestimate(cache, labels, ks, cfg.family)
        still = []
        for r in running:
            if ks[r] is None:
                continue
            model, clusters = results[r], batch[r]
            if clusters is None:
                results[r] = AllClustersDegenerate("every cluster failed estimation")
                continue
            ndel = deleted[r] + ks[r] - len(clusters)
            if ndel:
                model.deleted_count += ndel
                model.deletion_iterations.append(it)
            h = _total_cost(clusters)
            model.cost_trace.append(h)
            model.clusters, model.iterations = clusters, it
            if it == 0 or ndel or h < model.cost_trace[-2] - cfg.epsilon:
                still.append(r)
        running = still
        if not running:
            break

    for r, model in enumerate(results):
        if isinstance(model, AfcecModel):
            model.assignment = labels[r]
    return results


def fit(x, cfg):
    """Run the clustering loop from cfg.seed's initial partition until
    h_n >= h_{n-1} - epsilon or max_iters: _lloyd on one seed.

    x is a Dataset, an (n, d) array, or a DesignCache over the data.
    """
    (model,) = _lloyd(design_cache(x), cfg, [cfg.seed])
    if isinstance(model, AllClustersDegenerate):
        raise model
    return model


def fit_restarts(x, cfg, restarts):
    """fit() with seeds cfg.seed .. cfg.seed+restarts-1, run in lockstep
    (_lloyd); returns the lowest-cost model and the final costs of the
    successful restarts in seed order. Each restart's model is the one fit()
    gives for its seed.

    Ties between restarts break toward the smaller seed. A restart failure
    propagates only if every restart fails.
    """
    if restarts < 1:
        raise InvalidConfig("restarts must be >= 1")
    results = _lloyd(design_cache(x), cfg, range(cfg.seed, cfg.seed + restarts))
    models = [m for m in results if isinstance(m, AfcecModel)]
    if not models:
        raise results[0]
    # min keeps the first of equal costs, i.e. the smallest seed
    best = min(models, key=lambda m: m.final_cost)
    return best, [m.final_cost for m in models]
