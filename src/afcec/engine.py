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
from .curves import refit_segments, select_orientation  # noqa: F401
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
    """Accept a Dataset or a plain finite (n, d) array."""
    rows = getattr(x, "rows", x)
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2:
        raise InvalidConfig("data must be 2-D (n points x d coordinates)")
    if not np.isfinite(a).all():
        raise InvalidConfig("data must be finite")
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
    """The scoring design over one fixed (n, d) point set: the union design
    (curves._GramLayout) of the clusters' family, from which score_blocks
    scores a cluster on any dependent axis. It is built when a cluster is
    first scored, and again only for another family. fit, fit_restarts and
    selection.score take a DesignCache wherever they take data (it holds the
    points as `rows`, like a Dataset), so a command that passes one cache to
    all of them builds its design once. It is made over a Dataset or an
    (n, d) array, checked as as_array checks it.
    """

    def __init__(self, x):
        self.rows = as_array(x)
        self._family = self._design = None

    def design(self, family):
        """The union design of family over rows."""
        if family != self._family:
            self._design = family._refit_layout.union.design_matrix(self.rows)
            self._family = family
        return self._design

    def take(self, idx):
        """A cache over rows[idx] holding this one's design restricted to idx.
        The rows were checked when this cache was made, so not again."""
        sub = object.__new__(DesignCache)
        sub.rows, sub._family = self.rows[idx], self._family
        sub._design = None if self._design is None else np.take(self._design, idx, axis=0)
        return sub


def design_cache(x):
    """x itself when it is a DesignCache, else a new one over x."""
    return x if isinstance(x, DesignCache) else DesignCache(x)


def cluster_score_blocks(cache, clusters):
    """density.score_blocks of -ln p_i - log f_i(x) over the cache's points,
    every cluster scored from the cache's one design."""
    params = [cl.params for cl in clusters]
    design = cache.design(params[0].curve.family)
    return score_blocks(params, design, [-math.log(cl.weight) for cl in clusters])


def _argmin_rows(scores):
    """np.argmin(scores, axis=-2) of a (..., k, n) stack of blocks, ties to
    the lowest row.

    Marks the rows attaining each column's minimum, weights row i by k - i and
    takes each column's largest weight, so the lowest marked row wins; this
    avoids the transposed (n, k) copy that numpy's argmin along axis 0 makes.
    A column holding NaN marks no row and goes to row 0.
    """
    k = scores.shape[-2]
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    top = np.multiply(scores == scores.min(axis=-2, keepdims=True), rank).max(axis=-2)
    labels = k - top.astype(np.intp)
    labels[top == 0] = 0
    return labels


def _nearest(cache, batch):
    """(len(batch), n) labels: row r sends each of the cache's points to
    argmin_i [-ln p_i - log f_i(x)] over the cluster list batch[r], ties to
    the lowest index.

    One score_blocks walk scores the clusters of every list, and each block
    is reduced once per stretch of consecutive lists of one length; a score
    has the same bits in any set of clusters, so each row equals the labels
    of its list scored alone.
    """
    # (first row, rows, clusters per row) of each stretch of equal lengths
    groups = []
    for r, clusters in enumerate(batch):
        if groups and groups[-1][2] == len(clusters):
            groups[-1][1] += 1
        else:
            groups.append([r, 1, len(clusters)])
    labels = np.empty((len(batch), cache.rows.shape[0]), dtype=np.intp)
    flat = [cl for clusters in batch for cl in clusters]
    for cols, block in cluster_score_blocks(cache, flat):
        lo = 0
        for r, m, k in groups:
            stack = block[lo : lo + m * k].reshape(m, k, -1)
            labels[r : r + m, cols] = _argmin_rows(stack)
            lo += m * k
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
    cost, scored from the cache's design."""
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
    cost argmin over the survivors (using the survivors' current weights).
    Returns (surviving count, assignment compacted to 0..count-1, deleted
    count)."""
    assignment = np.asarray(assignment)
    n = cache.rows.shape[0]
    sizes = np.bincount(assignment, minlength=len(clusters)).tolist()
    keep = [i for i, s in enumerate(sizes) if s > 0 and s >= threshold_fraction * n]
    if not keep:
        raise AllClustersDegenerate("no cluster meets the size threshold")
    deleted = len(clusters) - len(keep)
    if deleted == 0:
        return len(clusters), assignment, 0
    survivors = [clusters[i] for i in keep]
    return len(keep), _reassign(cache, assignment, len(clusters), keep, survivors), deleted


def _sq_dist(xs_t, c):
    """Squared distances of the columns of xs_t ((d, n)) to the point c,
    added coordinate by coordinate in order: for d < 8 the same bits as
    np.sum(..., axis=1) over the rows, at a fraction of its cost."""
    c = c.tolist()
    out = (xs_t[0] - c[0]) ** 2
    for xi, ci in zip(xs_t[1:], c[1:]):
        out += (xi - ci) ** 2
    return out


def _init_partition(x, init, runs):
    """Initial balanced partitions, one row per (k, seed) run, each
    deterministic over (data multiset, k, seed).

    The rows of x are sorted lexicographically once for all runs; per run
    they are shuffled by the seeded generator and dealt round-robin into k
    clusters (random_partition) or assigned to their nearest of k k-means++
    seeds (kmeanspp).
    """
    n = x.shape[0]
    order = np.lexsort(x.T[::-1])  # sort by column 0, then 1, ...
    out = np.empty((len(runs), n), dtype=int)
    if init == "random_partition":
        deal = np.arange(n)
        for row, (k, seed) in zip(out, runs):
            rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
            row[order[rng.permutation(n)]] = deal % k
        return out
    # k-means++-style seeding on the sorted rows; each point keeps the first
    # centre at its smallest squared distance (ties to the lowest index)
    xs_t = np.take(x.T, order, axis=1)  # one copy, (d, n) and C-contiguous
    for row, (k, seed) in zip(out, runs):
        rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
        d2 = _sq_dist(xs_t, xs_t[:, rng.integers(n)])
        nearest = np.zeros(n, dtype=int)
        for t in range(1, k):
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


def _lloyd(cache, cfg, runs):
    """The clustering loop from one initial partition per (k, seed) run, all
    runs in lockstep over one DesignCache (cfg.k_init and cfg.seed are not
    read). Returns, per run, its AfcecModel or the AllClustersDegenerate that
    ended it.

    Each iteration scores the clusters of every live run in one assign_step,
    runs delete_small per run and refits every live run in one _reestimate;
    runs of different k share each pass, since every step reads each run's
    own cluster count. A run stops when h_n >= h_{n-1} - epsilon, at
    max_iters, or when it fails. The stop condition is only consulted on
    iterations that deleted nothing (a deletion can bump the cost, and
    stopping there would freeze a partial model); every deletion lowers k, so
    this cannot loop forever. Every step treats each run as a lone run would,
    so each result is bit for bit the one a batch of that run alone gives.
    """
    ks = [k for k, _ in runs]
    results = [AfcecModel([], None, [], 0, 0) for _ in runs]
    running = list(range(len(runs)))
    deleted = [0] * len(runs)
    labels = _init_partition(cache.rows, cfg.init, runs)
    # iteration 0 refits the initial partitions
    for it in range(cfg.max_iters + 1):
        if it:
            batch = [None] * len(runs)
            for r in running:
                batch[r] = results[r].clusters
            labels = assign_step(cache, batch, labels)
            ks = [None] * len(runs)
            for r in running:
                try:
                    ks[r], labels[r], deleted[r] = delete_small(
                        cache, batch[r], labels[r], cfg.deletion_fraction
                    )
                except AllClustersDegenerate as e:
                    results[r] = e
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
    h_n >= h_{n-1} - epsilon or max_iters: fit_restarts on one seed.

    x is a Dataset, an (n, d) array, or a DesignCache over the data.
    """
    return fit_restarts(x, cfg, 1)[0]


# run-points (runs x points) that _best_per_k puts in one lockstep batch, unless
# one k alone holds more
LOCKSTEP_POINTS = 1 << 15


def _best_per_k(cache, cfg, ks, restarts):
    """Yields fit_restarts(cache, replace(cfg, k_init=k), restarts) for each k
    of ks in order; at a k where every restart failed, raises that k's first
    failure instead.

    The runs (k, cfg.seed + s) for s < restarts go through _lloyd in batches
    of consecutive k values: a batch holds as many whole k values as fit in
    LOCKSTEP_POINTS run-points (restarts x n per k), and always at least one,
    so once restarts x n reaches LOCKSTEP_POINTS each batch is one k. A batch
    is run when its first k is asked for.
    """
    if restarts < 1:
        raise InvalidConfig("restarts must be >= 1")
    ks = list(ks)
    # k >= 1 binds at the smallest k, and the data shape's bound at the largest
    for k in (min(ks), max(ks)):
        replace(cfg, k_init=k).validate_for(cache.rows.shape)
    per_batch = max(1, LOCKSTEP_POINTS // (restarts * cache.rows.shape[0]))
    for lo in range(0, len(ks), per_batch):
        group = ks[lo : lo + per_batch]
        runs = [(k, cfg.seed + s) for k in group for s in range(restarts)]
        results = _lloyd(cache, cfg, runs)
        for at in range(0, len(runs), restarts):
            models = [m for m in results[at : at + restarts] if isinstance(m, AfcecModel)]
            if not models:
                raise results[at]
            # min keeps the first of equal costs, i.e. the smallest seed
            best = min(models, key=lambda m: m.final_cost)
            yield best, [m.final_cost for m in models]


def fit_restarts(x, cfg, restarts):
    """fit() with seeds cfg.seed .. cfg.seed+restarts-1, run in lockstep
    (_best_per_k on one k); returns the lowest-cost model and the final costs
    of the successful restarts in seed order. Each restart's model is the one
    fit() gives for its seed.

    Ties between restarts break toward the smaller seed. A restart failure
    propagates only if every restart fails.
    """
    return next(_best_per_k(design_cache(x), cfg, [cfg.k_init], restarts))
