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
from .errors import AllClustersDegenerate, DegenerateCluster, InvalidConfig, RankDeficient

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

    A dependent axis's AxisDesign is built the first time that axis (and
    family) is asked for, by a refit or by scoring a cluster, so a fit splits
    its data and builds each design once per axis instead of once per cluster
    per iteration.
    """

    def __init__(self, x):
        self.x = x
        self._designs = {}

    def design(self, params):
        return self.axis(params.dependent_axis, params.curve.family)

    def axis(self, j, family):
        """The AxisDesign of dependent axis j under family."""
        found = self._designs.get((j, family))
        if found is None:
            found = self._designs[j, family] = axis_design(self.x, j, family)
        return found

    def take(self, rows):
        """A cache over x[rows] holding this one's designs restricted to rows."""
        sub = DesignCache(self.x[rows])
        sub._designs = {key: found.take(rows) for key, found in self._designs.items()}
        return sub


def cluster_score_blocks(cache, clusters):
    """density.score_blocks of -ln p_i - log f_i(x) over the cache's points,
    each cluster scored from the cache's design for its axis."""
    params = [cl.params for cl in clusters]
    augs = [cache.design(p).aug for p in params]
    return score_blocks(params, augs, [-math.log(cl.weight) for cl in clusters])


def _score_matrix(cache, clusters):
    """(k, n) block of -ln p_i - log f_i(x) over the cache's points, one
    contiguous row per cluster."""
    scores = np.empty((len(clusters), cache.x.shape[0]))
    for cols, block in cluster_score_blocks(cache, clusters):
        scores[:, cols] = block
    return scores


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


def assign_step(x, clusters, cache=None):
    """Each point to argmin_i [-ln p_i - log f_i(x)]; ties to the lowest index.

    cache, when given, must be a DesignCache over x.
    """
    if cache is None:
        cache = DesignCache(as_array(x))
    labels = np.empty(cache.x.shape[0], dtype=np.intp)
    for cols, block in cluster_score_blocks(cache, clusters):
        labels[cols] = _argmin_rows(block)
    return labels


def _refit(cache, assignment, k, family):
    """One batched refit of labels 0..k-1: a ClusterModel per label, None for
    an empty or degenerate cluster.

    The points are stably sorted by label, so every cluster is one contiguous
    segment holding its rows in their original order, and each axis's design
    is gathered from the cache once for all clusters (curves.refit_segments).
    """
    n, d = cache.x.shape
    # numpy sorts 8- and 16-bit keys stably by radix sort
    order = np.argsort(assignment.astype(np.min_scalar_type(k)), kind="stable")
    bounds = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.bincount(assignment, minlength=k), out=bounds[1:])
    designs = [np.take(cache.axis(j, family).aug, order, axis=0) for j in range(d)]
    fits = refit_segments(np.take(cache.x, order, axis=0), bounds, designs, family)
    return [
        None if f is None else ClusterModel(f[3], size / n, size, f[2])
        for f, size in zip(fits, np.diff(bounds).tolist())
    ]


def _reassign(cache, assignment, k, keep, survivors):
    """Relabel keep[i] -> i (keep ascending, labels below k) and send every
    point whose label is not kept to the survivor minimizing the assignment
    cost, scored from the cache's designs."""
    lookup = np.full(k, -1)
    lookup[keep] = np.arange(len(keep))
    out = lookup[assignment]
    moved = np.flatnonzero(out < 0)
    if moved.size:
        out[moved] = _argmin_rows(_score_matrix(cache.take(moved), survivors))
    return out


def _reestimate(x, assignment, k, family, cache=None):
    """Refit every cluster; drop the ones that fail, reassigning their points.

    Returns (clusters, assignment, dropped). Points of failed clusters go to
    the surviving cluster minimizing the assignment cost. Survivors that
    receive points are refit again; repeats until stable (k only shrinks).
    Labels are compacted to 0..k'-1 in original order. cache, when given,
    must be a DesignCache over x.
    """
    assignment = np.asarray(assignment)
    if cache is None:
        cache = DesignCache(x)
    dropped = 0
    while True:
        fitted = _refit(cache, assignment, k, family)
        keep = [lab for lab, cl in enumerate(fitted) if cl is not None]
        clusters = [fitted[lab] for lab in keep]
        if not clusters:
            raise AllClustersDegenerate("every cluster failed estimation")
        if len(keep) == k:
            return clusters, assignment, dropped
        dropped += k - len(keep)
        # refit survivors on their (possibly grown) point sets next pass
        assignment = _reassign(cache, assignment, k, keep, clusters)
        k = len(keep)


def delete_small(x, clusters, assignment, threshold_fraction, cache=None):
    """Remove clusters holding fewer than threshold_fraction*n points (empty
    ones always go); reassign their points by the assignment cost argmin over
    the survivors (using the survivors' current weights), then renormalize all
    weights from the final sizes. cache, when given, must be a DesignCache
    over x."""
    x = as_array(x)
    assignment = np.asarray(assignment)
    if cache is None:
        cache = DesignCache(x)
    n = x.shape[0]
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


def _init_partition(x, cfg):
    """Initial balanced partition, deterministic over (data multiset, seed).

    Rows are sorted lexicographically, shuffled by the seeded generator, and
    dealt round-robin (random_partition) or assigned to their nearest
    k-means++ seed (kmeanspp).
    """
    n = x.shape[0]
    rng = np.random.default_rng(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    order = np.lexsort(x.T[::-1])  # sort by column 0, then 1, ...
    if cfg.init == "random_partition":
        perm = rng.permutation(n)
        assignment = np.empty(n, dtype=int)
        assignment[order[perm]] = np.arange(n) % cfg.k_init
        return assignment
    # k-means++-style seeding on the sorted rows; each point keeps the first
    # centre at its smallest squared distance (ties to the lowest index)
    xs_t = x[order].T.copy()
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
    assignment = np.empty(n, dtype=int)
    assignment[order] = nearest
    return assignment


def _total_cost(clusters):
    """sum_i p_i * (-ln p_i + H_i) from each cluster's stored weight and H."""
    return sum(cl.weight * (-math.log(cl.weight) + cl.cross_entropy) for cl in clusters)


def fit(x, cfg):
    """Run the clustering loop until h_n >= h_{n-1} - epsilon or max_iters.

    The stop condition is only consulted on iterations that deleted nothing
    (a deletion can bump the cost, and stopping there would freeze a partial
    model); every deletion lowers k, so this cannot loop forever.
    """
    x = as_array(x)
    cfg.validate_for(x.shape)
    cache = DesignCache(x)

    assignment = _init_partition(x, cfg)
    deleted_total = 0
    deletion_iterations = []
    clusters, assignment, dropped = _reestimate(x, assignment, cfg.k_init, cfg.family, cache)
    if dropped:
        deleted_total += dropped
        deletion_iterations.append(0)
    trace = [_total_cost(clusters)]

    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        iterations = it
        assignment = assign_step(x, clusters, cache)
        clusters, assignment, ndel = delete_small(
            x, clusters, assignment, cfg.deletion_fraction, cache
        )
        clusters, assignment, dropped = _reestimate(
            x, assignment, len(clusters), cfg.family, cache
        )
        ndel += dropped
        if ndel:
            deleted_total += ndel
            deletion_iterations.append(it)
        h = _total_cost(clusters)
        trace.append(h)
        if ndel == 0 and h >= trace[-2] - cfg.epsilon:
            break

    return AfcecModel(
        clusters=clusters,
        assignment=assignment,
        cost_trace=trace,
        iterations=iterations,
        deleted_count=deleted_total,
        deletion_iterations=deletion_iterations,
    )


def fit_restarts(x, cfg, restarts):
    """fit() with seeds cfg.seed .. cfg.seed+restarts-1; returns the lowest-cost
    model and the final costs of the successful restarts in seed order.

    Ties between restarts break toward the smaller seed. A restart failure
    propagates only if every restart fails.
    """
    if restarts < 1:
        raise InvalidConfig("restarts must be >= 1")
    x = as_array(x)
    models, failures = [], []
    for i in range(restarts):
        try:
            models.append(fit(x, replace(cfg, seed=cfg.seed + i)))
        except (DegenerateCluster, AllClustersDegenerate, RankDeficient) as e:
            failures.append(e)
    if not models:
        raise failures[0]
    # min keeps the first of equal costs, i.e. the smallest seed
    best = min(models, key=lambda m: m.final_cost)
    return best, [m.final_cost for m in models]
