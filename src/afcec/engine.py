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
from .curves import ClusterFits, CurveFit, refit_segments, select_orientation  # noqa: F401
# fadapted_log_density is not called here; bench/spans.py wraps it under this
# module's name as well
from .density import fadapted_cross_entropy, fadapted_log_density, score_blocks  # noqa: F401
from .errors import AllClustersDegenerate, DegenerateCluster, InvalidConfig
from .numerics import is_count

INITS = ("random_partition", "kmeanspp")


@dataclass
class AfcecModel:
    clusters: ClusterFits
    assignment: np.ndarray
    cost_trace: list
    deleted_count: int
    deletion_iterations: list = field(default_factory=list)

    @property
    def k(self):
        return len(self.clusters.weight)

    @property
    def iterations(self):
        """The Lloyd iterations after the initial refit (iteration 0)."""
        return len(self.cost_trace) - 1

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

    def validate(self, shape):
        """InvalidConfig unless the fields hold valid values and the (n, d)
        data shape has at least 2 coordinates and k_init*(d+1) points."""
        for name in ("k_init", "max_iters", "seed"):
            v = getattr(self, name)
            if not is_count(v):
                raise InvalidConfig(f"{name} must be an integer, got {v!r}")
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
    """sum_i p_i * (-ln p_i + H_i) over the rows of the ClusterFits clusters,
    H_i recomputed by fadapted_cross_entropy from each cluster's current
    point set with its stored axis and curve."""
    x = as_array(x)
    assignment = np.asarray(assignment)
    n = x.shape[0]
    total = 0.0
    for i, (j, coeffs) in enumerate(zip(clusters.axis.tolist(), clusters.coeffs)):
        xi = x[assignment == i]
        if len(xi) == 0:
            raise DegenerateCluster(f"cluster {i} is empty")
        h, _ = fadapted_cross_entropy(xi, j, CurveFit(clusters.family, coeffs))
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


def design_cache(x):
    """x itself when it is a DesignCache, else a new one over x."""
    return x if isinstance(x, DesignCache) else DesignCache(x)


def cluster_score_blocks(design, tables):
    """density.score_blocks of -ln p_i - log f_i(x) over the points whose
    union design rows (DesignCache.design) design holds, for the clusters of
    every ClusterFits of tables in order."""
    w, consts = np.concatenate([t.w for t in tables]), np.concatenate([t.consts for t in tables])
    # -ln p on math.log over Python floats, the bits every cost is summed from
    shift = [-math.log(p) for t in tables for p in t.weight.tolist()]
    return score_blocks(w, consts, design, shift)


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


def _nearest(design, batch):
    """(len(batch), n) labels of the n points whose union design rows design
    holds: row r sends each to argmin_i [-ln p_i - log f_i(x)] over the
    clusters of the ClusterFits batch[r], ties to the lowest index.

    One score_blocks walk scores the clusters of every table, and each block
    is reduced once per stretch of consecutive tables of one length; a score
    has the same bits in any set of clusters, so each row equals the labels
    of its table scored alone.
    """
    # (first row, rows, clusters per row) of each stretch of equal lengths
    groups = []
    for r, table in enumerate(batch):
        k = len(table.weight)
        if groups and groups[-1][2] == k:
            groups[-1][1] += 1
        else:
            groups.append([r, 1, k])
    labels = np.empty((len(batch), design.shape[0]), dtype=np.intp)
    for cols, block in cluster_score_blocks(design, batch):
        lo = 0
        for r, m, k in groups:
            stack = block[lo : lo + m * k].reshape(m, k, -1)
            labels[r : r + m, cols] = _argmin_rows(stack)
            lo += m * k
    return labels


def assign_step(cache, batch, labels):
    """A copy of the (R, n) labels in which every row r whose batch[r] is not
    None (a running restart's ClusterFits) holds _nearest's labels over its
    clusters; the other rows are kept.

    The Lloyd loop's assignment over every point of every running restart.
    Orphan reassignment calls _nearest on the orphans' rows of the design
    instead, so bench/spans.py, which times this function by name and counts
    the points each call moves against the last refit's labels, sees one
    call per iteration.
    """
    live = [r for r, table in enumerate(batch) if table is not None]
    found = _nearest(cache.design(batch[live[0]].family), [batch[r] for r in live])
    if len(live) == len(batch):  # no row to keep, so no copy of labels
        return found
    out = labels.copy()
    out[live] = found
    return out


def _label_counts(labels, ks):
    """The point count of every (row, label) of the (R, n) labels, row r
    holding labels 0..ks[r]-1, rows in order: one bincount over the labels
    offset by the clusters of the rows before."""
    ends = np.cumsum(ks)
    # a lone row has no offset to add
    flat = labels.reshape(-1) if len(ks) == 1 else (labels + (ends - ks)[:, None]).reshape(-1)
    return np.bincount(flat, minlength=int(ends[-1]))


def _refit(cache, labels, ks, family):
    """One batched refit of the rows of the (R, n) labels, row r holding
    labels 0..ks[r]-1. Returns (fits, fitted): fitted holds, ascending, the
    positions in (row, label) order of the clusters the refit fits (neither
    empty nor degenerate), and the ClusterFits fits one row for each of them,
    its weight its point count / n.

    Each row's points are stably sorted by label, so every cluster is one
    contiguous segment holding its points in their original order. The rows'
    segments are concatenated into one gather of the points, and
    curves.refit_segments fits each segment from its own centred Gram, as it
    would fit it alone.
    """
    # numpy sorts 8- and 16-bit keys stably by radix sort
    order = np.argsort(
        labels.astype(np.min_scalar_type(max(ks))), axis=1, kind="stable"
    ).reshape(-1)
    sizes = _label_counts(labels, ks)
    bounds = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    return refit_segments(np.take(cache.rows, order, axis=0), bounds, family, cache.rows.shape[0])


def _split_runs(positions, ks):
    """Split ascending positions into the clusters of runs laid end to end,
    run i holding ks[i] clusters, by run: part i holds those in run i, as
    indices within the run."""
    ends = np.cumsum(ks).tolist()
    cuts = np.searchsorted(positions, ends).tolist()
    return [
        positions[lo:hi] - (end - k) for lo, hi, end, k in zip([0] + cuts, cuts, ends, ks)
    ]


def _drop(cache, labels, runs, ks, keeps, survivors):
    """Drop from the (R, n) labels the clusters each run does not keep.

    Run i is row runs[i], holding labels 0..ks[i]-1, and keeps the clusters
    keeps[i] (ascending). Every run that keeps some but not all of its
    clusters is relabelled keeps[i][t] -> t, and each point of a cluster it
    drops goes to the kept cluster minimizing the assignment cost over
    survivors(runs[i], keeps[i]), the ClusterFits of its kept clusters,
    scored from the orphans' rows of the cache's design, ties to the lowest
    index. Runs that keep all or none of their clusters are left as they are.

    Returns (labels, moved, dropped): labels is a copy when some run was
    relabelled and the input array otherwise, moved lists the relabelled
    rows and dropped counts the clusters they dropped.
    """
    moved, dropped = [], 0
    for r, k, keep in zip(runs, ks, keeps):
        if not 0 < keep.size < k:
            continue
        if not moved:
            labels = labels.copy()
        lookup = np.full(k, -1)
        lookup[keep] = np.arange(keep.size)
        row = lookup[labels[r]]
        orphans = np.flatnonzero(row < 0)
        if orphans.size:
            table = survivors(r, keep)
            (row[orphans],) = _nearest(cache.design(table.family)[orphans], [table])
        labels[r] = row
        moved.append(r)
        dropped += k - keep.size
    return labels, moved, dropped


def _reestimate(cache, labels, ks, family):
    """Refit the clusters of every running restart; drop the ones that fail,
    reassigning their points.

    labels is (R, n); ks[r] is restart r's cluster count, or None for a
    restart that is not running. Returns (batch, labels, dropped): batch[r]
    holds restart r's refit clusters as a ClusterFits, None where ks[r] is
    None or every cluster failed; labels holds the labels after reassignment
    (the input array when nothing was dropped); dropped counts the clusters
    dropped over the restarts with a survivor. Points of failed clusters go
    to the surviving cluster minimizing the assignment cost (_drop).
    Survivors that receive points are refit again; repeats until stable (k
    only shrinks). Labels are compacted to 0..k'-1 in original order. Every
    pass refits all restarts that need it at once, so each restart gets the
    clusters a lone refit gives it.
    """
    batch = [None] * len(ks)
    todo = [r for r, k in enumerate(ks) if k is not None]
    counts = [ks[r] for r in todo]
    dropped = 0
    while todo:
        rows = labels if len(todo) == len(ks) else labels[todo]
        fits, fitted = _refit(cache, rows, counts, family)
        keeps = _split_runs(fitted, counts)
        lo = 0
        for r, keep in zip(todo, keeps):
            if keep.size:
                batch[r] = fits.take(slice(lo, lo + keep.size))
                lo += keep.size
        # the survivors are refit on their (possibly grown) point sets next pass
        labels, todo, more = _drop(cache, labels, todo, counts, keeps, lambda r, _: batch[r])
        dropped += more
        counts = [len(batch[r].weight) for r in todo]
    return batch, labels, dropped


def delete_small(cache, batch, labels, threshold_fraction):
    """Remove, in every running restart r (batch[r] a ClusterFits, not None),
    the clusters holding fewer than threshold_fraction*n of the cache's n
    points (empty ones always go), and reassign their points by the
    assignment cost argmin over the restart's survivors (using the survivors'
    current weights, _drop).

    labels is (R, n). Returns (ks, labels, deleted): ks[r] is restart r's
    surviving count, None where batch[r] is None or none of its clusters
    meets the threshold; labels holds each restart's row compacted to
    0..ks[r]-1 (the input array when nothing was deleted); deleted counts the
    clusters removed over the restarts with a survivor.
    """
    n = cache.rows.shape[0]
    live = [r for r, table in enumerate(batch) if table is not None]
    counts = [len(batch[r].weight) for r in live]
    sizes = _label_counts(labels if len(live) == len(batch) else labels[live], counts)
    keeps = _split_runs(np.flatnonzero((sizes > 0) & (sizes >= threshold_fraction * n)), counts)
    ks = [None] * len(batch)
    for r, keep in zip(live, keeps):
        ks[r] = keep.size or None  # None: the restart fails
    labels, _, deleted = _drop(
        cache, labels, live, counts, keeps, lambda r, keep: batch[r].take(keep)
    )
    return ks, labels, deleted


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
            rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
            row[order[rng.permutation(n)]] = deal % k
        return out
    # k-means++-style seeding on the sorted rows; each point keeps the first
    # centre at its smallest squared distance (ties to the lowest index)
    xs_t = np.take(x.T, order, axis=1)  # one copy, (d, n) and C-contiguous
    for row, (k, seed) in zip(out, runs):
        rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
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


def _total_cost(table):
    """sum_i p_i * (-ln p_i + H_i) from each cluster's weight and H, summed
    left to right in cluster order over Python floats."""
    return sum(p * (-math.log(p) + h) for p, h in zip(table.weight.tolist(), table.h.tolist()))


def _lloyd(cache, cfg, runs):
    """The clustering loop from one initial partition per (k, seed) run, all
    runs in lockstep over one DesignCache (cfg.k_init and cfg.seed are not
    read). Returns, per run, its AfcecModel, holding the ClusterFits the loop
    carries, or the AllClustersDegenerate that ended it.

    Each iteration scores the clusters of every live run in one assign_step,
    deletes small clusters of every live run in one delete_small and refits
    every live run in one _reestimate; runs of different k share each pass,
    since every step reads each run's own cluster count. Clusters travel
    between the steps as ClusterFits. A run stops when h_n >= h_{n-1} -
    epsilon, at max_iters, or when it fails. The stop condition is only
    consulted on iterations that deleted nothing (a deletion can bump the
    cost, and stopping there would freeze a partial model); every deletion
    lowers k, so this cannot loop forever. Every step treats each run as a lone run would,
    so each result is bit for bit the one a batch of that run alone gives.
    """
    ks = [k for k, _ in runs]
    results = [AfcecModel(None, None, [], 0) for _ in runs]
    running = list(range(len(runs)))
    labels = _init_partition(cache.rows, cfg.init, runs)
    # iteration 0 refits the initial partitions
    for it in range(cfg.max_iters + 1):
        if it:
            batch = [None] * len(runs)
            for r in running:
                batch[r] = results[r].clusters
            labels = assign_step(cache, batch, labels)
            ks, labels, _ = delete_small(cache, batch, labels, cfg.deletion_fraction)
        batch, labels, _ = _reestimate(cache, labels, ks, cfg.family)
        still = []
        for r in running:
            model, clusters = results[r], batch[r]
            if clusters is None:
                results[r] = AllClustersDegenerate(
                    "no cluster meets the size threshold"
                    if ks[r] is None
                    else "every cluster failed estimation"
                )
                continue
            # the cluster count entering the iteration
            ndel = (model.k if it else runs[r][0]) - len(clusters.weight)
            if ndel:
                model.deleted_count += ndel
                model.deletion_iterations.append(it)
            h = _total_cost(clusters)
            model.cost_trace.append(h)
            model.clusters = clusters
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
    """A generator of fit_restarts(cache, replace(cfg, k_init=k), restarts)
    for each k of ks in order; at a k where every restart failed, it raises
    that k's first failure instead. InvalidConfig is raised by the call
    itself, before any fit, unless restarts is an integer >= 1 and cfg
    validates at every k of ks (an empty ks reads as k = 0).

    The runs (k, cfg.seed + s) for s < restarts go through _lloyd in batches
    of consecutive k values: a batch holds as many whole k values as fit in
    LOCKSTEP_POINTS run-points (restarts x n per k), and always at least one,
    so once restarts x n reaches LOCKSTEP_POINTS each batch is one k. A batch
    is run when its first k is asked for.
    """
    if not is_count(restarts):
        raise InvalidConfig(f"restarts must be an integer, got {restarts!r}")
    if restarts < 1:
        raise InvalidConfig("restarts must be >= 1")
    ks = list(ks)
    # k >= 1 binds at the smallest k, and the data shape's bound at the largest
    for k in (min(ks, default=0), max(ks, default=0)):
        replace(cfg, k_init=k).validate(cache.rows.shape)
    per_batch = max(1, LOCKSTEP_POINTS // (restarts * cache.rows.shape[0]))

    def batches():
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

    return batches()


def fit_restarts(x, cfg, restarts):
    """fit() with seeds cfg.seed .. cfg.seed+restarts-1, run in lockstep
    (_best_per_k on one k); returns the lowest-cost model and the final costs
    of the successful restarts in seed order. Each restart's model is the one
    fit() gives for its seed.

    Ties between restarts break toward the smaller seed. A restart failure
    propagates only if every restart fails.
    """
    return next(_best_per_k(design_cache(x), cfg, [cfg.k_init], restarts))
