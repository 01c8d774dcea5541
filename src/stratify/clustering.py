"""Stage 1: K-means over the encoded, normalized features plus index-vote K selection.

``kmeans_fit`` runs Lloyd's algorithm with k-means++ initialization and several
restarts, keeping the restart with the lowest inertia. Each Lloyd step builds
one centroid-major array of ``sq_dists``; ``_nearest`` takes the per-row minimum
(whose sum is the cost) and the lowest-index nearest centroid from it in a few
passes over contiguous rows, and ``assign_patterns`` labels rows with the same
helper. The centroid sums read feature columns copied once per Lloyd run.

``select_k`` fits a range of K values and lets ten cluster validity indices
vote; the winner is the K chosen most often, ties broken toward smaller K.
``INDICES`` gives each index its vote rule and its input: the pair indices
(silhouette, dunn, c_index, mcclain, point_biserial) read a capped subsample of
rows, whose distance matrix (``sq_dists``, so the same at any BLAS thread count),
condensed pair distances and same-cluster mask are built once per K and shared;
the others read every row or the W_k sequence.

Index definitions (d = Euclidean distance, W_k = within-cluster sum of squared
distances to centroids at K=k, n = sample count, p = feature count):

* silhouette         mean over points of (b - a) / max(a, b), a = mean distance
                     to own cluster, b = lowest mean distance to another
                     cluster; a singleton point scores 0. Higher is better.
* calinski_harabasz  (B / (K-1)) / (W / (n-K)) with B the between-cluster sum of
                     squares. Higher is better.
* davies_bouldin     mean over clusters of max_{l != k} (s_k + s_l) / d(c_k, c_l),
                     s = mean distance to own centroid. Lower is better.
* dunn               min between-cluster point distance / max cluster diameter.
                     Higher is better.
* c_index            (S_w - S_min) / (S_max - S_min): S_w = sum of within-cluster
                     pair distances, S_min/S_max = sums of the N_w smallest /
                     largest distances among all pairs. Lower is better.
* mcclain            mean within-pair distance / mean between-pair distance.
                     Lower is better.
* point_biserial     Pearson correlation between the pairwise-distance vector
                     and the between-cluster indicator. Higher is better.
* ball               W_k / k; vote goes to the largest drop between consecutive
                     K (the elbow).
* hartigan           (W_k / W_{k+1} - 1) * (n - k - 1); vote goes to the largest
                     absolute change between consecutive K.
* krzanowski_lai     |DIFF_k| / |DIFF_{k+1}| with
                     DIFF_k = (k-1)^(2/p) W_{k-1} - k^(2/p) W_k. Higher is better.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classifiers.neighbors import sq_dists
from .errors import ClusteringError
from .rng import derive_rng


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray
    k: int
    inertia: float
    n_iter: int
    seed: int
    fit_labels: np.ndarray

    def __post_init__(self):
        if self.k < 1 or self.centroids.shape[0] != self.k:
            raise ClusteringError("centroid count must equal k >= 1")
        if self.inertia < 0:
            raise ClusteringError("inertia must be nonnegative")


@dataclass(frozen=True)
class PatternAssignment:
    labels: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        if int(self.sizes.sum()) != len(self.labels):
            raise ClusteringError("cluster sizes must sum to the row count")
        if len(self.labels) and self.labels.max() >= len(self.sizes):
            raise ClusteringError("label exceeds cluster count")

    @property
    def k(self) -> int:
        return len(self.sizes)


def _check_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ClusteringError("need a nonempty 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise ClusteringError("matrix contains non-finite values")
    return X


def _kmeanspp(X, k, rng, n_candidates: int = 10, first_idx: int | None = None):
    # greedy k-means++: sample several D^2-weighted candidates per step and keep
    # the one that lowers the potential most (matters for tiny far-off clusters)
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n) if first_idx is None else first_idx]
    xx = (X * X).sum(1)
    d2 = sq_dists(centroids[:1], X, bb=xx)[0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            cands = rng.integers(0, n, n_candidates)
        else:
            cands = rng.choice(n, size=n_candidates, p=d2 / total)
        best_i, best_pot, best_d2 = None, np.inf, None
        for i in np.unique(cands):
            cand_d2 = np.minimum(d2, sq_dists(X[int(i)][None, :], X, bb=xx)[0])
            pot = cand_d2.sum()
            if pot < best_pot:
                best_i, best_pot, best_d2 = int(i), pot, cand_d2
        centroids[j] = X[best_i]
        d2 = best_d2
    return centroids


def _nearest(rows):
    """Nearest centroid of every row, and its distance, from a K x n distance array.

    Over this centroid-major layout, the minimum is taken first; a row's label
    then counts the leading centroids strictly farther than that minimum, so
    ties go to the lowest centroid index, as with ``argmin``.
    """
    dmin = rows.min(axis=0)
    labels = np.zeros(len(dmin), dtype=np.min_scalar_type(len(rows)))
    ahead = np.ones(len(dmin), dtype=bool)  # no centroid so far is at the minimum
    for row in rows[:-1]:
        ahead &= row > dmin
        labels += ahead
    return labels.astype(np.int64), dmin


def _lloyd(X, centroids, max_iter, tol):
    n, k = X.shape[0], centroids.shape[0]
    labels = np.full(n, -1)
    prev_cost = np.inf
    xx = (X * X).sum(1)
    cols = np.ascontiguousarray(X.T)  # contiguous feature columns for the centroid sums
    it = max_iter  # max_iter 0 skips the loop
    for it in range(1, max_iter + 1):
        new_labels, dmin = _nearest(sq_dists(centroids, X, bb=xx))
        cost = float(dmin.sum())
        # Lloyd monotonicity: each assignment step can only lower the cost
        if not cost <= prev_cost + 1e-8 * max(1.0, abs(prev_cost)):  # NaN fails too
            raise ClusteringError(f"Lloyd inertia increased from {prev_cost!r} to {cost!r}")
        prev_cost = cost
        if np.array_equal(new_labels, labels):
            return labels, centroids, cost, it
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.empty_like(centroids)
        for j, col in enumerate(cols):
            sums[:, j] = np.bincount(labels, weights=col, minlength=k)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empties = np.flatnonzero(~nonempty)
        if len(empties):
            # reseed each empty centroid at the point currently farthest from its centroid
            far_order = np.argsort(-dmin, kind="stable")
            for rank, c in enumerate(empties):
                new_centroids[c] = X[far_order[rank % n]]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol and not len(empties):
            break
    labels, dmin = _nearest(sq_dists(centroids, X, bb=xx))
    return labels, centroids, float(dmin.sum()), it


def kmeans_fit(X, k: int, seed: int, n_restarts: int = 10, max_iter: int = 300,
               tol: float = 1e-6) -> KMeansModel:
    """Best-of-restarts Lloyd with k-means++ init; bit-deterministic per seed."""
    X = _check_matrix(X)
    n = X.shape[0]
    if k < 1:
        raise ClusteringError("k must be >= 1")
    if k > n:
        raise ClusteringError(f"k={k} exceeds the number of rows n={n}")
    if n_restarts < 1:
        raise ClusteringError(f"n_restarts must be >= 1, got {n_restarts}")
    if k == 1:
        centroid = X.mean(axis=0, keepdims=True)
        inertia = float(((X - centroid) ** 2).sum())
        return KMeansModel(centroid, 1, inertia, 1, seed, np.zeros(n, dtype=np.int64))
    # anchor the first restart at the most central point: a random peripheral
    # first centroid biases greedy seeding toward re-centering, which can bury
    # small far-away clusters behind splits of the dominant cloud. Odd restarts
    # fall back to plain D^2 sampling so init diversity survives the greedy rule.
    central = int(np.argmin(((X - X.mean(axis=0)) ** 2).sum(axis=1)))
    best = None
    for r in range(n_restarts):
        rng = derive_rng(seed, "kmeans", r)
        init = _kmeanspp(X, k, rng,
                         n_candidates=10 if r % 2 == 0 else 1,
                         first_idx=central if r == 0 else None)
        labels, centroids, cost, iters = _lloyd(X, init, max_iter, tol)
        if best is None or cost < best[2]:
            best = (labels, centroids, cost, iters)
    labels, centroids, cost, iters = best
    return KMeansModel(centroids, k, cost, iters, seed, labels.astype(np.int64))


def assign_patterns(model: KMeansModel, X) -> PatternAssignment:
    """Label each row by its nearest centroid (ties to the lowest cluster index)."""
    X = _check_matrix(X)
    if X.shape[1] != model.centroids.shape[1]:
        raise ClusteringError("feature dimension does not match the fitted centroids")
    labels, _ = _nearest(sq_dists(model.centroids, X))
    sizes = np.bincount(labels, minlength=model.k)
    return PatternAssignment(labels, sizes)


def sort_patterns_by_size(model: KMeansModel, assignment: PatternAssignment
                          ) -> tuple[KMeansModel, PatternAssignment]:
    """Relabel so pattern 0 is the largest cluster (ties keep original order)."""
    order = np.lexsort((np.arange(assignment.k), -assignment.sizes))
    perm = np.empty(assignment.k, dtype=np.int64)
    perm[order] = np.arange(assignment.k)
    model2 = KMeansModel(model.centroids[order].copy(), model.k, model.inertia,
                         model.n_iter, model.seed, perm[model.fit_labels])
    labels = perm[assignment.labels]
    return model2, PatternAssignment(labels, assignment.sizes[order].copy())


# ---------------------------------------------------------------------------
# validity indices
# ---------------------------------------------------------------------------

def pairwise_distances(X) -> np.ndarray:
    d2 = sq_dists(X, X)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2, out=d2)


class _Partition:
    """A checked partition; its distance matrix and pairs are built at most once."""

    def __init__(self, X, labels, dists=None):
        X = _check_matrix(X)
        labels = np.asarray(labels)
        if len(labels) != X.shape[0]:
            raise ClusteringError("labels must align with rows")
        k = int(labels.max()) + 1
        sizes = np.bincount(labels, minlength=k)
        if k < 2:
            raise ClusteringError("validity indices need at least two clusters")
        if (sizes == 0).any():
            raise ClusteringError("every cluster must be nonempty")
        self.X, self.labels, self.k, self.sizes = X, labels, k, sizes
        if dists is not None:
            self.D = dists

    @cached_property
    def D(self) -> np.ndarray:
        return pairwise_distances(self.X)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Condensed upper-triangle distances and the same-cluster mask."""
        iu, ju = np.triu_indices(len(self.labels), 1)
        return self.D[iu, ju], self.labels[iu] == self.labels[ju]


def _silhouette(part: _Partition) -> float:
    D, labels, k, sizes = part.D, part.labels, part.k, part.sizes
    n = len(labels)
    sums = np.empty((n, k))
    for c in range(k):
        sums[:, c] = D[:, labels == c].sum(axis=1)
    own = sums[np.arange(n), labels]
    own_size = sizes[labels]
    a = np.where(own_size > 1, own / np.maximum(own_size - 1, 1), 0.0)
    other = sums / sizes[None, :]
    other[np.arange(n), labels] = np.inf
    b = other.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where((own_size > 1) & (denom > 0), (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return float(s.mean())


def _calinski_harabasz(part: _Partition) -> float:
    X, labels, k = part.X, part.labels, part.k
    n = X.shape[0]
    grand = X.mean(axis=0)
    w, b = 0.0, 0.0
    for c in range(k):
        pts = X[labels == c]
        centroid = pts.mean(axis=0)
        w += float(((pts - centroid) ** 2).sum())
        b += len(pts) * float(((centroid - grand) ** 2).sum())
    if w == 0 or n == k:
        return float("inf")
    return (b / (k - 1)) / (w / (n - k))


def _davies_bouldin(part: _Partition) -> float:
    X, labels, k = part.X, part.labels, part.k
    centroids = np.array([X[labels == c].mean(axis=0) for c in range(k)])
    spreads = np.array([
        float(np.sqrt(((X[labels == c] - centroids[c]) ** 2).sum(axis=1)).mean())
        for c in range(k)
    ])
    sep = np.sqrt(sq_dists(centroids, centroids))
    ratio = (spreads[:, None] + spreads[None, :]) / np.where(sep > 0, sep, np.inf)
    np.fill_diagonal(ratio, -np.inf)
    worst = ratio.max(axis=1)
    # coincident centroids with spread make the ratio infinite; keep that
    worst = np.where(np.isneginf(worst), 0.0, worst)
    return float(worst.mean())


def _dunn(part: _Partition) -> float:
    vals, same = part.pairs
    diam = vals[same].max() if same.any() else 0.0
    min_between = vals[~same].min() if (~same).any() else 0.0
    if diam == 0:
        return float("inf")
    return float(min_between / diam)


def _c_index(part: _Partition) -> float:
    vals, same = part.pairs
    n_w = int(same.sum())
    if n_w == 0 or n_w == len(vals):
        return 0.0
    s_w = float(vals[same].sum())
    srt = np.sort(vals)
    s_min = float(srt[:n_w].sum())
    s_max = float(srt[-n_w:].sum())
    if s_max == s_min:
        return 0.0
    return (s_w - s_min) / (s_max - s_min)


def _mcclain(part: _Partition) -> float:
    vals, same = part.pairs
    n_w, n_b = int(same.sum()), int((~same).sum())
    if n_w == 0 or n_b == 0:
        return 0.0
    mean_b = vals[~same].mean()
    if mean_b == 0:
        return 0.0
    return float((vals[same].mean()) / mean_b)


def _point_biserial(part: _Partition) -> float:
    vals, same = part.pairs
    between = (~same).astype(np.float64)
    if vals.std() == 0 or between.std() == 0:
        return 0.0
    return float(np.corrcoef(vals, between)[0, 1])


def _ball(part: _Partition) -> float:
    w = 0.0
    for c in range(part.k):
        pts = part.X[part.labels == c]
        w += float(((pts - pts.mean(axis=0)) ** 2).sum())
    return w / part.k


def _hartigan(inertias: dict, k: int, n: int, p: int) -> float:
    w_k, w_k1 = inertias[k], inertias[k + 1]
    if w_k1 == 0:
        return float("inf") if w_k > 0 else 0.0
    return (w_k / w_k1 - 1.0) * (n - k - 1)


def _krzanowski_lai(inertias: dict, k: int, n: int, p: int) -> float:
    def diff(m):
        return (m - 1) ** (2.0 / p) * inertias[m - 1] - m ** (2.0 / p) * inertias[m]
    num, den = abs(diff(k)), abs(diff(k + 1))
    if den == 0:
        return float("inf") if num > 0 else 0.0
    return num / den


# index -> (vote rule, input, function). Rules: the best K maximizes or
# minimizes the value, or sits at the largest drop ("drop") or largest absolute
# change ("absdiff") between consecutive K. Inputs: "pairs" reads distances on
# select_k's capped subsample of rows (its cost is quadratic in n), "rows" reads
# every row, "inertia" reads the W_k sequence at the K that was fitted.
INDICES = {
    "silhouette": ("max", "pairs", _silhouette),
    "calinski_harabasz": ("max", "rows", _calinski_harabasz),
    "davies_bouldin": ("min", "rows", _davies_bouldin),
    "dunn": ("max", "pairs", _dunn),
    "c_index": ("min", "pairs", _c_index),
    "mcclain": ("min", "pairs", _mcclain),
    "point_biserial": ("max", "pairs", _point_biserial),
    "ball": ("drop", "rows", _ball),
    "hartigan": ("absdiff", "inertia", _hartigan),
    "krzanowski_lai": ("max", "inertia", _krzanowski_lai),
}
ALL_INDICES = tuple(INDICES)


def validity_index(X, labels, index_id: str, dists=None, inertias=None) -> float:
    """Evaluate one index on a partition.

    ``hartigan`` and ``krzanowski_lai`` are sequence indices: they need the
    within-cluster sums of squares of neighboring K values, passed as
    ``inertias`` ({k: W_k} covering k-1..k+1 as applicable).
    """
    if index_id not in INDICES:
        raise ClusteringError(f"unknown validity index {index_id!r}")
    _, source, fn = INDICES[index_id]
    if source != "inertia":
        return fn(_Partition(X, labels, dists))
    if inertias is None:
        raise ClusteringError(f"{index_id} needs the inertia sequence of neighboring K")
    part = _Partition(X, labels)
    return fn(inertias, part.k, *part.X.shape)


# ---------------------------------------------------------------------------
# K selection
# ---------------------------------------------------------------------------

@dataclass
class KSelectionReport:
    k_range: tuple[int, int]
    values: dict = field(default_factory=dict)   # index -> {k: value}
    votes: dict = field(default_factory=dict)    # index -> best k (or None)
    tally: dict = field(default_factory=dict)    # k -> vote count
    winner: int = 0
    inertia: dict = field(default_factory=dict)  # k -> W_k over the fitted spread

    def to_dict(self) -> dict:
        return {
            "k_range": list(self.k_range),
            "values": {idx: {str(k): v for k, v in kv.items()} for idx, kv in self.values.items()},
            "votes": {idx: v for idx, v in self.votes.items()},
            "tally": {str(k): c for k, c in self.tally.items()},
            "winner": self.winner,
            "inertia": {str(k): w for k, w in self.inertia.items()},
        }


def _vote_for(index_id: str, in_range: dict, extended: dict) -> int | None:
    rule = INDICES[index_id][0]
    ks = sorted(k for k, v in in_range.items() if v is not None and not np.isnan(v))
    if not ks:
        return None
    if rule == "max":
        return max(ks, key=lambda k: (in_range[k], -k))
    if rule == "min":
        return min(ks, key=lambda k: (in_range[k], k))
    # elbow rules: value(k-1) - value(k), largest (absolute) change wins
    best_k, best_score = None, -np.inf
    for k in ks:
        prev = extended.get(k - 1, in_range.get(k - 1))
        if prev is None or np.isnan(prev) or not np.isfinite(in_range[k]) or not np.isfinite(prev):
            continue
        score = prev - in_range[k]
        if rule == "absdiff":
            score = abs(score)
        if score > best_score:
            best_k, best_score = k, score
    return best_k


def select_k(X, k_range: tuple[int, int] = (2, 8), index_set=ALL_INDICES, seed: int = 0,
             n_restarts: int = 10, max_iter: int = 300, tol: float = 1e-6,
             sample_cap: int = 2048) -> tuple[KSelectionReport, dict]:
    """Fit K-means across ``k_range`` and pick K by index majority vote.

    Pairwise-distance indices are evaluated on a seeded subsample of up to
    ``sample_cap`` rows (topped up so every cluster stays represented), whose
    distances and pairs are built once per K; the other indices always use the
    full data. Returns the report and the fitted models keyed by K.
    """
    X = _check_matrix(X)
    if not index_set:
        raise ClusteringError("empty index set")
    for idx in index_set:
        if idx not in INDICES:
            raise ClusteringError(f"unknown validity index {idx!r}")
    n, p = X.shape
    k_min, k_max = k_range
    if not (2 <= k_min <= k_max <= n - 1):
        raise ClusteringError(f"k range {k_range} must sit within [2, n-1]")

    # k_min - 1 .. k_max + 1 (W_1 is analytic): the sequence indices read both neighbours
    fit_ks = [k for k in range(max(2, k_min - 1), min(n, k_max + 1) + 1)]
    models = {k: kmeans_fit(X, k, seed, n_restarts, max_iter, tol) for k in fit_ks}
    inertias = {k: m.inertia for k, m in models.items()}
    grand = X.mean(axis=0)
    inertias[1] = float(((X - grand) ** 2).sum())

    base_sub = None
    if n > sample_cap:
        base_sub = np.sort(derive_rng(seed, "kselect_sample").choice(n, sample_cap, replace=False))

    report = KSelectionReport(k_range=(k_min, k_max))
    report.inertia = dict(sorted(inertias.items()))

    for k in range(k_min, k_max + 1):
        labels = _compress_labels(models[k].fit_labels)
        sub_idx = np.arange(n)
        if base_sub is not None:
            # top up so every cluster stays represented in the subsample
            present = set(np.unique(labels[base_sub]).tolist())
            forced = [int(np.flatnonzero(labels == c)[0])
                      for c in range(int(labels.max()) + 1) if c not in present]
            sub_idx = base_sub if not forced else np.sort(
                np.concatenate([base_sub, np.array(forced, dtype=np.int64)]))
        parts = {"rows": _Partition(X, labels),
                 "pairs": _Partition(X[sub_idx], _compress_labels(labels[sub_idx]))}
        for idx in index_set:
            _, source, fn = INDICES[idx]
            val = fn(inertias, k, n, p) if source == "inertia" else fn(parts[source])
            report.values.setdefault(idx, {})[k] = float(val)

    # hartigan's elbow extends down to k_min - 1 (its K=1 value is analytic);
    # ball scans only the requested range, so its first K is never votable
    extended = {"hartigan": {k_min - 1: _hartigan(inertias, k_min - 1, n, p)}}
    for idx in index_set:
        report.votes[idx] = _vote_for(idx, report.values[idx], extended.get(idx, {}))
    tally: dict[int, int] = {}
    for v in report.votes.values():
        if v is not None:
            tally[v] = tally.get(v, 0) + 1
    report.tally = dict(sorted(tally.items()))
    if not tally:
        raise ClusteringError("no index produced a vote")
    best_count = max(tally.values())
    report.winner = min(k for k, c in tally.items() if c == best_count)
    return report, models


def _compress_labels(labels: np.ndarray) -> np.ndarray:
    """Remap labels onto 0..k'-1, dropping empty clusters (degenerate fits)."""
    uniq = np.unique(labels)
    if len(uniq) == int(labels.max()) + 1:
        return labels
    lut = np.zeros(int(labels.max()) + 1, dtype=np.int64)
    lut[uniq] = np.arange(len(uniq))
    return lut[labels]
