"""Independent brute-force reference implementations used to check the package.

Everything here is written as plain textbook loops, deliberately sharing no
code with the package: partition costs by exhaustive enumeration, validity
indices straight from their formulas, AUC by pair counting, Shapley values via
the permutation definition, gradients by central differences, the
logistic-regression optimum by scipy's L-BFGS-B. The
exceptions are ``frozen_lloyd``, the ``frozen_*`` CSV functions and
``bootstrap_rows``: verbatim copies of earlier implementations (Lloyd; the
cell-by-cell ingest, encoding and CSV reading and writing; the row-resampling
bootstrap), kept so a faster rewrite can be checked bit for bit, or in law
where its random stream differs.
"""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np


def dist(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def pairwise(X):
    n = len(X)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            D[i, j] = dist(X[i], X[j])
    return D


def partition_cost(X, labels):
    cost = 0.0
    for c in set(labels):
        pts = np.array([X[i] for i in range(len(X)) if labels[i] == c])
        center = pts.mean(axis=0)
        for p in pts:
            cost += sum((p - center) ** 2)
    return cost


def best_two_partition_cost(X):
    """Exhaustive optimum over all nonempty 2-partitions (point 0 in cluster 0,
    so every partition has one canonical labeling and one canonical cost)."""
    n = len(X)
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):
        labels = [0] + [(mask >> i) & 1 for i in range(n - 1)]
        best = min(best, partition_cost(X, labels))
    return best


def canonical_two_labels(labels):
    """Flip a binary labeling so the first point carries label 0; partition cost
    evaluated on canonical labels is bitwise reproducible."""
    labels = list(labels)
    if labels[0] == 1:
        labels = [1 - v for v in labels]
    return labels


def _frozen_sq_dists(X, C, xx):
    d2 = X @ C.T
    d2 *= -2.0
    d2 += xx[:, None]
    d2 += (C * C).sum(1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _frozen_assign(X, centroids, xx):
    d2 = _frozen_sq_dists(X, centroids, xx)
    labels = d2.argmin(axis=1)
    return d2, labels, float(d2[np.arange(X.shape[0]), labels].sum())


def frozen_lloyd(X, centroids, max_iter, tol):
    """Lloyd's algorithm as stratify ran it before its assignment step was
    rewritten: argmin over an n x K distance array, a gathered cost and one
    bincount per strided feature column. Returns (labels, centroids, cost, iters)."""
    n, k = X.shape[0], centroids.shape[0]
    labels = np.full(n, -1)
    prev_cost = np.inf
    xx = (X * X).sum(1)
    it = max_iter
    for it in range(1, max_iter + 1):
        d2, new_labels, cost = _frozen_assign(X, centroids, xx)
        if not cost <= prev_cost + 1e-8 * max(1.0, abs(prev_cost)):
            raise AssertionError("Lloyd inertia increased")
        prev_cost = cost
        if np.array_equal(new_labels, labels):
            return labels, centroids, cost, it
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.empty_like(centroids)
        for j in range(X.shape[1]):
            sums[:, j] = np.bincount(labels, weights=X[:, j], minlength=k)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empties = np.flatnonzero(~nonempty)
        if len(empties):
            far_order = np.argsort(-d2[np.arange(n), labels], kind="stable")
            for rank, c in enumerate(empties):
                new_centroids[c] = X[far_order[rank % n]]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol and not len(empties):
            break
    _, labels, cost = _frozen_assign(X, centroids, xx)
    return labels, centroids, cost, it


# ---------------------------------------------------------------------------
# validity indices, straight from the formulas
# ---------------------------------------------------------------------------

def silhouette(X, labels):
    n = len(X)
    D = pairwise(X)
    total = 0.0
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue  # singleton scores 0
        a = sum(D[i, j] for j in own) / len(own)
        b = math.inf
        for c in set(labels):
            if c == labels[i]:
                continue
            others = [j for j in range(n) if labels[j] == c]
            b = min(b, sum(D[i, j] for j in others) / len(others))
        if max(a, b) > 0:
            total += (b - a) / max(a, b)
    return total / n


def calinski_harabasz(X, labels):
    n, k = len(X), len(set(labels))
    grand = X.mean(axis=0)
    w = b = 0.0
    for c in set(labels):
        pts = X[[i for i in range(n) if labels[i] == c]]
        center = pts.mean(axis=0)
        w += sum(dist(p, center) ** 2 for p in pts)
        b += len(pts) * dist(center, grand) ** 2
    if w == 0 or n == k:
        return math.inf
    return (b / (k - 1)) / (w / (n - k))


def davies_bouldin(X, labels):
    ks = sorted(set(labels))
    centers, spreads = {}, {}
    for c in ks:
        pts = X[[i for i in range(len(X)) if labels[i] == c]]
        centers[c] = pts.mean(axis=0)
        spreads[c] = sum(dist(p, centers[c]) for p in pts) / len(pts)
    total = 0.0
    for c in ks:
        worst = 0.0
        for d in ks:
            if c == d:
                continue
            sep = dist(centers[c], centers[d])
            ratio = math.inf if sep == 0 else (spreads[c] + spreads[d]) / sep
            worst = max(worst, ratio)
        total += worst
    return total / len(ks)


def dunn(X, labels):
    n = len(X)
    D = pairwise(X)
    diam = 0.0
    min_between = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                diam = max(diam, D[i, j])
            else:
                min_between = min(min_between, D[i, j])
    if diam == 0:
        return math.inf
    return min_between / diam


def _pair_lists(X, labels):
    n = len(X)
    D = pairwise(X)
    within, between = [], []
    for i in range(n):
        for j in range(i + 1, n):
            (within if labels[i] == labels[j] else between).append(D[i, j])
    return within, between


def c_index(X, labels):
    within, between = _pair_lists(X, labels)
    nw = len(within)
    if nw == 0 or not between:
        return 0.0
    all_d = sorted(within + between)
    s_w = sum(within)
    s_min = sum(all_d[:nw])
    s_max = sum(all_d[-nw:])
    if s_max == s_min:
        return 0.0
    return (s_w - s_min) / (s_max - s_min)


def mcclain(X, labels):
    within, between = _pair_lists(X, labels)
    if not within or not between:
        return 0.0
    mb = sum(between) / len(between)
    if mb == 0:
        return 0.0
    return (sum(within) / len(within)) / mb


def point_biserial(X, labels):
    within, between = _pair_lists(X, labels)
    d = within + between
    g = [0.0] * len(within) + [1.0] * len(between)
    n = len(d)
    md, mg = sum(d) / n, sum(g) / n
    sd = math.sqrt(sum((x - md) ** 2 for x in d) / n)
    sg = math.sqrt(sum((x - mg) ** 2 for x in g) / n)
    if sd == 0 or sg == 0:
        return 0.0
    cov = sum((x - md) * (y - mg) for x, y in zip(d, g)) / n
    return cov / (sd * sg)


def ball(X, labels):
    return partition_cost(X, labels) / len(set(labels))


def hartigan(w_k, w_k1, n, k):
    if w_k1 == 0:
        return math.inf if w_k > 0 else 0.0
    return (w_k / w_k1 - 1.0) * (n - k - 1)


def krzanowski_lai(w_km1, w_k, w_k1, k, p):
    diff_k = (k - 1) ** (2.0 / p) * w_km1 - k ** (2.0 / p) * w_k
    diff_k1 = k ** (2.0 / p) * w_k - (k + 1) ** (2.0 / p) * w_k1
    if abs(diff_k1) == 0:
        return math.inf if abs(diff_k) > 0 else 0.0
    return abs(diff_k) / abs(diff_k1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def mann_whitney_auc(y_true, scores):
    pos = [s for s, y in zip(scores, y_true) if y == 1]
    neg = [s for s, y in zip(scores, y_true) if y == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# attribution and optimization
# ---------------------------------------------------------------------------

def shapley_by_permutations(value_fn, p):
    """Exact Shapley from the permutation definition; value_fn maps a subset
    (frozenset) to a number."""
    phi = [0.0] * p
    perms = list(itertools.permutations(range(p)))
    for order in perms:
        seen = []
        prev = value_fn(frozenset())
        for i in order:
            seen.append(i)
            cur = value_fn(frozenset(seen))
            phi[i] += cur - prev
            prev = cur
    return [v / len(perms) for v in phi]


def interventional_value(predict_fn, x, background):
    def value(subset):
        hybrid = np.array(background, dtype=float, copy=True)
        for i in subset:
            hybrid[:, i] = x[i]
        return float(np.mean(predict_fn(hybrid)))
    return value


def quadratic_argmin(f, lo=-1e6, hi=1e6, iters=250, h=1.0):
    """Minimize a smooth convex function by bisecting the sign of a central
    difference; for quadratics the difference is the exact derivative, so the
    minimizer localizes to machine precision."""
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid + h) - f(mid - h) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def lr_optimum(X, y, lam):
    """Minimum of mean logistic loss + (lam / 2n)||w||^2, the bias unpenalized,
    found by L-BFGS-B from zero."""
    from scipy import optimize

    n = X.shape[0]

    def objective(theta):
        w, b = theta[:-1], theta[-1]
        z = X @ w + b
        loss = np.mean(np.logaddexp(0.0, z) - y * z) + lam / (2.0 * n) * (w @ w)
        resid = 1.0 / (1.0 + np.exp(-z)) - y
        return loss, np.append(X.T @ resid / n + lam * w / n, resid.mean())

    ref = optimize.minimize(objective, np.zeros(X.shape[1] + 1), jac=True, method="L-BFGS-B",
                            options={"maxiter": 10000, "gtol": 1e-10, "ftol": 1e-15})
    return float(ref.fun)


def central_diff_grad(f, theta, eps=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (f(up) - f(dn)) / (2 * eps)
    return g


def adjusted_rand_index(a, b):
    a, b = np.asarray(a), np.asarray(b)
    n = len(a)
    ct = {}
    for i in range(n):
        ct[(a[i], b[i])] = ct.get((a[i], b[i]), 0) + 1
    sum_ij = sum(math.comb(v, 2) for v in ct.values())
    sum_a = sum(math.comb(int(np.sum(a == c)), 2) for c in set(a.tolist()))
    sum_b = sum(math.comb(int(np.sum(b == c)), 2) for c in set(b.tolist()))
    total = math.comb(n, 2)
    expected = sum_a * sum_b / total
    denom = (sum_a + sum_b) / 2 - expected
    if denom == 0:
        return 1.0
    return (sum_ij - expected) / denom


# ---------------------------------------------------------------------------
# nearest neighbors and resampling
# ---------------------------------------------------------------------------

def knn_order(Q, X, k, exclude_self=False):
    """The k nearest rows of X to each row of Q, ordered by (squared distance,
    index). Distances are summed as Python ints, so coordinates must be
    integers; then every distance is exact and ties are real ties."""
    out = []
    for i, q in enumerate(Q):
        cands = sorted((sum((int(a) - int(b)) ** 2 for a, b in zip(q, x)), j)
                       for j, x in enumerate(X) if not (exclude_self and i == j))
        out.append([j for _, j in cands[:k]])
    return out


def smote_dense(X, y, k_neighbors, target_ratio, rng):
    """SMOTE as first written, frozen: the whole n_min x n_min distance matrix
    and a stable argsort of each row. ``rng`` must be the package's "smote"
    stream; returns (X_out, parent, neighbor, u). The distances round as the
    package documents them (an einsum product times -2, plus the column norms,
    plus the row norms, clipped at 0), so a byte comparison isolates the
    package's blocking from its rounding."""
    X = np.asarray(X, dtype=np.float64)
    classes, counts = np.unique(y, return_counts=True)
    minority_label = classes[int(np.argmin(counts))]
    n_min, n_maj = int(counts.min()), int(counts.max())
    n_new = max(0, int(np.ceil(target_ratio * n_maj - 1e-12)) - n_min)
    min_rows = np.flatnonzero(y == minority_label)
    k = min(k_neighbors, n_min - 1)
    Xm = X[min_rows]
    xx = (Xm * Xm).sum(1)
    d2 = np.maximum(-2.0 * np.einsum("ik,jk->ij", Xm, Xm) + xx[None, :] + xx[:, None], 0.0)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
    parent_local = rng.integers(0, n_min, n_new)
    pick = rng.integers(0, k, n_new)
    u = rng.random(n_new)
    parent = min_rows[parent_local]
    neighbor = min_rows[neighbors[parent_local, pick]]
    X_new = X[parent] + u[:, None] * (X[neighbor] - X[parent])
    return np.vstack([X, X_new]), parent, neighbor, u


# ---------------------------------------------------------------------------
# the cell-by-cell CSV path, frozen: one python object per cell, row loops
# ---------------------------------------------------------------------------

_FROZEN_MISSING_MARKERS = {"", "na", "nan", "null", "none"}
_FROZEN_TRUTHY_FLAGS = {"1", "true", "t", "yes", "y", "incomplete", "inconsistent"}


@dataclass
class FrozenTable:
    """The record table as it was: python scalars per cell, ``None`` for missing."""

    columns: dict

    @property
    def n_rows(self):
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def take(self, idx):
        return FrozenTable({k: [v[i] for i in idx] for k, v in self.columns.items()})


def _frozen_parse_cell(raw, kind, row_no, col):
    from stratify.errors import DataError

    s = raw.strip()
    if s.lower() in _FROZEN_MISSING_MARKERS:
        return None
    if kind == "categorical":
        return s
    try:
        val = float(s)
    except ValueError:
        raise DataError(f"unparseable numeric cell {raw!r} in column {col!r} at data row {row_no}")
    return val


def frozen_load_person_course(path, schema):
    from stratify.errors import DataError

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DataError(f"missing file: {path}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("no rows: file is empty")
        header = [h.strip() for h in header]
        missing = [c for c in schema.columns if c not in header]
        if missing:
            raise DataError(f"missing column(s): {', '.join(missing)}")
        flags = [c for c in schema.flag_columns if c in header]
        wanted = list(schema.columns) + flags
        pos = {c: header.index(c) for c in wanted}
        kinds = {f.name: f.kind for f in schema.features}
        kinds[schema.outcome] = "binary"
        for c in flags:
            kinds[c] = "categorical"

        columns = {c: [] for c in wanted}
        row_no = 0
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            row_no += 1
            for c in wanted:
                try:
                    cell = row[pos[c]]
                except IndexError:
                    cell = ""
                columns[c].append(_frozen_parse_cell(cell, kinds[c], row_no, c))
        if row_no == 0:
            raise DataError("no rows")
    return FrozenTable(columns)


def _frozen_row_is_inconsistent(table, schema, i):
    for f in schema.features:
        v = table.columns[f.name][i]
        if f.kind == "binary" and v not in (0.0, 1.0):
            return True
        if f.kind == "count" and v < 0:
            return True
    if table.columns[schema.outcome][i] not in (0.0, 1.0):
        return True
    return False


def frozen_clean(table, schema):
    """Returns (table, (kept, dropped_missing, dropped_flagged, dropped_inconsistent))."""
    from stratify.errors import DataError

    flags = [c for c in schema.flag_columns if c in table.columns]
    keep, n_miss, n_flag, n_bad = [], 0, 0, 0
    for i in range(table.n_rows):
        if any(table.columns[c][i] is None for c in schema.columns):
            n_miss += 1
            continue
        flagged = False
        for c in flags:
            v = table.columns[c][i]
            if v is not None and str(v).strip().lower() in _FROZEN_TRUTHY_FLAGS:
                flagged = True
                break
        if flagged:
            n_flag += 1
            continue
        if _frozen_row_is_inconsistent(table, schema, i):
            n_bad += 1
            continue
        keep.append(i)
    if not keep:
        raise DataError("cleaning dropped all rows")
    cleaned = table.take(keep)
    for c in flags:
        del cleaned.columns[c]
    return cleaned, (len(keep), n_miss, n_flag, n_bad)


def frozen_encode(table, schema):
    """Returns (X, y, mappings)."""
    from stratify.dataset import LabeledDataset
    from stratify.errors import DataError

    mappings = {}
    n = table.n_rows
    for f in schema.features:
        if f.kind != "categorical":
            continue
        values = table.columns[f.name]
        levels = sorted(set(values))
        if len(levels) <= 2:
            mappings[f.name] = {"mode": "binary",
                                "map": {lv: float(k) for k, lv in enumerate(levels)}}
        else:
            counts = {}
            for v in values:
                counts[v] = counts.get(v, 0) + 1
            mappings[f.name] = {"mode": "frequency",
                                "map": {lv: c / n for lv, c in sorted(counts.items())}}
    X = np.empty((n, len(schema.features)), dtype=np.float64)
    for j, f in enumerate(schema.features):
        col = table.columns[f.name]
        if f.kind == "categorical":
            mapping = mappings[f.name]["map"]
            try:
                X[:, j] = [mapping[v] for v in col]
            except KeyError as e:
                raise DataError(
                    f"category {e.args[0]!r} in {f.name!r} was not seen when the encoder was fitted")
        else:
            X[:, j] = col
    y = np.asarray(table.columns[schema.outcome], dtype=np.int64)
    ds = LabeledDataset(X, y, schema)  # rejects missing or non-finite values
    return ds.X, ds.y, mappings


def frozen_save_dataset_csv(path, ds):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(ds.feature_names) + [ds.schema.outcome])
        for i in range(ds.n):
            w.writerow([repr(float(v)) for v in ds.X[i]] + [int(ds.y[i])])


def frozen_load_dataset_csv(path, schema):
    """Returns (X, y) as the loader built them."""
    from stratify.errors import DataError

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expect = list(schema.feature_names) + [schema.outcome]
        if header != expect:
            raise DataError(f"dataset columns {header} do not match schema {expect}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise DataError("no rows")
    arr = np.array(rows, dtype=np.float64)
    return arr[:, :-1], arr[:, -1].astype(np.int64)


def frozen_save_cohort_csv(path, columns, true_pattern, schema):
    """``columns`` holds one list of numpy scalars (or strings) per schema column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(schema.columns) + ["true_pattern"])
        for i in range(len(true_pattern)):
            row = [columns[c][i] for c in schema.columns]
            w.writerow(row + [int(true_pattern[i])])


def bootstrap_rows(y_true, y_pred, n_boot, rng, max_retries=1000):
    """FPR/TPR by resampling test rows with replacement, one replicate at a time.

    A verbatim copy of the loop ``evaluation.bootstrap_rate_distributions`` ran
    before it drew the four confusion cells directly; the statistical tests
    compare the two laws. Returns ``(fprs, tprs)``.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    n = len(y_true)
    fprs = np.empty(n_boot)
    tprs = np.empty(n_boot)
    for b in range(n_boot):
        for attempt in range(max_retries + 1):
            idx = rng.integers(0, n, n)
            yt = y_true[idx]
            if yt.min() != yt.max():
                break
        else:
            raise RuntimeError("bootstrap retry bound exceeded: a class is pathologically rare")
        yp = y_pred[idx]
        pos = yt == 1
        tprs[b] = np.sum(yp[pos] == 1) / np.sum(pos)
        fprs[b] = np.sum(yp[~pos] == 1) / np.sum(~pos)
    return fprs, tprs
