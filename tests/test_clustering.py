import numpy as np
import pytest

from stratify import clustering as cl
from stratify.classifiers.neighbors import sq_dists
from stratify.errors import ClusteringError

import oracles


def test_kmeans_two_cluster_example():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    m = cl.kmeans_fit(X, 2, seed=7)
    assert m.inertia == pytest.approx(1.0, abs=1e-12)
    got = sorted(map(tuple, np.round(m.centroids, 9)))
    assert got == [(0.0, 0.5), (10.0, 0.5)]


def test_kmeans_k1_is_column_means(rng):
    X = rng.normal(size=(40, 3))
    m = cl.kmeans_fit(X, 1, seed=0)
    assert np.allclose(m.centroids[0], X.mean(axis=0))
    assert m.inertia == pytest.approx(float(((X - X.mean(0)) ** 2).sum()))


def test_kmeans_k_equals_n_zero_inertia(rng):
    X = rng.normal(size=(6, 2))
    m = cl.kmeans_fit(X, 6, seed=1, n_restarts=20)
    assert m.inertia == pytest.approx(0.0, abs=1e-18)


def test_kmeans_errors():
    with pytest.raises(ClusteringError):
        cl.kmeans_fit(np.zeros((3, 2)), 4, seed=0)
    with pytest.raises(ClusteringError):
        cl.kmeans_fit(np.zeros((0, 2)), 1, seed=0)
    with pytest.raises(ClusteringError):
        cl.kmeans_fit(np.array([[np.nan, 0.0]]), 1, seed=0)


@pytest.mark.parametrize("k", [1, 2])
def test_kmeans_fit_needs_a_restart(rng, k):
    with pytest.raises(ClusteringError, match="n_restarts"):
        cl.kmeans_fit(rng.normal(size=(20, 2)), k, seed=0, n_restarts=0)


def test_lloyd_inertia_increase_raises_clustering_error(rng, monkeypatch):
    # a real check, not an assert, so it survives python -O; scaling every
    # distance up on each call keeps the labels but makes the cost grow
    real = cl.sq_dists
    calls = iter(range(1, 1000))
    monkeypatch.setattr(cl, "sq_dists",
                        lambda A, B, aa=None, bb=None: real(A, B, aa, bb) * 10.0 ** next(calls))
    X = rng.normal(size=(60, 2))
    with pytest.raises(ClusteringError, match="inertia increased"):
        cl._lloyd(X, X[:3].copy(), 50, 1e-6)


def _lloyd_cases(rng):
    # random rows; K from 2 to 9 with distinct starting rows
    X = rng.normal(size=(300, 4))
    for k in range(2, 10):
        yield X, X[rng.choice(len(X), k, replace=False)] + 0.01, 100
    # an integer grid: every row with x0 = 1 is exactly equidistant from the
    # first two starting centroids, and so are rows between later centroids
    grid = np.array([(a, b) for a in range(-3, 6) for b in range(-2, 3)], dtype=np.float64)
    for k in (2, 3, 4):
        yield grid, np.array([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (2.0, 2.0)][:k]), 100
    # duplicated starting centroids leave clusters empty and force the reseed
    yield X, X[[5, 5, 5, 9]].copy(), 100
    yield grid, grid[[0, 0, 7]].copy(), 100
    # max_iter 0 only assigns; max_iter 1 stops after one update
    for max_iter in (0, 1):
        yield X, X[:3] + 0.5, max_iter
        yield grid, grid[[0, 0, 7]].copy(), max_iter


def test_lloyd_matches_frozen_reference_bit_for_bit(rng):
    for X, init, max_iter in _lloyd_cases(rng):
        want = oracles.frozen_lloyd(X, init.copy(), max_iter, 1e-6)
        got = cl._lloyd(X, init.copy(), max_iter, 1e-6)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]
        assert got[3] == want[3]


def test_kmeans_deterministic(rng):
    X = rng.normal(size=(50, 4))
    a = cl.kmeans_fit(X, 3, seed=9)
    b = cl.kmeans_fit(X, 3, seed=9)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.inertia == b.inertia
    assert np.array_equal(a.fit_labels, b.fit_labels)


def test_kmeans_small_instances_reach_exhaustive_optimum(rng):
    # spot check; the acceptance suite runs the full 200-instance version
    for _ in range(30):
        n = int(rng.integers(3, 9))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        m = cl.kmeans_fit(X, 2, seed=int(rng.integers(1 << 30)), n_restarts=50)
        best = oracles.best_two_partition_cost(X)
        fit_cost = oracles.partition_cost(X, oracles.canonical_two_labels(m.fit_labels))
        assert fit_cost == best


def nearest_labels(centroids, X):
    return cl._nearest(sq_dists(centroids, X))[0]


def _lloyd_exit_fits(X):
    """Fits of X by each way out of _lloyd, keyed by it: with tol 0 only the label
    fixpoint ends the loop before max_iter, and with tol inf the first shift does."""
    fit = dict(seed=1, n_restarts=2)
    return {"fixpoint": cl.kmeans_fit(X, 5, tol=0.0, **fit),
            "shift": cl.kmeans_fit(X, 5, tol=np.inf, **fit),
            "cap1": cl.kmeans_fit(X, 5, max_iter=1, tol=0.0, **fit),
            "cap2": cl.kmeans_fit(X, 5, max_iter=2, tol=0.0, **fit),
            "k1": cl.kmeans_fit(X, 1, **fit)}


def test_fit_labels_are_nearest_centroid_labels_on_every_lloyd_exit(rng):
    # patterns are built from fit_labels with no pass of their own over the
    # returned centroids, so every way out of _lloyd must leave the two equal
    X = rng.normal(size=(300, 4))
    fits = _lloyd_exit_fits(X)
    assert 2 < fits["fixpoint"].n_iter < 300
    assert fits["shift"].n_iter == 1
    assert (fits["cap1"].n_iter, fits["cap2"].n_iter) == (1, 2)
    grid = np.array([(a, b) for a in range(-3, 6) for b in range(-2, 3)], dtype=np.float64)
    dups = np.vstack([X[:40], X[:40], X[:5]])
    for data, by_exit in ((X, fits), (grid, _lloyd_exit_fits(grid)),
                          (dups, _lloyd_exit_fits(dups))):
        for m in by_exit.values():
            assert np.array_equal(m.fit_labels, nearest_labels(m.centroids, data))


def test_assign_patterns_matches_fit_and_breaks_ties_low():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    m = cl.kmeans_fit(X, 2, seed=3)
    labels = nearest_labels(m.centroids, X)
    assert np.array_equal(labels, m.fit_labels)
    assert len(labels) == 4
    # a point equidistant from both centroids goes to the lower cluster index
    mid = (m.centroids[0] + m.centroids[1]) / 2.0
    assert nearest_labels(m.centroids, mid[None, :])[0] == 0


def test_assign_point_on_centroid():
    X = np.array([[0.0, 0.0], [4.0, 4.0]])
    m = cl.kmeans_fit(X, 2, seed=0)
    assert nearest_labels(m.centroids, m.centroids[1][None, :].copy())[0] == 1


def test_sort_patterns_by_size():
    X = np.vstack([np.zeros((2, 1)), np.ones((6, 1)) * 10])
    m = cl.kmeans_fit(X, 2, seed=0)
    a2 = cl.sort_patterns_by_size(m.fit_labels, m.k)
    assert a2.sizes[0] >= a2.sizes[1]
    assert a2.sizes.sum() == 8
    back = cl.sort_patterns_by_size(nearest_labels(m.centroids, X), m.k)
    assert np.array_equal(back.labels, a2.labels)


def test_select_k_recovers_planted_three(rng):
    from stratify import dataset as dsm
    from stratify import synthcohort

    spec = synthcohort.separated_spec(3)
    sample = synthcohort.generate(spec, 2500, seed=42)
    ds_n = dsm.apply_normalizer(dsm.fit_normalizer(sample.dataset), sample.dataset)
    report, models = cl.select_k(ds_n.X, (2, 6), seed=4, n_restarts=4, max_iter=100)
    assert report.winner == 3
    votes_for_3 = sum(1 for v in report.votes.values() if v == 3)
    assert votes_for_3 >= 8


def test_select_k_report_complete(rng):
    X = rng.normal(size=(40, 3))
    report, models = cl.select_k(X, (2, 5), seed=0, n_restarts=3)
    for idx in cl.ALL_INDICES:
        assert set(report.values[idx].keys()) == {2, 3, 4, 5}
        assert idx in report.votes
    assert set(models.keys()) == {2, 3, 4, 5, 6}
    assert report.winner in (2, 3, 4, 5)
    assert report.tally[report.winner] == max(report.tally.values())


def test_select_k_tie_breaks_toward_smaller(rng, monkeypatch):
    # rig the per-index votes into a 2-2 tie; select_k's own tally must pick K=2
    rigged = {"silhouette": 3, "dunn": 3, "c_index": 2, "mcclain": 2}
    monkeypatch.setattr(cl, "_vote_for", lambda idx, in_range, extended: rigged[idx])
    report, _ = cl.select_k(rng.normal(size=(30, 2)), (2, 3), index_set=tuple(rigged),
                            seed=0, n_restarts=1)
    assert report.votes == rigged
    assert report.tally == {2: 2, 3: 2}
    assert report.winner == 2


PAIR_ORACLES = {"silhouette": oracles.silhouette, "dunn": oracles.dunn,
                "c_index": oracles.c_index, "mcclain": oracles.mcclain,
                "point_biserial": oracles.point_biserial}


def test_select_k_pair_indices_read_a_topped_up_subsample(rng, monkeypatch):
    # 200 rows over a cap of 40: two blobs plus a far cluster of two rows
    # (198, 199) that seed 0's base subsample misses, so every K tops it up
    X = np.vstack([rng.normal(size=(99, 2)), rng.normal(size=(99, 2)) + 8.0,
                   rng.normal(size=(2, 2)) * 0.1 + 60.0])
    row_of = {r.tobytes(): i for i, r in enumerate(X)}
    read = []
    real = cl.pairwise_distances

    def recording(Xs):
        read.append(np.array([row_of[r.tobytes()] for r in Xs]))
        return real(Xs)

    monkeypatch.setattr(cl, "pairwise_distances", recording)
    report, models = cl.select_k(X, (2, 4), index_set=tuple(PAIR_ORACLES), seed=0,
                                 n_restarts=2, sample_cap=40)
    assert len(read) == 3  # one distance matrix per K
    for k, rows in zip((2, 3, 4), read):
        labels = models[k].fit_labels
        assert len(rows) == 41 and 198 in rows  # the base 40 rows plus one forced
        assert set(labels[rows].tolist()) == set(range(k))
        for idx, oracle in PAIR_ORACLES.items():
            want = oracle(X[rows], labels[rows].tolist())
            assert report.values[idx][k] == pytest.approx(want, abs=1e-9), (idx, k)


def test_select_k_rejects_bad_input(rng):
    X = rng.normal(size=(20, 2))
    with pytest.raises(ClusteringError):
        cl.select_k(X, (2, 5), index_set=(), seed=0)
    with pytest.raises(ClusteringError):
        cl.select_k(X, (1, 5), seed=0)
    with pytest.raises(ClusteringError):
        cl.select_k(X, (2, 25), seed=0)
    with pytest.raises(ClusteringError):
        cl.select_k(X, (2, 5), index_set=("nope",), seed=0)


def test_vote_rules_obey_families():
    in_range = {2: 1.0, 3: 5.0, 4: 2.0}
    assert cl._vote_for("silhouette", in_range, {}) == 3
    assert cl._vote_for("davies_bouldin", in_range, {}) == 2  # min of 1.0 at k=2
    # ties break toward smaller k
    assert cl._vote_for("silhouette", {2: 5.0, 3: 5.0}, {}) == 2
    assert cl._vote_for("c_index", {2: 1.0, 3: 1.0}, {}) == 2
    # elbow: largest drop between consecutive values
    assert cl._vote_for("ball", {2: 10.0, 3: 4.0, 4: 3.0}, {}) == 3
    assert cl._vote_for("ball", {2: 10.0, 3: 9.0, 4: 3.0}, {}) == 4
    # hartigan uses the largest absolute change, extended below the range
    assert cl._vote_for("hartigan", {2: 10.0, 3: 9.0, 4: 3.0}, {1: 100.0}) == 2
    assert cl._vote_for("hartigan", {2: 10.0, 3: 9.0, 4: 3.0}, {}) == 4
