"""Every validity index against its brute-force formula oracle."""

import numpy as np
import pytest

from stratify import clustering as cl

import oracles

SIMPLE = {
    "silhouette": oracles.silhouette,
    "calinski_harabasz": oracles.calinski_harabasz,
    "davies_bouldin": oracles.davies_bouldin,
    "dunn": oracles.dunn,
    "c_index": oracles.c_index,
    "mcclain": oracles.mcclain,
    "point_biserial": oracles.point_biserial,
    "ball": oracles.ball,
}


def random_partition(rng):
    n = int(rng.integers(6, 31))
    p = int(rng.integers(1, 5))
    k = int(rng.integers(2, min(n, 6)))
    X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0)
    labels = rng.integers(0, k, n)
    for c in range(k):  # keep every cluster nonempty
        labels[c] = c
    return X, labels, k


@pytest.mark.parametrize("index_id", sorted(SIMPLE))
def test_simple_indices_match_oracle(index_id, rng):
    for _ in range(25):
        X, labels, k = random_partition(rng)
        got = cl.validity_index(X, labels, index_id)
        want = SIMPLE[index_id](X, labels.tolist())
        assert got == pytest.approx(want, abs=1e-9), index_id


def test_sequence_indices_match_oracle(rng):
    for _ in range(25):
        X, labels, k = random_partition(rng)
        n, p = X.shape
        inertias = {}
        for kk in (k - 1, k, k + 1):
            if kk < 1:
                continue
            if kk == k:
                inertias[kk] = oracles.partition_cost(X, labels.tolist())
            else:
                m = cl.kmeans_fit(X, kk, seed=1, n_restarts=5)
                inertias[kk] = oracles.partition_cost(X, m.fit_labels.tolist())
        got_h = cl.validity_index(X, labels, "hartigan", inertias=inertias)
        want_h = oracles.hartigan(inertias[k], inertias[k + 1], n, k)
        assert got_h == pytest.approx(want_h, abs=1e-9, rel=1e-9)
        if k - 1 >= 1:
            got_kl = cl.validity_index(X, labels, "krzanowski_lai", inertias=inertias)
            want_kl = oracles.krzanowski_lai(inertias[k - 1], inertias[k],
                                             inertias[k + 1], k, p)
            assert got_kl == pytest.approx(want_kl, abs=1e-9, rel=1e-9)


def test_two_tight_far_clusters_silhouette_near_one(rng):
    # separation ratio >= 20 pushes the silhouette above 0.95
    a = rng.normal(size=(15, 2)) * 0.5
    b = rng.normal(size=(15, 2)) * 0.5 + 40.0
    X = np.vstack([a, b])
    labels = np.array([0] * 15 + [1] * 15)
    assert cl.validity_index(X, labels, "silhouette") >= 0.95


def test_tight_clusters_db_small_dunn_large(rng):
    X = np.vstack([np.zeros((10, 2)), np.full((10, 2), 8.0)])
    labels = np.array([0] * 10 + [1] * 10)
    db = cl.validity_index(X, labels, "davies_bouldin")
    dn = cl.validity_index(X, labels, "dunn")
    assert db == pytest.approx(oracles.davies_bouldin(X, labels.tolist()), abs=1e-12)
    assert db == pytest.approx(0.0, abs=1e-12)  # zero spread clusters
    assert dn == float("inf")  # zero diameter convention
    # same geometry with a little jitter stays extreme but finite
    X2 = X + rng.normal(size=X.shape) * 0.01
    assert cl.validity_index(X2, labels, "davies_bouldin") < 0.02
    assert cl.validity_index(X2, labels, "dunn") > 100.0


def test_singleton_cluster_silhouette_zero_fallback():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    labels = np.array([0, 0, 1])
    got = cl.validity_index(X, labels, "silhouette")
    want = oracles.silhouette(X, labels.tolist())  # singleton contributes 0
    assert got == pytest.approx(want, abs=1e-12)


def test_validity_index_guards():
    X = np.zeros((4, 2))
    with pytest.raises(cl.ClusteringError):
        cl.validity_index(X, np.zeros(4, dtype=int), "silhouette")  # k=1
    with pytest.raises(cl.ClusteringError):
        cl.validity_index(X, np.array([0, 1, 1, 1]), "hartigan")  # missing inertias
    with pytest.raises(cl.ClusteringError):
        cl.validity_index(X, np.array([0, 1, 1, 1]), "made_up")
