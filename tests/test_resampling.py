import tracemalloc

import numpy as np
import pytest

from stratify.errors import ResamplingError
from stratify.resampling import smote
from stratify.rng import derive_rng

import oracles


def imbalanced(rng, n_min=4, n_maj=12, p=3):
    Xmin = rng.normal(size=(n_min, p))
    Xmaj = rng.normal(size=(n_maj, p)) + 3.0
    X = np.vstack([Xmin, Xmaj])
    y = np.array([1] * n_min + [0] * n_maj)
    return X, y


def test_balanced_input_unchanged(rng):
    X = rng.normal(size=(8, 2))
    y = np.array([0, 1] * 4)
    out = smote(X, y, seed=1)
    assert out.n_synthetic == 0
    assert np.array_equal(out.X, X) and np.array_equal(out.y, y)


def test_counts_majority8_minority2():
    X = np.arange(10, dtype=float)[:, None]
    y = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    out = smote(X, y, k_neighbors=1, seed=0)
    assert out.n_synthetic == 6
    counts = np.bincount(out.y)
    assert counts[0] == counts[1] == 8


def test_two_point_segment_property():
    X = np.array([[0.0], [1.0]] + [[5.0]] * 20)
    y = np.array([1, 1] + [0] * 20)
    seen = []
    for seed in range(50):
        out = smote(X, y, k_neighbors=1, seed=seed)
        vals = out.X[out.synthetic, 0]
        assert np.all((vals >= 0.0) & (vals < 1.0) | np.isin(vals, (0.0, 1.0)))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        seen.extend(vals.tolist())
    assert len(set(np.round(seen, 12))) > 100  # actually spread over the segment


def test_convex_reconstruction_exact(rng):
    X, y = imbalanced(rng, n_min=6, n_maj=20)
    out = smote(X, y, k_neighbors=3, seed=9)
    synth = np.flatnonzero(out.synthetic)
    assert len(synth) == 14
    for row, parent, nb, u in zip(synth, out.parent_idx, out.neighbor_idx, out.interpolation):
        rebuilt = out.X[parent] + u * (out.X[nb] - out.X[parent])
        assert rebuilt.tobytes() == out.X[row].tobytes()
        assert out.y[parent] == out.y[nb] == out.y[row] == 1
        assert 0.0 <= u < 1.0


def test_original_rows_verbatim_and_first(rng):
    X, y = imbalanced(rng)
    out = smote(X, y, seed=3)
    assert out.X[:len(y)].tobytes() == X.tobytes()
    assert np.array_equal(out.y[:len(y)], y)
    assert not out.synthetic[:len(y)].any()
    assert out.synthetic[len(y):].all()


def test_target_ratio_partial_and_rounding(rng):
    X, y = imbalanced(rng, n_min=2, n_maj=10)
    out = smote(X, y, target_ratio=0.55, seed=2)
    # ceil(0.55 * 10) = 6 minority rows after resampling
    assert np.bincount(out.y)[1] == 6
    over = smote(X, y, target_ratio=0.1, seed=2)
    assert over.n_synthetic == 0  # already above the target


def test_determinism(rng):
    X, y = imbalanced(rng)
    a = smote(X, y, seed=11)
    b = smote(X, y, seed=11)
    assert a.X.tobytes() == b.X.tobytes()
    c = smote(X, y, seed=12)
    assert a.X.tobytes() != c.X.tobytes()


def test_minority_of_one_duplicates_with_flag(rng):
    X = np.vstack([np.zeros((1, 2)), rng.normal(size=(5, 2)) + 4])
    y = np.array([1, 0, 0, 0, 0, 0])
    out = smote(X, y, seed=0)
    assert out.duplication_fallback
    assert out.n_synthetic == 4
    assert np.all(out.X[out.synthetic] == X[0])


def test_single_class_errors(rng):
    X = rng.normal(size=(6, 2))
    with pytest.raises(ResamplingError):
        smote(X, np.zeros(6, dtype=int), seed=0)


def test_neighbors_are_minority_only(rng):
    X, y = imbalanced(rng, n_min=5, n_maj=30)
    out = smote(X, y, k_neighbors=2, seed=7)
    assert np.all(out.y[out.parent_idx] == 1)
    assert np.all(out.y[out.neighbor_idx] == 1)
    assert np.all(out.parent_idx != out.neighbor_idx)


@pytest.mark.parametrize("n_min, p, discrete", [(2, 1, True), (40, 3, True), (300, 5, True),
                                                (512, 4, True), (200, 6, False),
                                                (512, 10, False)])
def test_matches_frozen_dense_smote_up_to_one_block(rng, n_min, p, discrete):
    # up to 512 minority rows the neighbor search is one block, whose distances
    # round exactly like the dense matrix's, so every byte must agree
    n_maj = n_min + 37
    if discrete:  # dense exact ties, on a non-integer grid like scaled counts
        X = rng.integers(0, 3, size=(n_min + n_maj, p)) / 7.0
    else:
        X = rng.normal(size=(n_min + n_maj, p))
    y = rng.permutation(np.array([1] * n_min + [0] * n_maj))
    for k in (1, 3, 5):
        out = smote(X, y, k_neighbors=k, seed=k)
        X_ref, parent, neighbor, u = oracles.smote_dense(X, y, k, 1.0,
                                                         derive_rng(k, "smote"))
        assert out.X.tobytes() == X_ref.tobytes()
        assert np.array_equal(out.parent_idx, parent)
        assert np.array_equal(out.neighbor_idx, neighbor)
        assert out.interpolation.tobytes() == u.tobytes()


def test_neighbor_search_memory_is_linear_in_minority_rows(rng):
    # the dense 8,000 x 8,000 distance matrix and its argsort took 981 MiB
    X = rng.normal(size=(16_001, 10))
    y = np.array([1] * 8_000 + [0] * 8_001)
    tracemalloc.start()
    try:
        out = smote(X, y, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n_synthetic == 1
    assert peak <= 128 * 2 ** 20
