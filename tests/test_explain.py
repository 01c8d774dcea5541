import numpy as np
import pytest

from stratify import classifiers as clf
from stratify import explain as ex
from stratify.classifiers.boosting import gbt_margin
from stratify.classifiers.trees import Tree, tree_predict
from stratify.errors import ExplainError

import oracles


def leaf(v):
    return Tree([-1], [0.0], [-1], [-1], [v], [1], [0.0])


def node(j, thr, left, right, gain=1.0):
    """A root splitting on x_j <= thr, then the left tree's nodes, then the right's."""
    def children(t, offset):
        return [np.where(t.feature >= 0, c + offset, -1) for c in (t.left, t.right)]

    (ll, lr), (rl, rr) = children(left, 1), children(right, 1 + len(left.feature))
    return Tree(np.r_[j, left.feature, right.feature],
                np.r_[thr, left.threshold, right.threshold],
                np.r_[1, ll, rl], np.r_[1 + len(left.feature), lr, rr],
                np.r_[0.0, left.value, right.value], np.r_[2, left.n, right.n],
                np.r_[gain, left.gain, right.gain])


def one_row(model, x, background):
    """The closed-form tree path on the single row x: (phi, base)."""
    mat = ex.shap_matrix(model, np.asarray(x, dtype=np.float64)[None, :], background)
    return mat.values[0], mat.base


def manual_dt(tree, p):
    from stratify.classifiers.trees import DTState
    return DTState([tree], p)


def test_importance_single_feature_tree():
    t = node(3, 0.5, leaf(0.0), leaf(1.0), gain=2.0)
    r = ex.split_gain_importance(manual_dt(t, 5))
    assert r.scores[3] == 1.0 and r.scores.sum() == 1.0
    assert r.order[0] == 3


def test_importance_all_leaves_zero():
    r = ex.split_gain_importance(manual_dt(leaf(0.3), 4))
    assert np.all(r.scores == 0.0)
    # GBT stops before its first tree when that tree would be all zero leaves
    gbt = clf.fit("GBT", np.zeros((10, 4)), np.array([0, 1] * 5), seed=0)
    assert gbt.state.forest == []
    assert ex.split_gain_importance(gbt).scores.tolist() == [0.0] * 4


def test_importance_two_trees_split_evenly():
    from stratify.classifiers.trees import RFState
    t1 = node(1, 0.0, leaf(0.0), leaf(1.0), gain=3.0)
    t2 = node(2, 0.0, leaf(0.0), leaf(1.0), gain=3.0)
    r = ex.split_gain_importance(RFState([t1, t2], 4))
    assert r.scores[1] == pytest.approx(0.5) and r.scores[2] == pytest.approx(0.5)


def test_importance_rejects_non_tree_models(rng):
    m = clf.fit("LR", rng.normal(size=(10, 2)), np.array([0, 1] * 5), seed=0)
    with pytest.raises(ExplainError):
        ex.split_gain_importance(m)


def test_bruteforce_constant_model(rng):
    B = rng.normal(size=(6, 3))
    phi, base = oracles.shap_bruteforce(lambda M: np.full(len(M), 2.5), np.zeros(3), B)
    assert np.allclose(phi, 0.0) and base == pytest.approx(2.5)


def test_bruteforce_additive_closed_form(rng):
    B = rng.normal(size=(10, 2))
    x = np.array([2.0, -1.0])
    phi, base = oracles.shap_bruteforce(lambda M: M[:, 0] + M[:, 1], x, B)
    assert np.allclose(phi, x - B.mean(axis=0), atol=1e-9)
    assert base == pytest.approx(B.mean(axis=0).sum())


def test_bruteforce_matches_permutation_definition(rng):
    # independent check against the permutation form of the Shapley value
    B = rng.normal(size=(5, 3))
    x = rng.normal(size=3)

    def fn(M):
        return M[:, 0] * M[:, 1] - 0.5 * M[:, 2] + 0.1 * M[:, 0] ** 2

    phi, base = oracles.shap_bruteforce(fn, x, B)
    value = oracles.interventional_value(fn, x, B)
    want = oracles.shapley_by_permutations(value, 3)
    assert np.allclose(phi, want, atol=1e-9)
    assert base == pytest.approx(value(frozenset()))


def test_bruteforce_guard():
    with pytest.raises(ExplainError):
        oracles.shap_bruteforce(lambda M: M[:, 0], np.zeros(25), np.zeros((3, 25)))


def random_forest_model(rng, p, n_trees=3, depth=3, n=40):
    X = rng.normal(size=(n, p))
    y = (X[:, 0] + X[:, min(1, p - 1)] * 0.5 + rng.normal(scale=0.2, size=n) > 0).astype(int)
    alg = rng.choice(["DT", "RF", "GBT"])
    if alg == "DT":
        return clf.fit("DT", X, y, {"max_depth": depth}, seed=int(rng.integers(1 << 30))), X
    if alg == "RF":
        return clf.fit("RF", X, y, {"n_trees": n_trees, "max_depth": depth},
                       seed=int(rng.integers(1 << 30))), X
    return clf.fit("GBT", X, y, {"n_trees": n_trees, "max_depth": depth},
                   seed=int(rng.integers(1 << 30))), X


def ensemble_fn(model):
    state = model.state
    if model.algorithm == "GBT":
        return lambda M: gbt_margin(state, M)
    if model.algorithm == "DT":
        return lambda M: tree_predict(state.forest[0], M)
    return lambda M: np.mean([tree_predict(t, M) for t in state.forest], axis=0)


def test_tree_fast_equals_bruteforce_random_ensembles(rng):
    for _ in range(12):
        p = int(rng.integers(2, 8))
        model, X = random_forest_model(rng, p)
        B = X[:int(rng.integers(2, 10))]
        fn = ensemble_fn(model)
        for row in range(3):
            x = X[row]
            fast, base_f = one_row(model, x, B)
            brute, base_b = oracles.shap_bruteforce(fn, x, B)
            assert np.allclose(fast, brute, atol=1e-9)
            assert base_f == pytest.approx(base_b, abs=1e-9)


def test_tree_fast_depth1_exact(rng):
    t = node(0, 0.0, leaf(-1.0), leaf(1.0))
    model = manual_dt(t, 2)
    B = rng.normal(size=(7, 2))
    x = np.array([1.0, 0.0])
    fast, base = one_row(model, x, B)
    brute, base_b = oracles.shap_bruteforce(lambda M: tree_predict(t, M), x, B)
    assert np.allclose(fast, brute, atol=1e-12)
    assert fast[1] == 0.0  # untouched feature is a dummy


def test_tree_fast_leaf_only_zero_phi(rng):
    model = manual_dt(leaf(0.7), 3)
    phi, base = one_row(model, np.zeros(3), rng.normal(size=(4, 3)))
    assert np.all(phi == 0.0) and base == pytest.approx(0.7)


def test_efficiency_asserted_every_row(rng):
    model, X = random_forest_model(rng, 4)
    fn = ensemble_fn(model)
    B = X[:8]
    for i in range(5):
        phi, base = one_row(model, X[i], B)
        assert base + phi.sum() == pytest.approx(float(fn(X[i][None])[0]), abs=1e-9)


def test_symmetry_on_symmetric_tree(rng):
    # f = [x0 <= 0] + [x1 <= 0] built from two stumps; swapping features 0/1
    # leaves the function unchanged, so equal inputs get equal attribution
    from stratify.classifiers.trees import RFState
    t1 = node(0, 0.0, leaf(1.0), leaf(0.0))
    t2 = node(1, 0.0, leaf(1.0), leaf(0.0))
    model = RFState([t1, t2], 2)
    B = np.array([[1.0, 1.0], [-1.0, -1.0], [0.5, 0.5]])
    x = np.array([-0.3, -0.3])
    phi, base = one_row(model, x, B)
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_dummy_feature_gets_zero(rng):
    model, X = random_forest_model(rng, 3)
    Xpad = np.hstack([X, rng.normal(size=(len(X), 1))])
    from stratify.classifiers.trees import DTState
    # rebuild as a 4-feature model whose trees never touch feature 3
    state = model.state
    if model.algorithm == "GBT":
        state.n_features = 4
    elif model.algorithm == "DT":
        state = DTState(state.forest, 4)
        model = clf.TrainedModel("DT", {}, 0, state, {})
    else:
        state.n_features = 4
    phi, _ = one_row(model, Xpad[0], Xpad[:6])
    assert phi[3] == 0.0


def test_shap_matrix_and_beeswarm(rng):
    model, X = random_forest_model(rng, 3)
    mat = ex.shap_matrix(model, X[:4], X[:6], feature_names=("a", "b", "c"))
    assert mat.values.shape == (4, 3)
    rows = ex.beeswarm_export(mat)
    assert len(rows) == 12
    # ordered by mean |phi| descending
    means = {n: np.abs(mat.values[:, j]).mean() for j, n in enumerate(("a", "b", "c"))}
    first_feature = rows[0][0]
    assert means[first_feature] == max(means.values())
    for _, _, _, _, pct in rows:
        assert 0.0 <= pct <= 1.0
    single = ex.beeswarm_export(ex.ShapMatrix(mat.values[:1], mat.base,
                                              mat.feature_values[:1], ("a", "b", "c")))
    assert len(single) == 3


def ensemble_with_leaf_only_tree(alg, rng, p):
    # a fitted ensemble plus, for RF and GBT, one tree that is a single leaf
    X = rng.normal(size=(40, p))
    y = (X[:, 0] - 0.5 * X[:, -1] + rng.normal(scale=0.3, size=40) > 0).astype(int)
    params = {"max_depth": 3} if alg == "DT" else {"n_trees": 3, "max_depth": 3}
    model = clf.fit(alg, X, y, params, seed=int(rng.integers(1 << 30)))
    if alg != "DT":
        model.state.forest.append(leaf(float(rng.normal())))
    return model, X


@pytest.mark.parametrize("alg", ["DT", "RF", "GBT"])
def test_shap_matrix_rows_equal_single_row_path(rng, alg):
    for _ in range(4):
        p = int(rng.integers(2, 7))
        model, X = ensemble_with_leaf_only_tree(alg, rng, p)
        B = X[:int(rng.integers(2, 12))]
        mat = ex.shap_matrix(model, X[:9], B)
        for i in range(9):
            phi, base = one_row(model, X[i], B)
            assert np.max(np.abs(mat.values[i] - phi)) <= 1e-12
            assert base == mat.base
            brute, _ = oracles.shap_bruteforce(ensemble_fn(model), X[i], B)
            assert np.allclose(mat.values[i], brute, atol=1e-9)


def test_shap_matrix_leaf_only_model(rng):
    B = rng.normal(size=(5, 3))
    mat = ex.shap_matrix(manual_dt(leaf(0.3), 3), rng.normal(size=(4, 3)), B)
    assert np.all(mat.values == 0.0) and mat.base == 0.3


@pytest.mark.parametrize("alg", ["DT", "RF", "GBT"])
def test_efficiency_violation_in_one_row_raises(rng, monkeypatch, alg):
    model, X = ensemble_with_leaf_only_tree(alg, rng, 4)
    ex.shap_matrix(model, X[:6], X[6:14])  # consistent as fitted
    real = ex.tree_predict

    def shifted(tree, M):
        out = real(tree, M)
        out[3] += 1e-3  # the model's output moves for explained row 3 only
        return out

    monkeypatch.setattr(ex, "tree_predict", shifted)
    with pytest.raises(ExplainError, match="explained row 3"):
        ex.shap_matrix(model, X[:6], X[6:14])
