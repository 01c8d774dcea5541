import dataclasses
import json

import numpy as np
import pytest

from stratify import classifiers as clf
from stratify import dataset, synthcohort
from stratify.classifiers import boosting, linear, neighbors, neural, svm, trees
from stratify.errors import TrainingError
from stratify.resampling import smote

import oracles

SEPARABLE_X = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0]])
SEPARABLE_Y = np.array([0, 0, 1, 1])

# per-algorithm settings that let every fitter separate the 4-point set
SEPARABLE_PARAMS = {
    "LR": {"max_iter": 3000},
    "MLP": {"learning_rate": 0.1, "max_epochs": 2000, "stop_tol": 0.0, "alpha": 1e-4},
}


def test_gini_examples():
    assert trees.gini_impurity((10, 0)) == 0.0
    assert trees.gini_impurity((5, 5)) == 0.5
    assert trees.gini_impurity((3, 1)) == pytest.approx(0.375)
    with pytest.raises(TrainingError):
        trees.gini_impurity((0, 0))


def dt_root(X, y):
    """The root split of a depth-1 DT: the grower's best split over all rows."""
    return clf.fit("DT", X, y, {"max_depth": 1}, seed=0).state.tree


def test_best_split_example():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    root = dt_root(X, np.array([0, 0, 1, 1]))
    # the recorded gain is the impurity decrease times the node's rows
    assert root.feature == 0 and root.threshold == pytest.approx(1.5)
    assert root.gain / root.n_samples == pytest.approx(0.5)


def test_best_split_none_cases():
    X = np.array([[0.0], [1.0], [2.0]])
    assert dt_root(X, np.array([1, 1, 1])).is_leaf
    const = np.zeros((4, 2))
    assert dt_root(const, np.array([0, 1, 0, 1])).is_leaf


def test_best_split_matches_enumeration(rng):
    def oracle_best(X, y):
        n = len(y)
        parent = oracles_gini(y)
        best = None
        for j in range(X.shape[1]):
            vals = sorted(set(X[:, j]))
            for a, b in zip(vals, vals[1:]):
                thr = (a + b) / 2
                left = y[X[:, j] <= thr]
                right = y[X[:, j] > thr]
                dec = parent - (len(left) * oracles_gini(left)
                                + len(right) * oracles_gini(right)) / n
                if dec > 1e-12 and (best is None or dec > best[2] + 1e-15):
                    best = (j, thr, dec)
        return best

    def oracles_gini(y):
        if len(y) == 0:
            return 0.0
        p = np.mean(y)
        return 1 - p * p - (1 - p) ** 2

    for _ in range(40):
        n = int(rng.integers(4, 20))
        X = np.round(rng.normal(size=(n, 3)), 1)
        y = rng.integers(0, 2, n)
        got = dt_root(X, y)
        want = oracle_best(X, y)
        if want is None:
            assert got.is_leaf
        else:
            assert not got.is_leaf
            assert got.gain / got.n_samples == pytest.approx(want[2], abs=1e-12)


def test_gbt_root_split_matches_enumeration(rng):
    def oracle_best_gain(X, g, h, min_leaf, mcw, lam, gamma):
        best = None
        for j in range(X.shape[1]):
            vals = sorted(set(X[:, j]))
            for a, b in zip(vals, vals[1:]):
                left = X[:, j] <= (a + b) / 2
                if min(left.sum(), (~left).sum()) < min_leaf:
                    continue
                GL, HL = g[left].sum(), h[left].sum()
                GR, HR = g[~left].sum(), h[~left].sum()
                if HL < mcw or HR < mcw:
                    continue
                gain = 0.5 * (GL ** 2 / (HL + lam) + GR ** 2 / (HR + lam)
                              - (GL + GR) ** 2 / (HL + HR + lam)) - gamma
                if gain > 1e-12 and (best is None or gain > best):
                    best = gain
        return best

    checked = 0
    for _ in range(30):
        n = int(rng.integers(6, 30))
        X = np.round(rng.normal(size=(n, 3)), 1)
        y = rng.integers(0, 2, n).astype(float)
        if y.min() == y.max():
            continue
        hp = {"max_depth": 1, "n_trees": 3, "min_leaf": int(rng.integers(1, 5)),
              "min_child_weight": float(rng.choice([0.0, 0.5, 1.0])),
              "reg_lambda": float(rng.choice([0.0, 1.0])),
              "reg_gamma": float(rng.choice([0.0, 0.05]))}
        forest = clf.fit("GBT", X, y, hp, seed=0).state.forest
        margin = np.zeros(n)
        for t in range(hp["n_trees"]):
            prob = linear.sigmoid(margin)
            want = oracle_best_gain(X, prob - y, prob * (1 - prob), hp["min_leaf"],
                                    hp["min_child_weight"], hp["reg_lambda"],
                                    hp["reg_gamma"])
            if t == len(forest):  # boosting stopped: this round fitted nothing
                assert want is None
                break
            root = forest[t]
            if want is None:
                assert root.is_leaf
            else:
                assert not root.is_leaf
                assert root.gain == pytest.approx(want, rel=1e-9, abs=1e-12)
                checked += 1
            margin += trees.tree_predict(root, X)
    assert checked >= 10


def test_split_threshold_between_adjacent_floats():
    # (a + b) / 2 rounds up to b for these neighbours; the threshold must stay
    # below b so that prediction routes rows as the split search did
    a = 0.3
    b = np.nextafter(a, 1.0)
    assert (a + b) / 2 == b
    X = np.array([[a], [a], [b], [b]])
    y = np.array([0, 0, 1, 1])
    dt = clf.fit("DT", X, y, seed=0)
    assert dt.state.tree.threshold == a
    assert np.array_equal(clf.predict_scores(dt, X), y)
    gbt = clf.fit("GBT", X, y, seed=0)
    assert all(t.threshold == a for t in gbt.state.forest if not t.is_leaf)
    refit_loss = linear.log_loss_terms(boosting.gbt_margin(gbt.state, X), y).mean()
    assert refit_loss == pytest.approx(gbt.meta["final_loss"], rel=1e-12)


@pytest.mark.parametrize("alg", clf.ALGORITHMS)
def test_separable_four_points_reach_full_accuracy(alg):
    model = clf.fit(alg, SEPARABLE_X, SEPARABLE_Y, SEPARABLE_PARAMS.get(alg), seed=0)
    scores = clf.predict_scores(model, SEPARABLE_X)
    assert np.array_equal(clf.predict_labels(scores), SEPARABLE_Y)


@pytest.mark.parametrize("alg", clf.ALGORITHMS)
def test_scores_in_unit_interval_and_deterministic(alg, rng):
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + rng.normal(scale=0.5, size=40) > 0).astype(int)
    m1 = clf.fit(alg, X, y, seed=7)
    m2 = clf.fit(alg, X, y, seed=7)
    Xq = rng.normal(size=(25, 3))
    s1, s2 = clf.predict_scores(m1, Xq), clf.predict_scores(m2, Xq)
    assert s1.tobytes() == s2.tobytes()
    assert s1.min() >= 0.0 and s1.max() <= 1.0


def test_single_class_tolerance():
    X = np.arange(8, dtype=float)[:, None]
    ones = np.ones(8, dtype=int)
    dt = clf.fit("DT", X, ones, seed=0)
    assert np.all(clf.predict_scores(dt, X) == 1.0)
    knn = clf.fit("KNN", X, ones, seed=0)
    assert np.all(clf.predict_scores(knn, X) == 1.0)
    for alg in ("LR", "MLP", "SVC", "GBT"):
        with pytest.raises(TrainingError):
            clf.fit(alg, X, ones, seed=0)


def test_nonfinite_features_rejected():
    X = np.array([[0.0], [np.inf]])
    with pytest.raises(TrainingError):
        clf.fit("LR", X, np.array([0, 1]), seed=0)


def test_predict_dimension_mismatch():
    m = clf.fit("DT", SEPARABLE_X, SEPARABLE_Y, seed=0)
    with pytest.raises(TrainingError):
        clf.predict_scores(m, np.zeros((2, 5)))


def test_lr_zero_weights_score_half():
    state = linear.LRState(np.zeros(3), 0.0)
    assert np.all(linear.predict_lr(state, np.random.default_rng(0).normal(size=(5, 3))) == 0.5)


def test_knn_exact_match_k1():
    m = clf.fit("KNN", SEPARABLE_X, SEPARABLE_Y, {"n_neighbors": 1}, seed=0)
    assert clf.predict_scores(m, np.array([[5.0, 0.0]]))[0] == 1.0


def test_knn_vote_tie_follows_nearest():
    X = np.array([[0.0], [0.4], [10.0], [10.4]])
    y = np.array([1, 1, 0, 0])
    m = clf.fit("KNN", X, y, {"n_neighbors": 4}, seed=0)
    s = clf.predict_scores(m, np.array([[0.1], [10.1]]))
    assert clf.predict_labels(s).tolist() == [1, 0]


def test_rf_identical_trees_equal_single_tree(rng):
    X = rng.normal(size=(30, 3))
    y = (X[:, 1] > 0).astype(int)
    params = {"n_trees": 5, "bootstrap": False, "feature_subsample": None, "min_leaf": 2}
    rf = clf.fit("RF", X, y, params, seed=0)
    one = clf.fit("RF", X, y, {**params, "n_trees": 1}, seed=0)
    assert np.allclose(clf.predict_scores(rf, X), clf.predict_scores(one, X))


def test_rf_single_tree_reproduces_dt(rng):
    X = rng.normal(size=(40, 4))
    y = (X[:, 0] - X[:, 2] > 0).astype(int)
    dt = clf.fit("DT", X, y, {"min_split": 2, "min_leaf": 2, "max_depth": 4}, seed=5)
    rf = clf.fit("RF", X, y, {"n_trees": 1, "bootstrap": False, "feature_subsample": None,
                              "min_split": 2, "min_leaf": 2, "max_depth": 4}, seed=5)
    Xq = rng.normal(size=(30, 4))
    assert clf.predict_scores(dt, Xq).tobytes() == clf.predict_scores(rf, Xq).tobytes()


def test_dt_memorizes_training_data(rng):
    X = rng.normal(size=(25, 3))
    y = rng.integers(0, 2, 25)
    y[0], y[1] = 0, 1
    m = clf.fit("DT", X, y, {"min_split": 2, "min_leaf": 1}, seed=0)
    assert np.array_equal(clf.predict_labels(clf.predict_scores(m, X)), y) or \
        np.allclose(clf.predict_scores(m, X), y)


def test_predict_labels_strict_threshold():
    assert clf.predict_labels(np.array([0.5])).tolist() == [0]
    assert clf.predict_labels(np.array([0.51])).tolist() == [1]
    assert clf.predict_labels(np.zeros(3)).tolist() == [0, 0, 0]
    with pytest.raises(TrainingError):
        clf.predict_labels(np.array([1.2]))


def test_lr_gradient_matches_finite_differences(rng):
    for _ in range(10):
        n, p = int(rng.integers(5, 20)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, n).astype(float)
        lam = float(rng.uniform(0.01, 2.0))
        w = rng.normal(size=p)
        b = float(rng.normal())
        _, gw, gb = linear.lr_loss_grad(w, b, X, y, lam)

        def f(theta):
            return linear.lr_loss_grad(theta[:p], theta[p], X, y, lam)[0]

        fd = oracles.central_diff_grad(f, np.concatenate([w, [b]]))
        analytic = np.concatenate([gw, [gb]])
        rel = np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic))
        assert rel <= 1e-5


def _separated2_pattern_arm():
    # one pattern of a separated2 cohort, min-max scaled and balanced by SMOTE
    sample = synthcohort.generate(synthcohort.separated_spec(2), 1500, seed=1)
    pattern = sample.dataset.take(np.flatnonzero(sample.true_pattern == 0))
    ds = dataset.apply_normalizer(dataset.fit_normalizer(pattern), pattern)
    res = smote(ds.X, ds.y, 5, 1.0, seed=1)
    return res.X, res.y


def _edx_cohort():
    sample = synthcohort.generate(synthcohort.edx_cohort_spec(), 20000, seed=0)
    ds = dataset.apply_normalizer(dataset.fit_normalizer(sample.dataset), sample.dataset)
    return ds.X, ds.y


@pytest.mark.parametrize("data", [_separated2_pattern_arm, _edx_cohort],
                         ids=["separated2-arm", "edx-cohort"])
def test_lr_reaches_the_optimum(data):
    X, y = data()
    m = clf.fit("LR", X, y, seed=0)
    lam = 1.0 / m.hyperparams["reg_factor"]
    y = y.astype(np.float64)
    loss, gw, gb = linear.lr_loss_grad(m.state.weights, m.state.bias, X, y, lam)
    oracle = oracles.lr_optimum(X, y, lam)
    assert loss <= oracle + 1e-9 * max(1.0, abs(oracle))
    assert max(np.abs(gw).max(), abs(gb)) <= 1e-6
    assert m.meta["converged"] is True
    assert m.meta["final_loss"] == loss  # the loss at the saved state, bit for bit
    one = clf.fit("LR", X, y, {"max_iter": 1}, seed=0)
    assert one.meta["converged"] is False and one.meta["n_iter"] == 1


def test_mlp_gradient_matches_finite_differences(rng):
    for _ in range(5):
        n, p, h = 8, 3, 4
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, n).astype(float)
        state = neural.init_mlp(p, h, rng)
        alpha = 0.05
        _, (gW1, gb1, gW2, gb2) = neural.mlp_loss_grad(state, X, y, alpha)

        def pack(s):
            return np.concatenate([s.W1.ravel(), s.b1, s.W2, [s.b2]])

        def unpack(theta):
            W1 = theta[:p * h].reshape(p, h)
            b1 = theta[p * h:p * h + h]
            W2 = theta[p * h + h:p * h + 2 * h]
            return neural.MLPState(W1, b1, W2, float(theta[-1]))

        def f(theta):
            return neural.mlp_loss_grad(unpack(theta), X, y, alpha)[0]

        fd = oracles.central_diff_grad(f, pack(state))
        analytic = np.concatenate([gW1.ravel(), gb1, gW2, [gb2]])
        rel = np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic))
        assert rel <= 1e-5


def _separated2_pattern_arm():
    # one pattern of a separated2 cohort, min-max scaled and balanced by SMOTE
    sample = synthcohort.generate(synthcohort.separated_spec(2), 1500, seed=1)
    pattern = sample.dataset.take(np.flatnonzero(sample.true_pattern == 0))
    ds = dataset.apply_normalizer(dataset.fit_normalizer(pattern), pattern)
    res = smote(ds.X, ds.y, 5, 1.0, seed=1)
    return res.X, res.y


def _edx_cohort():
    sample = synthcohort.generate(synthcohort.edx_cohort_spec(), 20000, seed=0)
    ds = dataset.apply_normalizer(dataset.fit_normalizer(sample.dataset), sample.dataset)
    return ds.X, ds.y


@pytest.mark.parametrize("data", [_separated2_pattern_arm, _edx_cohort],
                         ids=["separated2-arm", "edx-cohort"])
def test_lr_reaches_the_optimum(data):
    X, y = data()
    m = clf.fit("LR", X, y, seed=0)
    lam = 1.0 / m.hyperparams["reg_factor"]
    y = y.astype(np.float64)
    loss, gw, gb = linear.lr_loss_grad(m.state.weights, m.state.bias, X, y, lam)
    oracle = oracles.lr_optimum(X, y, lam)
    assert loss <= oracle + 1e-9 * max(1.0, abs(oracle))
    assert max(np.abs(gw).max(), abs(gb)) <= 1e-6
    assert m.meta["converged"] is True
    assert m.meta["final_loss"] == loss  # the loss at the saved state, bit for bit
    one = clf.fit("LR", X, y, {"max_iter": 1}, seed=0)
    assert one.meta["converged"] is False and one.meta["n_iter"] == 1


def test_gbt_leaf_weight_examples_and_oracle(rng):
    assert boosting.leaf_weight(2.0, 4.0, 1.0) == pytest.approx(-0.4)
    for _ in range(20):
        G = float(rng.uniform(-2, 2))
        H = float(rng.uniform(0.5, 5))
        lam = float(rng.uniform(0, 3))
        direct = boosting.leaf_weight(G, H, lam)
        numeric = oracles.quadratic_argmin(lambda w: G * w + 0.5 * (H + lam) * w * w)
        assert direct == pytest.approx(numeric, abs=1e-12)


def test_gbt_loss_monotone_and_curve_recorded(rng):
    X = rng.normal(size=(80, 4))
    y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.3, size=80)) > 0).astype(int)
    m = clf.fit("GBT", X, y, {"n_trees": 30, "max_depth": 3}, seed=1)
    curve = m.meta["loss_curve"]
    assert len(curve) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))


def test_gbt_loss_increase_raises_training_error(rng, monkeypatch):
    # a real check, not an assert, so it survives python -O
    real = boosting.log_loss_terms
    calls = iter(range(1000))
    monkeypatch.setattr(boosting, "log_loss_terms", lambda z, y: real(z, y) + next(calls))
    X = rng.normal(size=(40, 2))
    y = (X[:, 0] > 0).astype(int)
    with pytest.raises(TrainingError, match="boosting loss increased"):
        clf.fit("GBT", X, y, {"n_trees": 5, "max_depth": 2}, seed=0)


def test_gbt_split_gain_positive_requirement(rng):
    X = np.zeros((10, 2))
    y = np.array([0, 1] * 5)
    m = clf.fit("GBT", X, y, {"n_trees": 5, "max_depth": 3}, seed=0)
    # constant features: every tree is a single leaf, boosting stops early
    assert all(t.is_leaf for t in m.state.forest)


def test_svc_computes_each_pair_column_once(rng, monkeypatch):
    # above 2048 rows SVC computes kernel columns on demand; an accepted pair
    # needs column i for K_ij and for the f update, and should compute it once
    n = 2100
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(int)
    requested = []
    real = svm._rbf_columns

    def counting(X_, idx, gamma, sq):
        requested.extend(int(i) for i in idx)
        return real(X_, idx, gamma, sq)

    monkeypatch.setattr(svm, "_rbf_columns", counting)
    clf.fit("SVC", X, y, {"max_sweeps": 2}, seed=0)
    assert len(requested) > n // 2
    assert all(a != b for a, b in zip(requested, requested[1:]))


def test_svc_kkt_conditions_on_separable_instances(rng):
    for trial in range(8):
        n = int(rng.integers(10, 30))
        X = rng.normal(size=(n, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        X[y == 1] += 1.5
        X[y == 0] -= 1.5
        if y.min() == y.max():
            continue
        m = clf.fit("SVC", X, y, {"C": 5.0, "tol": 1e-4, "max_passes": 20,
                                  "max_sweeps": 2000}, seed=trial)
        state = m.state
        margins = svm.decision_function(state, X) * np.where(y == 1, 1.0, -1.0)
        # reconstruct full alpha vector from support set membership
        sv_rows = {tuple(r) for r in state.support_X}
        tol = 1e-3
        for i in range(n):
            yf = margins[i]
            if tuple(X[i]) not in sv_rows:  # alpha == 0
                assert yf >= 1.0 - 1e-2
    # at least the non-support condition holds; boundedness checked via alphas
        assert np.all(np.abs(state.dual_coef) <= 5.0 + 1e-9)


def test_model_serialization_roundtrip_bit_exact(tmp_path, rng):
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    Xq = rng.normal(size=(20, 3))
    for alg in clf.ALGORITHMS:
        m = clf.fit(alg, X, y, seed=3)
        path = tmp_path / f"{alg}.json"
        clf.save_model(path, m)
        back = clf.load_model(path)
        assert back.algorithm == m.algorithm
        assert clf.predict_scores(back, Xq).tobytes() == clf.predict_scores(m, Xq).tobytes()
        again = tmp_path / f"{alg}_again.json"
        clf.save_model(again, back)
        assert again.read_bytes() == path.read_bytes()
    # a GBT file written before base_margin and max_iterations went still loads
    gbt = clf.fit("GBT", X, y, seed=3)
    old = clf.model_to_dict(gbt)
    old["state"]["base_margin"] = 0.0
    old["hyperparams"]["max_iterations"] = 50
    path = tmp_path / "GBT_old.json"
    path.write_text(json.dumps(old, sort_keys=True))
    back = clf.load_model(path)
    assert clf.predict_scores(back, Xq).tobytes() == clf.predict_scores(gbt, Xq).tobytes()


def test_resolve_params_rejects_unknown_keys():
    with pytest.raises(TrainingError):
        clf.fit("GBT", SEPARABLE_X, SEPARABLE_Y, {"bogus": 1}, seed=0)
    with pytest.raises(TrainingError):
        clf.fit("XXX", SEPARABLE_X, SEPARABLE_Y, seed=0)


@pytest.mark.parametrize("alg, params", [
    ("RF", {"feature_subsample": "log2"}),
    ("RF", {"feature_subsample": 0}),
    ("RF", {"feature_subsample": 2.5}),
    ("RF", {"feature_subsample": True}),
    ("RF", {"min_leaf": 0}),
    ("RF", {"min_leaf": -3}),
    ("RF", {"min_split": 0}),
    ("GBT", {"min_leaf": 0}),
    ("GBT", {"min_leaf": -3}),
    # every family: values too low, of the wrong type and non-finite
    ("LR", {"reg_factor": 0.0}),
    ("LR", {"max_iter": 0}),
    ("LR", {"stop_tol": -1.0}),
    ("LR", {"reg_factor": "10"}),
    ("LR", {"max_iter": 5.0}),
    ("LR", {"learning_rate": float("inf")}),
    ("DT", {"min_split": 0}),
    ("DT", {"max_depth": 0}),
    ("DT", {"min_leaf": 1.5}),
    ("DT", {"min_split": True}),
    ("RF", {"n_trees": 0}),
    ("RF", {"max_depth": 0}),
    ("RF", {"n_trees": 2.0}),
    ("RF", {"bootstrap": "yes"}),
    ("KNN", {"n_neighbors": 0}),
    ("KNN", {"n_neighbors": 2.5}),
    ("KNN", {"n_neighbors": "3"}),
    ("MLP", {"hidden": 0}),
    ("MLP", {"batch_size": 0}),
    ("MLP", {"max_epochs": 0}),
    ("MLP", {"learning_rate": -0.1}),
    ("MLP", {"hidden": 50.0}),
    ("MLP", {"activation": "relu"}),
    ("MLP", {"alpha": float("nan")}),
    ("SVC", {"C": 0.0}),
    ("SVC", {"gamma": 0}),
    ("SVC", {"max_sweeps": 0}),
    ("SVC", {"tol": -1.0}),
    ("SVC", {"gamma": "auto"}),
    ("SVC", {"kernel": "linear"}),
    ("SVC", {"C": float("inf")}),
    ("GBT", {"learning_rate": 0.0}),
    ("GBT", {"max_depth": 0}),
    ("GBT", {"reg_gamma": -0.5}),
    ("GBT", {"n_trees": "100"}),
    ("GBT", {"max_depth": 5.5}),
    ("GBT", {"learning_rate": 1e309}),
    ("GBT", {"min_child_weight": float("nan")}),
])
def test_rf_gbt_reject_out_of_range_hyperparameters(alg, params):
    # one table over all seven families, checked before any fit starts
    with pytest.raises(TrainingError, match=next(iter(params))):
        clf.resolve_params(alg, params)
    with pytest.raises(TrainingError):
        clf.fit(alg, SEPARABLE_X, SEPARABLE_Y, params, seed=0)


@pytest.mark.parametrize("alg", clf.ALGORITHMS)
def test_every_family_accepts_its_defaults(alg):
    defaults = dataclasses.asdict(clf.FAMILIES[alg].params())
    assert dataclasses.asdict(clf.resolve_params(alg, defaults)) == defaults


def test_hyperparameters_are_kept_as_given():
    # an int for a float hyperparameter is accepted and saved unconverted
    m = clf.fit("SVC", SEPARABLE_X, SEPARABLE_Y, {"C": 5, "gamma": 1}, seed=0)
    assert m.hyperparams["C"] == 5 and type(m.hyperparams["C"]) is int
    assert json.dumps(clf.model_to_dict(m)["hyperparams"], sort_keys=True).startswith(
        '{"C": 5, "gamma": 1,')


# one non-default value for every hyperparameter of every family
KNOB_VALUES = {
    "LR": {"reg_factor": 0.01, "max_iter": 1},
    "DT": {"min_split": 20, "min_leaf": 10, "max_depth": 2},
    "RF": {"n_trees": 3, "max_depth": 2, "min_leaf": 10, "min_split": 20, "bootstrap": False,
           "feature_subsample": None},
    "KNN": {"n_neighbors": 1},
    "MLP": {"hidden": 5, "alpha": 1.0, "learning_rate": 0.01, "batch_size": 8, "max_epochs": 3,
            "stop_tol": 0.1},
    "SVC": {"C": 0.1, "gamma": 2.0, "tol": 0.5, "max_passes": 1, "max_sweeps": 1},
    "GBT": {"max_depth": 1, "n_trees": 3, "learning_rate": 0.1, "reg_lambda": 10.0,
            "reg_gamma": 1.0, "min_child_weight": 5.0, "min_leaf": 10},
}


@pytest.mark.parametrize("alg", clf.ALGORITHMS)
def test_every_hyperparameter_changes_the_fit(alg):
    # a knob that leaves both the fitted state and the fit's meta unchanged does nothing
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] - X[:, 1] + rng.normal(scale=0.8, size=60) > 0).astype(int)
    defaults = dataclasses.asdict(clf.FAMILIES[alg].params())
    assert set(KNOB_VALUES[alg]) == set(defaults)

    def fitted(params):
        d = clf.model_to_dict(clf.fit(alg, X, y, params, seed=0))
        return json.dumps([d["state"], d["meta"]], sort_keys=True)

    base = fitted(None)
    for key, value in KNOB_VALUES[alg].items():
        assert value != defaults[key], key
        assert fitted({key: value}) != base, key


@pytest.mark.parametrize("subsample", [None, "sqrt", 1, 2])
def test_rf_feature_subsample_accepted_values(subsample):
    m = clf.fit("RF", SEPARABLE_X, SEPARABLE_Y,
                {"n_trees": 3, "feature_subsample": subsample, "min_split": 1}, seed=0)
    assert clf.predict_scores(m, SEPARABLE_X).shape == (4,)


@pytest.mark.parametrize("block_rows", [512, 7, 1])
def test_knn_indices_match_brute_force_order(rng, monkeypatch, block_rows):
    # small-integer coordinates: every distance is exact and ties are dense
    monkeypatch.setattr(neighbors, "BLOCK_ROWS", block_rows)
    for n, p in ((1, 2), (9, 1), (40, 2), (60, 3)):
        X = rng.integers(0, 4, size=(n, p)).astype(float)
        Q = rng.integers(-1, 5, size=(23, p)).astype(float)
        for k in sorted({1, min(3, n), n}):  # k == n keeps every row
            assert neighbors.knn_indices(Q, X, k).tolist() == oracles.knn_order(Q, X, k)
        for k in sorted({min(1, n - 1), min(5, n - 1)} - {0}):  # k < n without self
            got = neighbors.knn_indices(X, X, k, exclude_self=True)
            assert got.tolist() == oracles.knn_order(X, X, k, exclude_self=True)


def test_knn_indices_block_size_from_training_rows(monkeypatch):
    # a block holds at most BLOCK_CELLS distances: fewer query rows per block
    # for a larger training set, the same neighbors
    X = np.repeat(np.arange(5.0)[:, None], 8, axis=0)  # every value 8 times
    Q = np.arange(-1.0, 6.0, 0.5)[:, None]
    want = neighbors.knn_indices(Q, X, 11)
    monkeypatch.setattr(neighbors, "BLOCK_CELLS", 3 * len(X))
    assert np.array_equal(neighbors.knn_indices(Q, X, 11), want)
    assert want.tolist() == oracles.knn_order(2 * Q, 2 * X, 11)


def test_knn_ties_straddle_a_block_boundary(monkeypatch):
    # rows 1-4 of the training set are equidistant from every query; with
    # 3-row blocks the queries asking for them fall in different blocks, and
    # the two lowest-index tied rows (one of each label) must win everywhere
    X = np.array([[9.0, 9.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    y = np.array([1, 0, 1, 1, 0])
    m = clf.fit("KNN", X, y, {"n_neighbors": 2}, seed=0)
    Q = np.zeros((8, 2))
    whole = clf.predict_scores(m, Q)
    monkeypatch.setattr(neighbors, "BLOCK_ROWS", 3)
    blocked = clf.predict_scores(m, Q)
    assert blocked.tobytes() == whole.tobytes()
    # votes rows 1 (label 0) and 2 (label 1): a split vote nudged toward row 1
    assert np.all(blocked == 0.5 - 1e-9)
    assert neighbors.knn_indices(Q, X, 2).tolist() == [[1, 2]] * 8
