"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 13 needs the real
person-course CSV (env var STRATIFY_EDX_CSV or data/person_course.csv) and
skips when it is absent.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from stratify import classifiers as clf
from stratify import cli, clustering, dataset, evaluation, explain, pipeline, synthcohort
from stratify.classifiers import boosting, linear, neural
from stratify.classifiers.boosting import gbt_margin

import oracles
from conftest import summed

EDX_CSV = os.environ.get("STRATIFY_EDX_CSV", "data/person_course.csv")


def report(num, passed, detail=""):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d}: {marker} {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_metric_identities():
    rng = np.random.default_rng(1)
    t0 = time.time()
    checked = 0
    for _ in range(10000):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, 4))
        if tp + fp + fn + tn == 0:
            continue
        cm = evaluation.ConfusionMatrix(tp, fp, fn, tn)
        m = evaluation.metric_set(cm)
        total = tp + fp + fn + tn
        assert m.accuracy == (tp + tn) / total
        assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
        if m.precision + m.recall > 0 and "precision" not in m.undefined \
                and "recall" not in m.undefined:
            assert m.f1 == 2 * m.precision * m.recall / (m.precision + m.recall)
        w = evaluation.weighted_metric_set(cm)
        assert w.recall == pytest.approx(w.accuracy, abs=1e-12)
        checked += 1
    elapsed = time.time() - t0
    report(1, checked > 9900 and elapsed < 5.0,
           f"{checked} random confusion matrices in {elapsed:.2f}s")


def test_criterion_02_auc_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 51))
        y = rng.integers(0, 2, n)
        y[0], y[1] = 0, 1
        scores = np.round(rng.random(n), int(rng.integers(1, 4)))
        got = evaluation.roc_auc(y, scores).auc
        want = oracles.mann_whitney_auc(y.tolist(), scores.tolist())
        worst = max(worst, abs(got - want))
    report(2, worst <= 1e-12, f"max |trapezoid - pair counting| = {worst:.2e}")


def test_criterion_03_kmeans_small_instance_optimality():
    rng = np.random.default_rng(3)
    hits = 0
    for i in range(200):
        n = int(rng.integers(3, 9))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0)
        m = clustering.kmeans_fit(X, 2, seed=int(rng.integers(1 << 30)), n_restarts=50)
        fit_cost = oracles.partition_cost(X, oracles.canonical_two_labels(m.fit_labels))
        best = oracles.best_two_partition_cost(X)
        if fit_cost == best:
            hits += 1
    report(3, hits == 200, f"{hits}/200 instances reached the exhaustive optimum")


def test_criterion_04_validity_index_oracle():
    rng = np.random.default_rng(4)
    simple = {
        "silhouette": oracles.silhouette,
        "calinski_harabasz": oracles.calinski_harabasz,
        "davies_bouldin": oracles.davies_bouldin,
        "dunn": oracles.dunn,
        "c_index": oracles.c_index,
        "mcclain": oracles.mcclain,
        "point_biserial": oracles.point_biserial,
        "ball": oracles.ball,
    }
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 31))
        k = int(rng.integers(2, 5))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        labels = rng.integers(0, k, n)
        labels[:k] = np.arange(k)
        for index_id, oracle in simple.items():
            got = clustering.validity_index(X, labels, index_id)
            want = oracle(X, labels.tolist())
            worst = max(worst, abs(got - want))
        inertias = {}
        for kk in (k - 1, k, k + 1):
            if kk == 0:
                continue
            if kk == k:
                inertias[kk] = oracles.partition_cost(X, labels.tolist())
            else:
                mm = clustering.kmeans_fit(X, kk, seed=0, n_restarts=4)
                inertias[kk] = oracles.partition_cost(X, mm.fit_labels.tolist())
        got = clustering.validity_index(X, labels, "hartigan", inertias=inertias)
        want = oracles.hartigan(inertias[k], inertias[k + 1], n, k)
        worst = max(worst, abs(got - want))
        if k - 1 >= 1:
            got = clustering.validity_index(X, labels, "krzanowski_lai", inertias=inertias)
            want = oracles.krzanowski_lai(inertias[k - 1], inertias[k], inertias[k + 1],
                                          k, X.shape[1])
            if np.isfinite(want):
                worst = max(worst, abs(got - want))
    report(4, worst <= 1e-9, f"max index deviation from brute force = {worst:.2e}")


def test_criterion_05_smote_properties():
    from stratify.resampling import smote

    rng = np.random.default_rng(5)
    total, rebuilt_ok = 0, 0
    for trial in range(25):
        n_min = int(rng.integers(2, 8))
        n_maj = int(rng.integers(n_min + 1, 40))
        X = np.vstack([rng.normal(size=(n_min, 3)), rng.normal(size=(n_maj, 3)) + 2])
        y = np.array([1] * n_min + [0] * n_maj)
        out = smote(X, y, k_neighbors=5, target_ratio=1.0, seed=trial)
        counts = np.bincount(out.y)
        assert counts[0] == counts[1]  # exact post-resampling ratio
        synth = np.flatnonzero(out.synthetic)
        for row, parent, nb, u in zip(synth, out.parent_idx, out.neighbor_idx,
                                      out.interpolation):
            total += 1
            expect = out.X[parent] + u * (out.X[nb] - out.X[parent])
            if expect.tobytes() == out.X[row].tobytes() and 0.0 <= u < 1.0:
                rebuilt_ok += 1
    report(5, total > 0 and rebuilt_ok == total,
           f"{rebuilt_ok}/{total} synthetic rows reconstructed exactly")


def test_criterion_06_gradient_checks():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):  # logistic regression
        n, p = int(rng.integers(4, 25)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, n).astype(float)
        lam = float(rng.uniform(0.01, 2))
        w, b = rng.normal(size=p), float(rng.normal())
        _, gw, gb = linear.lr_loss_grad(w, b, X, y, lam)
        fd = oracles.central_diff_grad(
            lambda th: linear.lr_loss_grad(th[:p], th[p], X, y, lam)[0],
            np.concatenate([w, [b]]))
        analytic = np.concatenate([gw, [gb]])
        worst = max(worst, np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))
    for _ in range(100):  # one-hidden-layer perceptron
        n, p, h = int(rng.integers(4, 12)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, n).astype(float)
        alpha = float(rng.uniform(0.001, 0.5))
        state = neural.init_mlp(p, h, rng)
        _, (gW1, gb1, gW2, gb2) = neural.mlp_loss_grad(state, X, y, alpha)

        def f(theta, p=p, h=h, X=X, y=y, alpha=alpha):
            W1 = theta[:p * h].reshape(p, h)
            b1 = theta[p * h:p * h + h]
            W2 = theta[p * h + h:p * h + 2 * h]
            return neural.mlp_loss_grad(neural.MLPState(W1, b1, W2, float(theta[-1])),
                                        X, y, alpha)[0]

        theta = np.concatenate([state.W1.ravel(), state.b1, state.W2, [state.b2]])
        fd = oracles.central_diff_grad(f, theta)
        analytic = np.concatenate([gW1.ravel(), gb1, gW2, [gb2]])
        worst = max(worst, np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))
    report(6, worst <= 1e-5, f"max relative gradient error = {worst:.2e}")


def test_criterion_07_gbt_loss_and_leaf_weight():
    rng = np.random.default_rng(7)
    monotone = True
    for trial in range(10):
        n = int(rng.integers(30, 120))
        X = rng.normal(size=(n, 4))
        y = ((X[:, 0] - X[:, 1] + rng.normal(scale=0.4, size=n)) > 0).astype(int)
        m = clf.fit("GBT", X, y, {"n_trees": 25, "max_depth": 3, "learning_rate": 0.3}, seed=trial)
        curve = m.meta["loss_curve"]
        monotone &= all(b <= a + 1e-12 * max(1, abs(a)) for a, b in zip(curve, curve[1:]))
    worst = 0.0
    for _ in range(200):
        G = float(rng.uniform(-2, 2))
        H = float(rng.uniform(0.3, 5))
        lam = float(rng.uniform(0, 3))
        numeric = oracles.quadratic_argmin(lambda w: G * w + 0.5 * (H + lam) * w * w)
        worst = max(worst, abs(boosting.leaf_weight(G, H, lam) - numeric))
    report(7, monotone and worst <= 1e-12,
           f"loss monotone={monotone}, max leaf-weight deviation = {worst:.2e}")


def test_criterion_08_shapley():
    rng = np.random.default_rng(8)
    worst_eff, worst_pair, worst_add = 0.0, 0.0, 0.0
    for trial in range(10):
        p = int(rng.integers(2, 8))
        n = int(rng.integers(20, 50))
        X = rng.normal(size=(n, p))
        y = (X[:, 0] + 0.5 * X[:, -1] + rng.normal(scale=0.3, size=n) > 0).astype(int)
        model = clf.fit("GBT", X, y, {"n_trees": 4, "max_depth": 3}, seed=trial)
        B = X[:int(rng.integers(2, 11))]
        fn = lambda M: gbt_margin(model.state, M)
        for i in range(2):
            one = explain.shap_matrix(model, X[i][None], B)
            fast, base_f = one.values[0], one.base
            brute, base_b = oracles.shap_bruteforce(fn, X[i], B)
            worst_pair = max(worst_pair, float(np.max(np.abs(fast - brute))),
                             abs(base_f - base_b))
            fx = float(fn(X[i][None])[0])
            worst_eff = max(worst_eff, abs(base_f + fast.sum() - fx),
                            abs(base_b + brute.sum() - fx))
    for _ in range(10):  # additive closed form
        p = int(rng.integers(2, 6))
        B = rng.normal(size=(8, p))
        x = rng.normal(size=p)
        phi, base = oracles.shap_bruteforce(lambda M: M.sum(axis=1), x, B)
        worst_add = max(worst_add, float(np.max(np.abs(phi - (x - B.mean(axis=0))))))
    ok = worst_eff <= 1e-9 and worst_pair <= 1e-9 and worst_add <= 1e-9
    report(8, ok, f"efficiency {worst_eff:.1e}, fast-vs-brute {worst_pair:.1e}, "
                  f"additive {worst_add:.1e}")


def test_criterion_09_degeneracy_equivalence():
    sample = synthcohort.generate(synthcohort.separated_spec(2), 1200, seed=90)
    shared = dict(seed=90, algorithms=clf.ALGORITHMS, bootstrap_b=0)
    integ_cfg = pipeline.RunConfig(k_fixed=1,
                                   pattern_hparams=(pipeline.DEFAULT_DIRECT_HPARAMS,),
                                   **shared)
    integ = pipeline.run_integration(sample.dataset, integ_cfg)
    direct = pipeline.run_direct(sample.dataset, pipeline.RunConfig(**shared))
    identical = all(
        integ.patterns[0].scores[alg].tobytes() == direct.result.scores[alg].tobytes()
        for alg in clf.ALGORITHMS)
    report(9, identical, "K=1 integration predictions byte-identical to direct "
                         f"for all {len(clf.ALGORITHMS)} algorithms")


def test_criterion_10_accounting_identities():
    sample = synthcohort.generate(synthcohort.separated_spec(2), 2500, seed=10)
    cfg = pipeline.RunConfig(seed=10, k_fixed=2, algorithms=("GBT", "DT"), bootstrap_b=0,
                             kmeans_restarts=3)
    s1 = pipeline.stage1(sample.dataset, cfg)
    integ = pipeline.run_integration(sample.dataset, cfg, s1)
    direct = pipeline.run_direct(sample.dataset, cfg)
    separated = pipeline.separate_by_pattern(direct, s1[1])
    ok = True
    for alg in cfg.algorithms:
        ok &= integ.pooled[alg].cm == summed([p.reports[alg].cm for p in integ.patterns])
        ok &= summed([by_alg[alg].cm for by_alg in separated.values()]) == \
            direct.result.reports[alg].cm
    report(10, ok, "pooled and separated confusion matrices add up exactly")


def test_criterion_11_cramers_v_anchors():
    v_age = evaluation.cramers_v(23.42, 92722, 2, 2)
    v_gender = evaluation.cramers_v(75.66, 92722, 2, 2)
    ok = abs(v_age - 0.016) <= 0.001 and abs(v_gender - 0.029) <= 0.001
    report(11, ok, f"V(23.42)={v_age:.4f}, V(75.66)={v_gender:.4f}")


@pytest.fixture(scope="module")
def benchmark_runs():
    """Criterion 12's 20-seed loop; criterion 14 reuses the first seed."""
    spec = synthcohort.edx_cohort_spec()
    results = []
    t0 = time.time()
    for seed in range(20):
        sample = synthcohort.generate(spec, 92722, seed=seed)
        tp = sample.true_pattern
        cfg = pipeline.RunConfig(seed=seed, algorithms=("GBT",), bootstrap_b=0,
                                 kmeans_restarts=2, kmeans_max_iter=50,
                                 index_sample_cap=1024)
        s1 = pipeline.stage1(sample.dataset, cfg)
        integ = pipeline.run_integration(sample.dataset, cfg, s1)
        direct = pipeline.run_direct(sample.dataset, cfg)
        results.append({
            "seed": seed,
            "winner": s1[2].winner,
            "share1": float((tp == 1).mean()),
            "cert0": float(sample.dataset.y[tp == 0].mean()),
            "cert1": float(sample.dataset.y[tp == 1].mean()),
            "integration_acc": integ.pooled["GBT"].positive.accuracy,
            "direct_acc": direct.result.reports["GBT"].positive.accuracy,
        })
    return results, time.time() - t0


@pytest.mark.slow
def test_criterion_12_synthetic_end_to_end(benchmark_runs):
    results, elapsed = benchmark_runs
    k2 = sum(1 for r in results if r["winner"] == 2)
    prop_ok = all(abs(r["share1"] - 0.0098) <= 0.003 for r in results)
    cert_ok = all(abs(r["cert0"] - 0.0168) <= 0.005 and abs(r["cert1"] - 0.5324) <= 0.05
                  for r in results)
    gbt_wins = sum(1 for r in results if r["integration_acc"] >= r["direct_acc"])
    ok = k2 >= 18 and prop_ok and cert_ok and gbt_wins >= 16 and elapsed < 600
    report(12, ok, f"K=2 in {k2}/20, proportions ok={prop_ok}, rates ok={cert_ok}, "
                   f"GBT wins {gbt_wins}/20, {elapsed:.0f}s")


@pytest.mark.skipif(not Path(EDX_CSV).exists(),
                    reason="public person-course CSV not supplied")
def test_criterion_13_real_dataset():
    t0 = time.time()
    schema = dataset.edx_schema()
    raw = dataset.load_person_course(EDX_CSV, schema)
    cleaned, stats = dataset.clean(raw, schema)
    assert abs(stats.kept - 92722) <= 2000, f"clean kept {stats.kept}"
    ds, _ = dataset.encode(cleaned, schema)
    cfg = pipeline.RunConfig(seed=0, algorithms=("GBT",), bootstrap_b=0)
    s1 = pipeline.stage1(ds, cfg)
    kselect, assignment = s1[2], s1[1]
    assert kselect.winner == 2
    assert kselect.tally.get(2, 0) > sum(c for k, c in kselect.tally.items() if k != 2)
    share0 = assignment.sizes[0] / ds.n
    assert share0 >= 0.98
    cert0 = float(ds.y[assignment.labels == 0].mean())
    cert1 = float(ds.y[assignment.labels == 1].mean())
    assert abs(cert0 - 0.0168) <= 0.01
    assert abs(cert1 - 0.5324) <= 0.08
    integ = pipeline.run_integration(ds, cfg, s1)
    direct = pipeline.run_direct(ds, cfg)
    by_id = {p.pattern_id: p for p in integ.patterns}
    assert by_id[0].reports["GBT"].positive.accuracy >= 0.95
    assert by_id[1].reports["GBT"].auc >= 0.70
    assert integ.pooled["GBT"].positive.accuracy > direct.result.reports["GBT"].positive.accuracy
    elapsed = time.time() - t0
    report(13, elapsed < 900, f"real-data run in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_14_determinism_of_first_seed(tmp_path, benchmark_runs):
    spec = synthcohort.edx_cohort_spec()
    sample = synthcohort.generate(spec, 92722, seed=0)
    data_csv = tmp_path / "data.csv"
    dataset.save_dataset_csv(data_csv, sample.dataset)
    cfg = {"seed": 0, "algorithms": ["GBT"], "bootstrap_b": 0,
           "kmeans": {"restarts": 2, "max_iter": 50, "tol": 1e-6},
           "index_sample_cap": 1024}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    manifests = []
    for rep in ("a", "b"):
        code = cli.main(["run", "--data", str(data_csv), "--config", str(cfg_path),
                         "--out", str(tmp_path / rep)])
        assert code == 0
        manifests.append(json.loads((tmp_path / rep / "manifest.json").read_text()))
    same = manifests[0]["artifacts"] == manifests[1]["artifacts"]
    report(14, same, f"{len(manifests[0]['artifacts'])} artifact checksums identical "
                     "across reruns")
