import dataclasses

import numpy as np
import pytest

from stratify import pipeline as pl
from stratify import synthcohort as sc
from stratify.errors import ConfigError, EvaluationError
from stratify.evaluation import ConfusionMatrix

from conftest import make_dataset, summed


def small_cohort(seed=11, n=1200, k=2, weights=None):
    spec = sc.separated_spec(k)
    if weights:
        for pat, w in zip(spec.patterns, weights):
            pat.weight = w
    return sc.generate(spec, n, seed=seed)


def quick_config(**kw):
    base = dict(seed=11, k_fixed=2, algorithms=("GBT", "DT"), bootstrap_b=25,
                kmeans_restarts=3, kmeans_max_iter=80)
    base.update(kw)
    return pl.RunConfig(**base)


def test_run_integration_structure():
    sample = small_cohort()
    cfg = quick_config()
    run = pl.run_integration(sample.dataset, cfg)
    assert run.assignment.k == 2
    assert len(run.patterns) == 2
    for p in run.patterns:
        assert set(p.reports) == {"GBT", "DT"}
        assert len(p.train_rows) + len(p.test_rows) == len(p.rows)
    assert set(run.pooled) == {"GBT", "DT"}


def test_pooled_confusion_is_sum_of_patterns():
    sample = small_cohort()
    cfg = quick_config()
    run = pl.run_integration(sample.dataset, cfg)
    for alg in cfg.algorithms:
        assert run.pooled[alg].cm == summed([p.reports[alg].cm for p in run.patterns])


def test_pool_overall_example_numbers():
    # two patterns with confusions (1,0,0,9) and (4,1,2,3) pool to (5,1,2,12)
    def arm(pattern_id, y, pred, offset):
        rows = np.arange(len(y)) + offset
        return pl.PatternArmResult(pattern_id, rows, rows[:0], rows, {},
                                   {"GBT": np.asarray(pred, dtype=float)},
                                   {}, np.asarray(y))

    a = arm(0, [1] + [0] * 9, [1.0] + [0.0] * 9, 0)
    b = arm(1, [1] * 6 + [0] * 4, [1, 1, 1, 1, 0, 0, 1, 0, 0, 0], 10)
    pooled = pl.pool_overall([a, b], "GBT")
    assert pooled.cm == ConfusionMatrix(tp=5, fp=1, fn=2, tn=12)
    assert pooled.positive.accuracy == pytest.approx(0.85)


def test_pool_overall_rejects_overlap():
    rows = np.arange(4)
    a = pl.PatternArmResult(0, rows, rows[:0], rows, {}, {"GBT": np.zeros(4)},
                            {}, np.array([0, 1, 0, 1]))
    b = pl.PatternArmResult(1, rows, rows[:0], rows, {}, {"GBT": np.zeros(4)},
                            {}, np.array([0, 1, 0, 1]))
    with pytest.raises(EvaluationError):
        pl.pool_overall([a, b], "GBT")


def test_k1_integration_byte_identical_to_direct():
    sample = small_cohort()
    shared = dict(seed=11, algorithms=("GBT", "DT", "LR"), bootstrap_b=0,
                  direct_hparams=pl.DEFAULT_DIRECT_HPARAMS)
    integ_cfg = pl.RunConfig(k_fixed=1, pattern_hparams=(pl.DEFAULT_DIRECT_HPARAMS,), **shared)
    direct_cfg = pl.RunConfig(**shared)
    integ = pl.run_integration(sample.dataset, integ_cfg)
    direct = pl.run_direct(sample.dataset, direct_cfg)
    assert len(integ.patterns) == 1
    p = integ.patterns[0]
    assert np.array_equal(p.train_rows, direct.result.train_rows)
    for alg in shared["algorithms"]:
        assert p.scores[alg].tobytes() == direct.result.scores[alg].tobytes()
        assert p.reports[alg].cm == direct.result.reports[alg].cm


def test_separated_confusions_sum_to_direct():
    sample = small_cohort()
    cfg = quick_config(bootstrap_b=0)
    s1 = pl.stage1(sample.dataset, cfg)
    direct = pl.run_direct(sample.dataset, cfg)
    separated = pl.separate_by_pattern(direct, s1[1])
    for alg in cfg.algorithms:
        assert summed([by_alg[alg].cm for by_alg in separated.values()]) == \
            direct.result.reports[alg].cm


def test_separate_single_group_equals_direct():
    sample = small_cohort()
    cfg = quick_config(bootstrap_b=0, k_fixed=1)
    s1 = pl.stage1(sample.dataset, cfg)
    direct = pl.run_direct(sample.dataset, cfg)
    separated = pl.separate_by_pattern(direct, s1[1])
    assert list(separated) == [0]
    for alg in cfg.algorithms:
        assert separated[0][alg].cm == direct.result.reports[alg].cm


def test_full_pipeline_deterministic():
    sample = small_cohort()
    cfg = quick_config()
    r1 = pl.run_integration(sample.dataset, cfg)
    r2 = pl.run_integration(sample.dataset, cfg)
    for p1, p2 in zip(r1.patterns, r2.patterns):
        for alg in cfg.algorithms:
            assert p1.scores[alg].tobytes() == p2.scores[alg].tobytes()
            assert p1.reports[alg].rates.fpr_samples.tobytes() == \
                p2.reports[alg].rates.fpr_samples.tobytes()


def test_leakage_audit_train_test_disjoint():
    sample = small_cohort()
    cfg = quick_config()
    run = pl.run_integration(sample.dataset, cfg)
    direct = pl.run_direct(sample.dataset, cfg)
    for p in run.patterns + [direct.result]:
        test_set = set(p.test_rows.tolist())
        for alg, model in p.models.items():
            logged = set(model.meta["train_row_ids"])
            assert logged == set(p.train_rows.tolist())
            assert not (logged & test_set)


def test_compare_identical_runs_zero_improvement():
    sample = small_cohort()
    cfg = quick_config(bootstrap_b=0, k_fixed=1,
                       pattern_hparams=(pl.DEFAULT_DIRECT_HPARAMS,))
    integ = pl.run_integration(sample.dataset, cfg)
    direct = pl.run_direct(sample.dataset, pl.RunConfig(
        seed=11, algorithms=cfg.algorithms, bootstrap_b=0))
    comp = pl.compare(integ, direct, pl.separate_by_pattern(direct, integ.assignment))
    for alg, cells in comp.overall.items():
        for metric, cell in cells.items():
            if cell["improvement_pct"] is not None:
                assert cell["improvement_pct"] == pytest.approx(0.0, abs=1e-12)


def test_compare_relative_improvement_arithmetic():
    rep_i = pl.evaluate_predictions(np.array([1, 1, 0, 0] * 25),
                                    np.array([1, 1, 0, 0] * 25, dtype=float))
    cells = pl._improvement_cells(
        dataclasses.replace(rep_i, positive=dataclasses.replace(rep_i.positive, accuracy=0.99)),
        dataclasses.replace(rep_i, positive=dataclasses.replace(rep_i.positive, accuracy=0.90)))
    assert cells["accuracy"]["improvement_pct"] == pytest.approx(10.0)


def test_compare_requires_same_seed():
    sample = small_cohort()
    integ = pl.run_integration(sample.dataset, quick_config(bootstrap_b=0))
    direct = pl.run_direct(sample.dataset, quick_config(seed=99, bootstrap_b=0))
    with pytest.raises(EvaluationError):
        pl.compare(integ, direct, pl.separate_by_pattern(direct, integ.assignment))


def test_single_class_pattern_flagged_not_dropped():
    # two tight planted clusters, one of them entirely negative
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(60, 2)), rng.normal(size=(40, 2)) + 12.0])
    y = np.concatenate([rng.integers(0, 2, 60), np.zeros(40, dtype=int)])
    ds = make_dataset(X, y)
    cfg = pl.RunConfig(seed=1, k_fixed=2, algorithms=("DT",), bootstrap_b=0)
    run = pl.run_integration(ds, cfg)
    flagged = next(p for p in run.patterns if "single_class_pattern" in p.flags)
    assert "DT" in flagged.reports  # still evaluated
    assert "single_class_test" in flagged.reports["DT"].flags
    assert any("single_class" in f for f in run.flags)


@pytest.mark.slow
def test_minority_pattern_gains_more_from_integration():
    # the benchmark-profile cohort has distinct per-pattern outcome models and a
    # tiny engaged pattern; the pooled fit underserves it, so its mean accuracy
    # improvement across seeds should exceed the majority pattern's
    gains = {0: [], 1: []}
    spec = sc.edx_cohort_spec()
    for seed in range(20):
        sample = sc.generate(spec, 15000, seed=seed)
        cfg = pl.RunConfig(seed=seed, k_fixed=2, algorithms=("RF", "GBT"), bootstrap_b=0,
                           kmeans_restarts=3)
        integ = pl.run_integration(sample.dataset, cfg)
        direct = pl.run_direct(sample.dataset, cfg)
        comp = pl.compare(integ, direct, pl.separate_by_pattern(direct, integ.assignment))
        for pid in (0, 1):
            cells = comp.per_pattern.get(pid, {})
            vals = [c["accuracy"]["improvement_pct"] for c in cells.values()
                    if c["accuracy"]["improvement_pct"] is not None]
            if vals:
                gains[pid].append(np.mean(vals))
    assert np.mean(gains[1]) > np.mean(gains[0])


def test_demographics_table_and_association():
    sample = small_cohort(n=2000)
    cfg = quick_config(bootstrap_b=0)
    model, assignment, _ = pl.stage1(sample.dataset, cfg)
    demo = pl.demographics_table(sample.dataset, assignment)
    assert demo is not None
    assert len(demo["rows"]) == 2
    for row in demo["rows"]:
        assert row["pct_age_lt_35"] + row["pct_age_ge_35"] == pytest.approx(100.0)
        assert row["pct_gender_0"] + row["pct_gender_1"] == pytest.approx(100.0)
    assert set(demo["association"]) == {"age_lt_35", "gender"}
    age_assoc = demo["association"]["age_lt_35"]
    assert age_assoc["chi2"] is None or age_assoc["chi2"] >= 0.0


def test_config_json_roundtrip(tmp_path):
    cfg = quick_config(bootstrap_b=123)
    path = tmp_path / "config.json"
    import json
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    back = pl.RunConfig.from_json(path)
    assert back.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bootstrap"):
        pl.RunConfig.from_dict({"bootstrap": 10})
    with pytest.raises(ConfigError, match="kmeans.restart"):
        pl.RunConfig.from_dict({"kmeans": {"restart": 3}})
    assert pl.RunConfig.from_dict({"kmeans": {"restarts": 3}}).kmeans_max_iter == 300


def test_config_rejects_misspelt_hyperparameters():
    with pytest.raises(ConfigError, match="min_splt"):
        pl.RunConfig.from_dict({"direct_hparams": {"DT": {"min_splt": 2}}})
    with pytest.raises(ConfigError, match="n_tree"):
        pl.RunConfig(pattern_hparams=({"RF": {"n_tree": 5}},))
    with pytest.raises(ConfigError, match="leaf_size"):  # removed: it was never read
        pl.RunConfig.from_dict({"direct_hparams": {"KNN": {"leaf_size": 30}}})
    # removed: doubled (GBT), single-valued (SVC, MLP), replaced by Newton's method (LR)
    # or by the SMO solver's pair-update cap (SVC)
    for alg, key, value in REMOVED_KEYS:
        with pytest.raises(ConfigError, match=key):
            pl.RunConfig.from_dict({"direct_hparams": {alg: {key: value}}})


REMOVED_KEYS = (("GBT", "max_iterations", 50), ("SVC", "kernel", "rbf"),
                ("MLP", "activation", "tanh"), ("LR", "stop_tol", 0.002),
                ("LR", "learning_rate", 0.1), ("SVC", "max_passes", 5),
                ("SVC", "max_sweeps", 500))


@pytest.mark.parametrize("doc, key", [
    ({"kmeans": {"restarts": 0}}, "kmeans.restarts"),
    ({"threshold": 2}, "threshold"),
    ({"split_ratio": 1.5}, "split_ratio"),
    ({"bootstrap_b": -5}, "bootstrap_b"),
    ({"seed": 1.5}, "seed"),
    ({"k_range": [5, 2]}, "k_range"),
    ({"k_range": [1, 4]}, "k_range"),
    ({"k_fixed": 0}, "k_fixed"),
    ({"smote": {"k_neighbors": 0}}, "smote.k_neighbors"),
    ({"smote": {"target_ratio": float("inf")}}, "smote.target_ratio"),
    ({"smote": {"enabled": 1}}, "smote.enabled"),
    ({"kmeans": {"tol": -1e-6}}, "kmeans.tol"),
    ({"index_sample_cap": 0}, "index_sample_cap"),
    ({"algorithms": []}, "algorithms"),
    ({"index_set": ["silhouette", "gap"]}, "index_set"),
    ({"pattern_hparams": []}, "pattern_hparams"),
    ({"direct_hparams": {"GBT": {"learning_rate": 1e309}}}, "GBT learning_rate"),
    ({"pattern_hparams": [{"LR": {"reg_factor": "10"}}]}, "LR reg_factor"),
])
def test_config_rejects_out_of_range_values(doc, key):
    with pytest.raises(ConfigError, match=key):
        pl.RunConfig.from_dict(doc)


def test_config_keeps_values_as_given():
    doc = {"seed": 3, "smote": {"target_ratio": 1}, "threshold": 0,
           "direct_hparams": {"SVC": {"C": 5}}}
    out = pl.RunConfig.from_dict(doc).to_dict()
    assert type(out["smote"]["target_ratio"]) is int and type(out["threshold"]) is int
    assert type(out["direct_hparams"]["SVC"]["C"]) is int


def test_docs_config_matches_defaults():
    import json
    import re
    import typing
    from pathlib import Path

    from stratify import classifiers as clf

    doc = (Path(__file__).parent.parent / "docs" / "config.md").read_text()
    block = json.loads(re.search(r"```json\n(.*?)```", doc, re.S).group(1))
    assert pl.RunConfig.from_dict(block).to_dict() == block == pl.RunConfig().to_dict()

    def ranges(cls):
        hints = typing.get_type_hints(cls)
        return {f: clf.describe(hints[f.name], f.metadata) for f in dataclasses.fields(cls)}

    # run fields: | `key` | accepted values |
    documented = dict(re.findall(r"^\| `([\w.]+)` \| (.*) \|$", doc, re.M))
    assert documented == {".".join(filter(None, pl._location(f))): r
                          for f, r in ranges(pl.RunConfig).items()}
    # hyperparameters: | id | `key` | default | accepted values | notes |
    rows = re.findall(r"^\| (\w+) +\| `(\w+)` +\| (\S+) +\| (.*?) +\|", doc, re.M)
    for alg, family in clf.FAMILIES.items():
        defaults = dataclasses.asdict(family.params())
        documented = {key: (json.loads(d), r) for a, key, d, r in rows if a == alg}
        assert documented == {f.name: (defaults[f.name], r)
                              for f, r in ranges(family.params).items()}, alg
