import numpy as np
import pytest

from stratify import clustering, dataset, synthcohort as sc
from stratify.errors import DataError

import oracles


def test_generation_deterministic():
    spec = sc.separated_spec(2)
    a = sc.generate(spec, 500, seed=4)
    b = sc.generate(spec, 500, seed=4)
    assert a.dataset.X.tobytes() == b.dataset.X.tobytes()
    assert np.array_equal(a.true_pattern, b.true_pattern)
    c = sc.generate(spec, 500, seed=5)
    assert a.dataset.X.tobytes() != c.dataset.X.tobytes()


def test_zero_dispersion_gives_constant_columns():
    spec = sc.separated_spec(2)
    for pat in spec.patterns:
        for gen in pat.features.values():
            if gen.kind in ("count", "continuous"):
                gen.sd = 0.0
                gen.tail_frac = 0.0
            elif gen.kind == "binary":
                gen.p = round(gen.p)
    sample = sc.generate(spec, 300, seed=0)
    for c in range(2):
        rows = sample.true_pattern == c
        block = sample.dataset.X[rows]
        assert np.all(block == block[0])


def test_mixture_weights_within_binomial_bounds():
    spec = sc.separated_spec(2)
    spec.patterns[0].weight = 0.99
    spec.patterns[1].weight = 0.01
    n = 10000
    sample = sc.generate(spec, n, seed=8)
    n1 = int((sample.true_pattern == 1).sum())
    sigma = np.sqrt(n * 0.01 * 0.99)
    assert abs(n1 - n * 0.01) <= 3 * sigma


def test_pattern_feature_means_converge(rng):
    spec = sc.separated_spec(2)
    sample = sc.generate(spec, 12000, seed=3)
    for c, pat in enumerate(spec.patterns):
        rows = sample.true_pattern == c
        m = int(rows.sum())
        for name, gen in pat.features.items():
            if gen.kind != "count" or gen.mean is None or not gen.sd:
                continue
            col = sample.dataset.column(name)[rows]
            se = max(gen.sd, np.sqrt(gen.mean)) / np.sqrt(m)
            assert abs(col.mean() - gen.mean) <= 4 * se + 1e-9, name


def test_planted_patterns_recovered_with_high_ari():
    spec = sc.separated_spec(3, separation=10.0)
    sample = sc.generate(spec, 3000, seed=21)
    norm = dataset.fit_normalizer(sample.dataset)
    Xn = dataset.apply_normalizer(norm, sample.dataset).X
    m = clustering.kmeans_fit(Xn, 3, seed=2)
    a = clustering.sort_patterns_by_size(m.fit_labels, m.k)
    assert oracles.adjusted_rand_index(sample.true_pattern, a.labels) >= 0.95


def test_empty_pattern_flagged_not_raised():
    spec = sc.separated_spec(2)
    spec.patterns[0].weight = 0.999
    spec.patterns[1].weight = 0.001
    sample = sc.generate(spec, 50, seed=1)
    if (sample.true_pattern == 1).sum() == 0:
        assert 1 in sample.empty_patterns
    else:  # the draw can still include the rare pattern; force the degenerate case
        sample2 = sc.generate(spec, 5, seed=3)
        assert isinstance(sample2.empty_patterns, tuple)


def test_outcome_calibration_hits_target():
    spec = sc.separated_spec(2)
    sample = sc.generate(spec, 20000, seed=9)
    for c, pat in enumerate(spec.patterns):
        rows = sample.true_pattern == c
        rate = float(sample.dataset.y[rows].mean())
        target = pat.outcome.target_rate
        se = np.sqrt(target * (1 - target) / rows.sum())
        assert abs(rate - target) <= 4 * se + 1e-9


def test_edx_profile_statistics():
    spec = sc.edx_cohort_spec()
    sample = sc.generate(spec, 92722, seed=0)
    tp = sample.true_pattern
    share1 = float((tp == 1).mean())
    assert abs(share1 - 0.0098) <= 0.003
    cert0 = float(sample.dataset.y[tp == 0].mean())
    cert1 = float(sample.dataset.y[tp == 1].mean())
    assert abs(cert0 - 0.0168) <= 0.005
    assert abs(cert1 - 0.5324) <= 0.05
    # count means line up with the cohort profile
    for name, want in (("ndays_act", 3.28), ("nevents", 94.61), ("nchapters", 2.89)):
        got = float(sample.dataset.column(name)[tp == 0].mean())
        assert got == pytest.approx(want, rel=0.05), name


def test_spec_json_roundtrip(tmp_path):
    spec = sc.edx_cohort_spec()
    path = tmp_path / "spec.json"
    import json
    with open(path, "w") as fh:
        json.dump(spec.to_dict(), fh)
    back = sc.CohortSpec.from_json(path)
    a = sc.generate(spec, 400, seed=11)
    b = sc.generate(back, 400, seed=11)
    assert a.dataset.X.tobytes() == b.dataset.X.tobytes()
    assert np.array_equal(a.dataset.y, b.dataset.y)


def test_save_cohort_csv_roundtrips_through_ingest(tmp_path):
    spec = sc.separated_spec(2)
    sample = sc.generate(spec, 300, seed=6)
    path = tmp_path / "cohort.csv"
    sc.save_cohort_csv(path, sample)
    schema = sample.dataset.schema
    raw = dataset.load_person_course(path, schema)
    cleaned, stats = dataset.clean(raw, schema)
    assert stats.kept == 300 and stats.dropped == 0
    ds, _ = dataset.encode(cleaned, schema)
    assert np.array_equal(ds.y, sample.dataset.y)
    assert ds.X.tobytes() == sample.dataset.X.tobytes()


def test_spec_validation():
    spec = sc.separated_spec(2)
    spec.patterns[0].weight = 0.9
    with pytest.raises(DataError):
        sc.CohortSpec(spec.schema, spec.patterns)
    with pytest.raises(DataError):
        sc.OutcomeModel(weights={})
    with pytest.raises(DataError):
        sc.FeatureGen("binary", p=1.5)
