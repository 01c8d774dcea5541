import json
import struct
import tracemalloc

import numpy as np
import pytest

from stratify import synthcohort
from stratify.dataset import (Encoder, Feature, FeatureSchema, RawTable, apply_normalizer,
                              clean, edx_schema, encode, fit_normalizer, load_dataset_csv,
                              load_person_course, save_dataset_csv, save_preprocess_sidecar,
                              stratified_split)
from stratify.errors import DataError

import oracles
from conftest import make_dataset, random_labeled

EDX_HEADER = "age,gender,country,viewed,explored,ndays_act,nevents,nplay_video,nchapters,nforum_posts,certified"


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_schema_rejects_duplicate_names():
    with pytest.raises(DataError):
        FeatureSchema((Feature("a", "count", "behavior"), Feature("a", "count", "behavior")), "y")


def test_edx_schema_shape():
    s = edx_schema()
    assert len(s.role_names("background")) == 3
    assert len(s.role_names("behavior")) == 7
    assert s.outcome == "certified"


def test_load_parses_all_schema_columns(tmp_path):
    path = write_csv(tmp_path, EDX_HEADER + "\n30,m,US,1,0,3,10,2,1,0,0\n")
    raw = load_person_course(path, edx_schema())
    assert raw.n_rows == 1
    assert len([c for c in raw.columns if c in edx_schema().columns]) == 11


def test_load_missing_file():
    with pytest.raises(DataError, match="missing file"):
        load_person_course("/nonexistent/nope.csv", edx_schema())


def test_load_missing_column(tmp_path):
    path = write_csv(tmp_path, "age,gender\n30,m\n")
    with pytest.raises(DataError, match="missing column"):
        load_person_course(path, edx_schema())


def test_load_empty_file_is_no_rows(tmp_path):
    with pytest.raises(DataError, match="no rows"):
        load_person_course(write_csv(tmp_path, ""), edx_schema())
    with pytest.raises(DataError, match="no rows"):
        load_person_course(write_csv(tmp_path, EDX_HEADER + "\n"), edx_schema())


def test_load_unparseable_cell_reports_row(tmp_path):
    path = write_csv(tmp_path, EDX_HEADER + "\n30,m,US,1,0,3,10,2,1,0,0\n31,f,US,1,0,x,1,1,1,0,0\n")
    with pytest.raises(DataError, match="row 2"):
        load_person_course(path, edx_schema())


def test_blank_cell_survives_load_then_clean_drops_it(tmp_path):
    path = write_csv(tmp_path, EDX_HEADER + "\n30,m,US,1,0,3,,2,1,0,0\n31,f,US,1,0,3,9,2,1,0,1\n")
    raw = load_person_course(path, edx_schema())
    assert np.isnan(raw.columns["nevents"][0])  # a missing number is NaN
    cleaned, stats = clean(raw, edx_schema())
    assert stats.kept == 1 and stats.dropped_missing == 1


def test_clean_keeps_valid_rows_and_is_idempotent(tmp_path):
    path = write_csv(tmp_path, EDX_HEADER + "\n30,m,US,1,0,3,10,2,1,0,0\n41,f,FR,0,0,0,0,0,0,0,0\n")
    raw = load_person_course(path, edx_schema())
    cleaned, stats = clean(raw, edx_schema())
    assert stats.kept == 2 and stats.dropped == 0
    again, stats2 = clean(cleaned, edx_schema())
    assert again.columns.keys() == cleaned.columns.keys() and stats2.kept == 2
    assert all(np.array_equal(again.columns[c], cleaned.columns[c]) for c in cleaned.columns)


def test_clean_drops_missing_flagged_inconsistent(tmp_path):
    header = EDX_HEADER + ",incomplete_flag"
    rows = [
        "30,m,US,1,0,3,10,2,1,0,0,0",     # fine
        ",m,US,1,0,3,10,2,1,0,0,0",       # missing age
        "30,m,US,1,0,3,10,2,1,0,0,1",     # flagged incomplete
        "30,m,US,2,0,3,10,2,1,0,0,0",     # viewed=2 violates binary invariant
        "30,m,US,1,0,-3,10,2,1,0,0,0",    # negative count
    ]
    raw = load_person_course(write_csv(tmp_path, header + "\n" + "\n".join(rows) + "\n"),
                             edx_schema())
    cleaned, stats = clean(raw, edx_schema())
    assert stats.kept == 1
    assert stats.dropped_missing == 1
    assert stats.dropped_flagged == 1
    assert stats.dropped_inconsistent == 2


def test_clean_all_dropped_errors(tmp_path):
    path = write_csv(tmp_path, EDX_HEADER + "\n,m,US,1,0,3,10,2,1,0,0\n")
    raw = load_person_course(path, edx_schema())
    with pytest.raises(DataError, match="all rows"):
        clean(raw, edx_schema())


def _raw_with_countries(countries):
    n = len(countries)
    cols = {
        "age": [30.0] * n, "gender": ["m"] * n, "country": list(countries),
        "viewed": [1.0] * n, "explored": [0.0] * n, "ndays_act": [1.0] * n,
        "nevents": [1.0] * n, "nplay_video": [0.0] * n, "nchapters": [1.0] * n,
        "nforum_posts": [0.0] * n, "certified": [0.0] * n,
    }
    return RawTable(cols)


def test_encode_frequency_share_matches_hand_division():
    # dominant country at 25839 of 92722 rows encodes to its frequency share
    counts = {"US": 25839, "other": 92722 - 25839}
    countries = ["US"] * counts["US"] + ["other"] * counts["other"]
    # a two-level nominal would be binary-mapped; add a third level to force
    # frequency mode, then check the dominant share
    countries[-1] = "XX"
    raw = _raw_with_countries(countries)
    ds, enc = encode(raw, edx_schema())
    j = ds.feature_names.index("country")
    val = ds.X[0, j]
    assert val == pytest.approx(25839 / 92722, abs=1e-12)
    assert round(val, 4) == 0.2787


def test_encode_two_country_shares():
    raw = _raw_with_countries(["A", "A", "A", "B", "C"])
    ds, enc = encode(raw, edx_schema())
    j = ds.feature_names.index("country")
    assert ds.X[0, j] == pytest.approx(0.6)
    assert ds.X[3, j] == pytest.approx(0.2)


def test_encode_binary_and_counts_pass_through():
    raw = _raw_with_countries(["A", "B", "A", "B", "A"])
    for i, v in enumerate([1.0, 0.0, 1.0, 0.0, 1.0]):
        raw.columns["viewed"][i] = v
        raw.columns["nevents"][i] = 10.0 * i
    ds, _ = encode(raw, edx_schema())
    assert np.array_equal(ds.column("viewed"), [1, 0, 1, 0, 1])
    assert np.array_equal(ds.column("nevents"), [0, 10, 20, 30, 40])


def test_encode_gender_binary_map_is_sorted():
    raw = _raw_with_countries(["A"] * 4)
    raw.columns["gender"] = ["m", "f", "m", "f"]
    ds, enc = encode(raw, edx_schema())
    assert enc.mappings["gender"]["map"] == {"f": 0.0, "m": 1.0}
    assert np.array_equal(ds.column("gender"), [1, 0, 1, 0])


def test_encode_unseen_category_errors():
    raw = _raw_with_countries(["A", "B", "C"])
    _, enc = encode(raw, edx_schema())
    other = _raw_with_countries(["D"])
    with pytest.raises(DataError, match="not seen"):
        enc.transform(other)


def test_encode_order_invariant(rng):
    countries = list(rng.choice(["A", "B", "C", "D"], size=40))
    raw = _raw_with_countries(countries)
    ds, _ = encode(raw, edx_schema())
    perm = rng.permutation(40)
    raw2 = raw.take(perm)
    ds2, _ = encode(raw2, edx_schema())
    assert np.allclose(ds.X[perm], ds2.X)


def test_normalizer_min_max_midpoint_constant():
    ds = make_dataset([[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]], [0, 1, 0])
    params = fit_normalizer(ds)
    out = apply_normalizer(params, ds)
    assert out.X[0, 0] == 0.0 and out.X[1, 0] == 1.0 and out.X[2, 0] == 0.5
    assert np.all(out.X[:, 1] == 0.0)  # constant column maps to 0


def test_normalizer_unit_interval_on_training_data(rng):
    for _ in range(20):
        ds = random_labeled(rng, n=30, p=4)
        out = apply_normalizer(fit_normalizer(ds), ds)
        assert out.X.min() >= 0.0 and out.X.max() <= 1.0


def test_split_small_example_counts():
    X = np.zeros((10, 2))
    y = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    ds = make_dataset(X, y)
    s = stratified_split(ds, 0.7, seed=5)
    assert len(s.train) == 7 and len(s.test) == 3
    assert ds.y[s.train].sum() in (1, 2)


def test_split_deterministic_and_partitioning(rng):
    for trial in range(25):
        ds = random_labeled(rng, n=int(rng.integers(6, 60)), p=2)
        seed = int(rng.integers(0, 1 << 30))
        s1 = stratified_split(ds, 0.7, seed)
        s2 = stratified_split(ds, 0.7, seed)
        assert np.array_equal(s1.train, s2.train) and np.array_equal(s1.test, s2.test)
        union = np.sort(np.concatenate([s1.train, s1.test]))
        assert np.array_equal(union, np.arange(ds.n))
        assert len(np.intersect1d(s1.train, s1.test)) == 0


def test_split_fraction_within_one_sample(rng):
    for _ in range(20):
        ds = random_labeled(rng, n=int(rng.integers(8, 80)), p=2)
        s = stratified_split(ds, 0.7, 3)
        for cls in (0, 1):
            n_cls = int(np.sum(ds.y == cls))
            got = int(np.sum(ds.y[s.train] == cls))
            assert abs(got - 0.7 * n_cls) <= 1.0


def test_split_rejects_bad_ratio_and_single_class():
    ds = make_dataset(np.zeros((6, 2)), [1, 1, 0, 0, 0, 0])
    with pytest.raises(DataError):
        stratified_split(ds, 1.0, 0)
    single = make_dataset(np.zeros((6, 2)), [1, 1, 1, 1, 1, 1])
    with pytest.raises(DataError):
        stratified_split(single, 0.7, 0)


def read_encoder_sidecar(path):
    """Rebuild the Encoder that ``save_preprocess_sidecar`` wrote to path."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"encoder"}  # normalization is refit per split, never stored
    return Encoder(FeatureSchema.from_dict(doc["encoder"]["schema"]), doc["encoder"]["mappings"])


def test_sidecar_roundtrip_bit_exact(tmp_path, rng):
    raw = _raw_with_countries(list(rng.choice(["A", "B", "C"], size=30)))
    raw.columns["age"] = list(rng.normal(35, 8, 30))
    ds, enc = encode(raw, edx_schema())
    side = tmp_path / "preprocess.json"
    save_preprocess_sidecar(side, enc)
    ds2 = read_encoder_sidecar(side).transform(raw)
    assert ds.X.tobytes() == ds2.X.tobytes()
    assert (apply_normalizer(fit_normalizer(ds), ds).X.tobytes()
            == apply_normalizer(fit_normalizer(ds2), ds2).X.tobytes())


def test_dataset_csv_roundtrip(tmp_path, rng):
    ds = random_labeled(rng, n=17, p=3)
    path = tmp_path / "ds.csv"
    save_dataset_csv(path, ds)
    back = load_dataset_csv(path, ds.schema)
    assert back.X.tobytes() == ds.X.tobytes()
    assert np.array_equal(back.y, ds.y)


# ---------------------------------------------------------------------------
# parity with the frozen cell-by-cell CSV path (tests/oracles.py)
# ---------------------------------------------------------------------------

FLAG_COLUMNS = ["incomplete_flag", "inconsistent_flag"]
MISSING = ["", " ", "NA", "na", " Na ", "nan", "NaN", " NAN", "null", "NULL ", "None", " none\t"]
NUMBERS = ["0", "1", " 1 ", "1.0", "-0.0", "0.0", "2", "3", "17", "-3", "0.5", "1e16", "1e-5",
           "5e-324", "2.2250738585072014e-308", "inf", "-inf", "+nan", "-nan", "1_000",
           "1E3", "+2", "\u00a07\u2003"]
BINARY = ["0", "1", "0.0", "1.0", " 1", "-0.0", "2", "0.5", "-1"]
LABELS = ["m", "f", " m", "f ", "o", "C01", "C02", "US", " US", "Na", "N/A", "x, y"]
FLAGS = ["0", "1", "", "true", "True", " T ", "yes", "Y", "no", "incomplete", "INCONSISTENT",
         "0.0", "NA", "f"]
BAD = ["x", "1.2.3", "one", "--1", "1e", "n/a", "0x10"]


def _messy_csv(rng, n_rows, bad_rate):
    """A person-course CSV with shuffled, padded and extra columns, every missing
    marker, short rows, blank lines, truthy flags, inconsistent values and, at
    ``bad_rate``, unparseable numbers."""
    schema = edx_schema()
    kinds = {f.name: f.kind for f in schema.features} | {"certified": "outcome"}
    columns = list(schema.columns) + FLAG_COLUMNS[:int(rng.integers(0, 3))] + ["note"]
    columns = [columns[i] for i in rng.permutation(len(columns))]
    lines = [",".join(f" {c}" if rng.random() < 0.2 else c for c in columns)]
    for _ in range(n_rows):
        if rng.random() < 0.05:
            lines.append(str(rng.choice(["", " ", ",,", " , "])))
            continue
        cells = []
        for c in columns:
            kind = kinds.get(c, "flag" if c in FLAG_COLUMNS else "note")
            r = rng.random()
            if kind in ("categorical", "note"):
                pool = LABELS
            elif kind == "flag":
                pool = FLAGS
            elif r < bad_rate:
                pool = BAD
            elif kind in ("binary", "outcome"):
                pool = BINARY if r < 0.1 else ["0", "1"]
            else:
                pool = NUMBERS if r < 0.03 else [repr(float(v)) for v in rng.normal(30, 10, 4)]
            cells.append(str(rng.choice(MISSING if rng.random() < 0.04 else pool)))
        if rng.random() < 0.03:
            cells = cells[:int(rng.integers(1, len(cells)))]
        lines.append(",".join(f'"{v}"' if "," in v else v for v in cells))
    return "\n".join(lines) + "\n"


def _same_cell(old, new):
    if old is None:
        return new is None or (isinstance(new, float) and np.isnan(new))
    if isinstance(old, str):
        return old == new
    if old != old:  # a non-marker NaN is stored as +inf
        return new == np.inf
    return struct.pack("<d", old) == struct.pack("<d", new)


def _assert_same_table(old, new):
    assert list(old.columns) == list(new.columns)
    for c, col in old.columns.items():
        assert len(col) == len(new.columns[c])
        assert all(_same_cell(a, b) for a, b in zip(col, new.columns[c].tolist())), c


def _outcome(fn):
    try:
        return fn(), None
    except DataError as e:
        return None, str(e)


def _check_parity(path, tmp_path):
    schema = edx_schema()
    old_raw, old_err = _outcome(lambda: oracles.frozen_load_person_course(path, schema))
    new_raw, new_err = _outcome(lambda: load_person_course(path, schema))
    assert old_err == new_err
    if old_err:
        return "load"
    _assert_same_table(old_raw, new_raw)
    old, old_err = _outcome(lambda: oracles.frozen_clean(old_raw, schema))
    new, new_err = _outcome(lambda: clean(new_raw, schema))
    assert old_err == new_err
    if old_err:
        return "clean"
    _assert_same_table(old[0], new[0])
    stats = new[1]
    assert old[1] == (stats.kept, stats.dropped_missing, stats.dropped_flagged,
                      stats.dropped_inconsistent)
    old_enc, old_err = _outcome(lambda: oracles.frozen_encode(old[0], schema))
    new_enc, new_err = _outcome(lambda: encode(new[0], schema))
    assert old_err == new_err
    if old_err:
        return "encode"
    X, y, mappings = old_enc
    ds, enc = new_enc
    assert ds.X.tobytes() == X.tobytes() and ds.y.tobytes() == y.tobytes()
    assert enc.mappings == mappings
    _check_dataset_csv(ds, tmp_path)
    return "ok"


def _check_dataset_csv(ds, tmp_path):
    old_path, new_path = tmp_path / "old.csv", tmp_path / "new.csv"
    oracles.frozen_save_dataset_csv(old_path, ds)
    save_dataset_csv(new_path, ds)
    assert new_path.read_bytes() == old_path.read_bytes()
    X, y = oracles.frozen_load_dataset_csv(old_path, ds.schema)
    back = load_dataset_csv(new_path, ds.schema)
    assert back.X.tobytes() == X.tobytes() == ds.X.tobytes()
    assert back.y.tobytes() == y.tobytes() == ds.y.tobytes()


@pytest.mark.parametrize("bad_rate", [0.0, 0.002])
def test_messy_csv_matches_frozen_cell_by_cell_path(tmp_path, bad_rate):
    rng = np.random.default_rng(20 + int(bad_rate * 1000))
    reached = []
    for trial in range(40):
        path = write_csv(tmp_path, _messy_csv(rng, int(rng.integers(1, 300)), bad_rate))
        reached.append(_check_parity(path, tmp_path))
    # the inputs reach every stage and every error path they can
    assert "ok" in reached and "encode" in reached
    assert ("load" in reached) == (bad_rate > 0)


def test_short_block_boundary_and_first_bad_cell_in_file_order(tmp_path, monkeypatch):
    # several parse blocks; the first bad cell in file order (row by row, then column)
    # is named, although a later row fails in an earlier column
    from stratify import dataset as dataset_mod

    monkeypatch.setattr(dataset_mod, "_BLOCK_ROWS", 7)
    rows = ["30,m,US,1,0,3,10,2,1,0,0"] * 20
    rows[9] = "30,m,US,1,0,3,10,2,one,zero,0"
    rows[11] = "x,m,US,1,0,3,10,2,1,0,0"
    path = write_csv(tmp_path, EDX_HEADER + "\n" + "\n".join(rows) + "\n\n")
    assert _check_parity(path, tmp_path) == "load"
    with pytest.raises(DataError, match="'one' in column 'nchapters' at data row 10"):
        load_person_course(path, edx_schema())
    rows[9] = rows[11] = rows[0]
    rows[13] = "30,m,US,1,0,3,NA,2,1,0,0"
    path = write_csv(tmp_path, EDX_HEADER + "\n" + "\n".join(rows) + "\n")
    assert _check_parity(path, tmp_path) == "ok"


@pytest.mark.parametrize("profile", ["edx", "separated3", "mixed-dtypes"])
def test_generated_cohort_matches_frozen_path(tmp_path, profile):
    spec = (synthcohort.edx_cohort_spec() if profile == "edx"
            else synthcohort.separated_spec(3))
    if profile == "mixed-dtypes":  # integer ages in one pattern, real ones in the others
        spec.patterns[1].features["age"] = synthcohort.FeatureGen("count", mean=40.0, sd=9.0)
    sample = synthcohort.generate(spec, 3000, seed=7)
    schema = sample.dataset.schema
    as_lists = oracles.FrozenTable({c: list(v) for c, v in sample.raw.columns.items()})
    X, y, mappings = oracles.frozen_encode(as_lists, schema)
    assert sample.dataset.X.tobytes() == X.tobytes() and sample.dataset.y.tobytes() == y.tobytes()
    assert sample.encoder.mappings == mappings
    old_path, new_path = tmp_path / "old_cohort.csv", tmp_path / "cohort.csv"
    oracles.frozen_save_cohort_csv(old_path, as_lists.columns, sample.true_pattern, schema)
    synthcohort.save_cohort_csv(new_path, sample)
    assert new_path.read_bytes() == old_path.read_bytes()
    assert _check_parity(new_path, tmp_path) == "ok"
    if profile == "mixed-dtypes":  # each age prints as drawn: integer, or real
        ages = [line.split(",")[0] for line in new_path.read_text().splitlines()[1:]]
        assert all(("." in a) == (p != 1) for a, p in zip(ages, sample.true_pattern))


def test_dataset_csv_round_trips_edge_floats(tmp_path, rng):
    bits = rng.integers(0, 2 ** 63, size=4000, dtype=np.uint64) | (
        rng.integers(0, 2, size=4000, dtype=np.uint64) << np.uint64(63))
    randoms = bits.view(np.float64)
    edges = np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -0.0, 0.0, 1e16, -1e16,
                      1e-5, 1e-4, 9999999999999998.0, 0.1 + 0.2, 1.7976931348623157e308])
    values = np.concatenate([edges, randoms[np.isfinite(randoms)]])
    values = values[:len(values) // 4 * 4].reshape(-1, 4)
    y = rng.integers(0, 2, len(values))
    ds = make_dataset(values[:, :3], y)
    _check_dataset_csv(ds, tmp_path)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def edx_cohort_40k(tmp_path_factory):
    root = tmp_path_factory.mktemp("edx40k")
    sample = synthcohort.generate(synthcohort.edx_cohort_spec(), 40000, seed=1)
    synthcohort.save_cohort_csv(root / "cohort.csv", sample)
    save_dataset_csv(root / "clean.csv", sample.dataset)
    return root


def test_dataset_loader_peak_memory_is_within_twice_its_arrays(edx_cohort_40k):
    # one python float per cell would take about 6x the returned float64 bytes
    ds, peak = _traced_peak(lambda: load_dataset_csv(edx_cohort_40k / "clean.csv", edx_schema()))
    assert ds.n == 40000
    assert peak <= 2.0 * (ds.X.nbytes + ds.y.nbytes)


def test_ingest_peak_memory_is_within_four_times_its_arrays(edx_cohort_40k):
    # load -> clean -> encode holds the raw table, its cleaned copy and the matrix
    # at once; the cell-by-cell path peaked at about 6x the returned bytes
    schema = edx_schema()

    def ingest():
        raw = load_person_course(edx_cohort_40k / "cohort.csv", schema)
        return encode(clean(raw, schema)[0], schema)[0]

    ds, peak = _traced_peak(ingest)
    assert ds.n == 40000
    assert peak <= 4.0 * (ds.X.nbytes + ds.y.nbytes)
