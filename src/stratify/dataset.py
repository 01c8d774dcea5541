"""Ingestion and preprocessing of person-course style CSV records.

The flow is load -> clean -> encode -> (normalize, split). ``load_person_course``
keeps cells raw (missing values become ``None``), ``clean`` drops incomplete or
inconsistent rows, ``encode`` turns the surviving rows into an all-numeric
``LabeledDataset``. Normalization is min-max to [0, 1], fitted on training rows
only; categorical features with more than two levels are frequency-encoded
(share of rows in the fitting table), two-level ones are mapped to {0, 1}.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .rng import derive_rng

FEATURE_KINDS = ("binary", "count", "continuous", "categorical")
FEATURE_ROLES = ("background", "behavior")

_MISSING_MARKERS = {"", "na", "nan", "null", "none"}
_TRUTHY_FLAGS = {"1", "true", "t", "yes", "y", "incomplete", "inconsistent"}


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str
    role: str

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise DataError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.role not in FEATURE_ROLES:
            raise DataError(f"unknown feature role {self.role!r} for {self.name!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature descriptors plus the designated outcome column.

    ``flag_columns`` lists optional row-quality flags: when such a column is
    present in a file, rows with a truthy value in it are dropped by ``clean``.
    """

    features: tuple[Feature, ...]
    outcome: str
    flag_columns: tuple[str, ...] = ()

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        if self.outcome in names:
            raise DataError("outcome column cannot also be a feature")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.feature_names + (self.outcome,)

    def feature(self, name: str) -> Feature:
        for f in self.features:
            if f.name == name:
                return f
        raise KeyError(name)

    def role_names(self, role: str) -> tuple[str, ...]:
        return tuple(f.name for f in self.features if f.role == role)

    def to_dict(self) -> dict:
        return {
            "features": [{"name": f.name, "kind": f.kind, "role": f.role} for f in self.features],
            "outcome": self.outcome,
            "flag_columns": list(self.flag_columns),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        feats = tuple(Feature(x["name"], x["kind"], x["role"]) for x in d["features"])
        return cls(feats, d["outcome"], tuple(d.get("flag_columns", ())))

    @classmethod
    def from_json(cls, path) -> "FeatureSchema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def edx_schema() -> FeatureSchema:
    """Canonical person-course schema: 3 background + 7 behavior features, binary outcome."""
    feats = (
        Feature("age", "continuous", "background"),
        Feature("gender", "categorical", "background"),
        Feature("country", "categorical", "background"),
        Feature("viewed", "binary", "behavior"),
        Feature("explored", "binary", "behavior"),
        Feature("ndays_act", "count", "behavior"),
        Feature("nevents", "count", "behavior"),
        Feature("nplay_video", "count", "behavior"),
        Feature("nchapters", "count", "behavior"),
        Feature("nforum_posts", "count", "behavior"),
    )
    return FeatureSchema(feats, outcome="certified",
                         flag_columns=("incomplete_flag", "inconsistent_flag"))


@dataclass
class RawTable:
    """Column-oriented record table. Cells are python scalars; ``None`` marks missing."""

    columns: dict[str, list]

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def row(self, i: int) -> dict:
        return {k: v[i] for k, v in self.columns.items()}

    def take(self, idx) -> "RawTable":
        return RawTable({k: [v[i] for i in idx] for k, v in self.columns.items()})


@dataclass
class CleanStats:
    kept: int
    dropped_missing: int
    dropped_flagged: int
    dropped_inconsistent: int

    @property
    def dropped(self) -> int:
        return self.dropped_missing + self.dropped_flagged + self.dropped_inconsistent


@dataclass(frozen=True)
class LabeledDataset:
    """Numeric feature matrix, binary label vector and the schema that produced them."""

    X: np.ndarray
    y: np.ndarray
    schema: FeatureSchema

    def __post_init__(self):
        if self.X.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError("label vector length must equal row count")
        if self.X.shape[1] != len(self.schema.features):
            raise DataError("column count must equal schema length")
        if not np.all(np.isfinite(self.X)):
            raise DataError("dataset contains missing or non-finite values")
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.schema.feature_names

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.feature_names.index(name)]

    def take(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx)
        return LabeledDataset(self.X[idx].copy(), self.y[idx].copy(), self.schema)

    def with_features(self, X: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(X, self.y.copy(), self.schema)


def _parse_cell(raw: str, kind: str, row_no: int, col: str):
    s = raw.strip()
    if s.lower() in _MISSING_MARKERS:
        return None
    if kind == "categorical":
        return s
    try:
        val = float(s)
    except ValueError:
        raise DataError(f"unparseable numeric cell {raw!r} in column {col!r} at data row {row_no}")
    return val


def load_person_course(path, schema: FeatureSchema) -> RawTable:
    """Read a person-course CSV into a RawTable; no missing-value coercion yet.

    Header must contain every schema column (case-sensitive). Missing cells pass
    through as ``None`` for ``clean`` to drop; a non-missing cell that fails
    numeric parsing is an error reported with its data row number (1-based).
    """
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

        columns: dict[str, list] = {c: [] for c in wanted}
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
                columns[c].append(_parse_cell(cell, kinds[c], row_no, c))
        if row_no == 0:
            raise DataError("no rows")
    return RawTable(columns)


def _row_is_inconsistent(table: RawTable, schema: FeatureSchema, i: int) -> bool:
    # binary fields outside {0,1} and negative counts violate record invariants
    for f in schema.features:
        v = table.columns[f.name][i]
        if f.kind == "binary" and v not in (0.0, 1.0):
            return True
        if f.kind == "count" and v < 0:
            return True
    if table.columns[schema.outcome][i] not in (0.0, 1.0):
        return True
    return False


def clean(table: RawTable, schema: FeatureSchema) -> tuple[RawTable, CleanStats]:
    """Drop rows with missing values, truthy quality flags, or invariant violations.

    Idempotent: running clean on its own output changes nothing. Raises if no
    row survives.
    """
    flags = [c for c in schema.flag_columns if c in table.columns]
    keep, n_miss, n_flag, n_bad = [], 0, 0, 0
    for i in range(table.n_rows):
        if any(table.columns[c][i] is None for c in schema.columns):
            n_miss += 1
            continue
        flagged = False
        for c in flags:
            v = table.columns[c][i]
            if v is not None and str(v).strip().lower() in _TRUTHY_FLAGS:
                flagged = True
                break
        if flagged:
            n_flag += 1
            continue
        if _row_is_inconsistent(table, schema, i):
            n_bad += 1
            continue
        keep.append(i)
    if not keep:
        raise DataError("cleaning dropped all rows")
    cleaned = table.take(keep)
    # flag columns have served their purpose
    for c in flags:
        del cleaned.columns[c]
    return cleaned, CleanStats(len(keep), n_miss, n_flag, n_bad)


@dataclass
class Encoder:
    """Fitted categorical encodings: two-level maps to {0,1}, wider ones to frequency share."""

    schema: FeatureSchema
    mappings: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def fit(cls, table: RawTable, schema: FeatureSchema) -> "Encoder":
        enc = cls(schema)
        n = table.n_rows
        for f in schema.features:
            if f.kind != "categorical":
                continue
            values = table.columns[f.name]
            levels = sorted(set(values))
            if len(levels) <= 2:
                enc.mappings[f.name] = {"mode": "binary",
                                        "map": {lv: float(k) for k, lv in enumerate(levels)}}
            else:
                counts = {}
                for v in values:
                    counts[v] = counts.get(v, 0) + 1
                enc.mappings[f.name] = {"mode": "frequency",
                                        "map": {lv: c / n for lv, c in sorted(counts.items())}}
        return enc

    def transform(self, table: RawTable) -> LabeledDataset:
        n = table.n_rows
        X = np.empty((n, len(self.schema.features)), dtype=np.float64)
        for j, f in enumerate(self.schema.features):
            col = table.columns[f.name]
            if f.kind == "categorical":
                mapping = self.mappings[f.name]["map"]
                try:
                    X[:, j] = [mapping[v] for v in col]
                except KeyError as e:
                    raise DataError(
                        f"category {e.args[0]!r} in {f.name!r} was not seen when the encoder was fitted")
            else:
                X[:, j] = col
        y = np.asarray(table.columns[self.schema.outcome], dtype=np.int64)
        return LabeledDataset(X, y, self.schema)

    def to_dict(self) -> dict:
        return {"mappings": self.mappings, "schema": self.schema.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "Encoder":
        return cls(FeatureSchema.from_dict(d["schema"]), d["mappings"])


def encode(table: RawTable, schema: FeatureSchema) -> tuple[LabeledDataset, Encoder]:
    """Fit encodings on `table` and transform it. Row order does not affect values."""
    enc = Encoder.fit(table, schema)
    return enc.transform(table), enc


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature training min/max for the (x - min) / (max - min) map."""

    mins: np.ndarray
    maxs: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if np.any(self.mins > self.maxs):
            raise DataError("normalizer requires min <= max per feature")

    def to_dict(self) -> dict:
        # explicit arrays: feature order must survive key-sorting serializers
        return {"features": list(self.feature_names),
                "min": [float(v) for v in self.mins],
                "max": [float(v) for v in self.maxs]}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        return cls(np.array(d["min"], dtype=np.float64),
                   np.array(d["max"], dtype=np.float64),
                   tuple(d["features"]))


def fit_normalizer(ds: LabeledDataset) -> NormalizationParams:
    if ds.n == 0:
        raise DataError("cannot fit normalizer on empty dataset")
    return NormalizationParams(ds.X.min(axis=0), ds.X.max(axis=0), ds.feature_names)


def apply_normalizer(params: NormalizationParams, ds: LabeledDataset) -> LabeledDataset:
    """Map each feature through training min/max; constant features go to 0.

    Values are guaranteed in [0, 1] only for the data the params were fitted
    on; unseen rows may land outside and are deliberately not clipped.
    """
    span = params.maxs - params.mins
    safe = np.where(span == 0, 1.0, span)
    Xn = (ds.X - params.mins) / safe
    Xn[:, span == 0] = 0.0
    return ds.with_features(Xn)


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    test: np.ndarray
    seed: int


def stratified_split(ds: LabeledDataset, ratio: float, seed: int) -> SplitIndices:
    """Class-stratified train/test split, deterministic per seed.

    Each class contributes round(ratio * n_class) training rows (clamped so a
    class with >= 2 rows appears on both sides), which keeps per-class train
    fractions within one sample of `ratio`.
    """
    if not 0.0 < ratio < 1.0:
        raise DataError("split ratio must be in (0, 1); an empty train or test set is useless")
    classes, counts = np.unique(ds.y, return_counts=True)
    if len(classes) < 2:
        raise DataError("stratified split requires both classes present")
    rng = derive_rng(seed, "stratified_split")
    train_parts, test_parts = [], []
    for cls in classes:
        idx = np.flatnonzero(ds.y == cls)
        rng.shuffle(idx)
        n_train = int(round(ratio * len(idx)))
        if len(idx) >= 2:
            n_train = min(max(n_train, 1), len(idx) - 1)
        train_parts.append(idx[:n_train])
        test_parts.append(idx[n_train:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    if len(test) == 0:
        raise DataError("empty test set")
    return SplitIndices(train, test, seed)


def save_preprocess_sidecar(path, encoder: Encoder, norm: NormalizationParams | None) -> None:
    """Persist encodings + normalization so transforms replay bit-exactly."""
    doc = {"encoder": encoder.to_dict(),
           "normalization": norm.to_dict() if norm is not None else None}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_preprocess_sidecar(path) -> tuple[Encoder, NormalizationParams | None]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    norm = doc.get("normalization")
    return (Encoder.from_dict(doc["encoder"]),
            NormalizationParams.from_dict(norm) if norm else None)


def save_dataset_csv(path, ds: LabeledDataset) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(ds.feature_names) + [ds.schema.outcome])
        for i in range(ds.n):
            w.writerow([repr(float(v)) for v in ds.X[i]] + [int(ds.y[i])])


def load_dataset_csv(path, schema: FeatureSchema) -> LabeledDataset:
    """Read back a numeric dataset written by ``save_dataset_csv``."""
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
    return LabeledDataset(arr[:, :-1], arr[:, -1].astype(np.int64), schema)
