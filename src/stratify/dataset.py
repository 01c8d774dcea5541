"""Ingestion and preprocessing of person-course style CSV records.

The flow is load -> clean -> encode -> (normalize, split), on whole columns:
``load_person_course`` parses blocks of rows into one numpy array per column
(missing values become NaN or ``None``), so no file is held as one Python object
per cell; ``clean`` drops incomplete or inconsistent rows by masks, ``encode``
turns the survivors into an all-numeric ``LabeledDataset``. Normalization is
min-max to [0, 1], fitted on training rows only; categorical features with more
than two levels are frequency-encoded (share of rows in the fitting table),
two-level ones are mapped to {0, 1}.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import DataError
from .rng import derive_rng

FEATURE_KINDS = ("binary", "count", "continuous", "categorical")
FEATURE_ROLES = ("background", "behavior")

_MISSING_MARKERS = {"", "na", "nan", "null", "none"}
_TRUTHY_FLAGS = {"1", "true", "t", "yes", "y", "incomplete", "inconsistent"}
_BLOCK_ROWS = 8192  # CSV rows parsed or written at a time: bounds the Python objects alive


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
    """One array per column: float64 with NaN for a missing number, or ``str`` objects
    (one object per distinct label) with ``None`` for a missing category. Lists are
    accepted wherever a column is read."""

    columns: dict[str, np.ndarray]

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def take(self, idx) -> "RawTable":
        return RawTable({k: np.asarray(v)[idx] for k, v in self.columns.items()})


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


def _numbers(cells) -> np.ndarray:
    """Numeric cells as float64, NaN for a missing marker; ValueError if one is unparseable.
    NaN stands only for missing: a cell that parses to NaN ("-nan") is stored as +inf,
    which ``clean`` and ``encode`` treat as they would NaN."""
    try:  # a block of plain numbers needs no stripping and no marker test
        vals = np.fromiter(map(float, cells), np.float64, len(cells))
        redo = np.flatnonzero(np.isnan(vals))
    except ValueError:
        vals, redo = np.empty(len(cells)), range(len(cells))
    for i in redo:
        s = cells[i].strip()
        if s.lower() in _MISSING_MARKERS:
            vals[i] = np.nan
        else:
            vals[i] = v if (v := float(s)) == v else np.inf
    return vals


def _labels(cells, seen: dict) -> np.ndarray:
    """Stripped labels, None for a missing marker; a label in ``seen`` reuses its object."""
    label = {}
    for cell in set(cells):
        s = cell.strip()
        label[cell] = None if s.lower() in _MISSING_MARKERS else seen.setdefault(s, s)
    return np.fromiter(map(label.__getitem__, cells), object, len(cells))


def _bad_row(rows, columns: list[str], parse, first_row_no: int) -> DataError | None:
    """The error for the first row of the wrong length or with a cell ``parse`` rejects."""
    for row_no, row in enumerate(rows, first_row_no):
        if len(row) != len(columns):
            return DataError(f"data row {row_no} has {len(row)} cells; expected {len(columns)}")
        for c, cell in zip(columns, row):
            try:
                parse(cell)
            except ValueError:
                return DataError(f"unparseable numeric cell {cell!r} in column {c!r} "
                                 f"at data row {row_no}")
    return None


def load_person_course(path, schema: FeatureSchema) -> RawTable:
    """Read a person-course CSV into a RawTable; no missing-value coercion yet.

    Header must contain every schema column (case-sensitive). Missing cells (a
    marker in any case and padding, or absent from a short row) pass through for
    ``clean`` to drop; a non-missing cell that fails numeric parsing is an error
    reported with its data row number (1-based, blank lines not counted).
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
        labels = {f.name for f in schema.features if f.kind == "categorical"} | set(flags)

        blocks: dict[str, list] = {c: [] for c in wanted}
        seen: dict[str, str] = {}
        pad = [""] * len(header)
        rows = (row + pad[len(row):]  # a short row's missing cells are blank
                for row in reader if "".join(row).strip())  # a blank line is no row
        n_rows = 0
        while block := list(islice(rows, _BLOCK_ROWS)):
            by_column = list(zip(*block))
            cells = {c: by_column[pos[c]] for c in wanted}
            try:
                for c in wanted:
                    blocks[c].append(_labels(cells[c], seen) if c in labels
                                     else _numbers(cells[c]))
            except ValueError:  # name the first bad cell in file order
                numeric = [c for c in wanted if c not in labels]
                raise _bad_row(zip(*(cells[c] for c in numeric)), numeric,
                               lambda cell: _numbers([cell]), n_rows + 1) from None
            n_rows += len(block)
        if n_rows == 0:
            raise DataError("no rows")
    return RawTable({c: np.concatenate(blocks.pop(c)) for c in wanted})


def clean(table: RawTable, schema: FeatureSchema) -> tuple[RawTable, CleanStats]:
    """Drop rows with missing values, truthy quality flags, or invariant violations
    (binary fields or outcome outside {0, 1}, negative counts), counting each row
    under the first that holds. Idempotent. Raises if no row survives.
    """
    kinds = {f.name: f.kind for f in schema.features} | {schema.outcome: "binary"}
    cols = {c: np.asarray(table.columns[c], dtype=object if kind == "categorical" else float)
            for c, kind in kinds.items()}
    missing = np.zeros(table.n_rows, dtype=bool)
    bad = np.zeros_like(missing)
    for c, kind in kinds.items():
        missing |= np.equal(cols[c], None) if kind == "categorical" else np.isnan(cols[c])
        if kind in ("binary", "count"):
            bad |= ((cols[c] != 0.0) & (cols[c] != 1.0)) if kind == "binary" else cols[c] < 0
    flags = [c for c in schema.flag_columns if c in table.columns]
    flagged = np.zeros_like(missing)
    for c in flags:
        col = np.asarray(table.columns[c], dtype=object)
        flagged |= np.isin(col, [v for v in set(col) if v is not None
                                 and str(v).strip().lower() in _TRUTHY_FLAGS])
    flagged &= ~missing
    bad &= ~(missing | flagged)
    keep = np.flatnonzero(~(missing | flagged | bad))
    if len(keep) == 0:
        raise DataError("cleaning dropped all rows")
    # flag columns have served their purpose
    cleaned = RawTable({c: v for c, v in table.columns.items() if c not in flags}).take(keep)
    return cleaned, CleanStats(len(keep), int(missing.sum()), int(flagged.sum()), int(bad.sum()))


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
            values = np.asarray(table.columns[f.name], dtype=object)
            levels = sorted(set(values))
            if len(levels) <= 2:
                enc.mappings[f.name] = {"mode": "binary",
                                        "map": {lv: float(k) for k, lv in enumerate(levels)}}
            else:
                counts = Counter(values)
                enc.mappings[f.name] = {"mode": "frequency",
                                        "map": {lv: counts[lv] / n for lv in levels}}
        return enc

    def transform(self, table: RawTable) -> LabeledDataset:
        n = table.n_rows
        X = np.empty((n, len(self.schema.features)), dtype=np.float64)
        for j, f in enumerate(self.schema.features):
            col = table.columns[f.name]
            if f.kind == "categorical":
                mapping = self.mappings[f.name]["map"]
                try:
                    X[:, j] = np.fromiter(map(mapping.__getitem__, col), np.float64, n)
                except KeyError as e:
                    raise DataError(
                        f"category {e.args[0]!r} in {f.name!r} was not seen when the encoder was fitted")
            else:
                X[:, j] = col
        y = np.asarray(table.columns[self.schema.outcome], dtype=np.int64)
        return LabeledDataset(X, y, self.schema)

    def to_dict(self) -> dict:
        return {"mappings": self.mappings, "schema": self.schema.to_dict()}


def encode(table: RawTable, schema: FeatureSchema) -> tuple[LabeledDataset, Encoder]:
    """Fit encodings on `table` and transform it. Row order does not affect values."""
    enc = Encoder.fit(table, schema)
    return enc.transform(table), enc


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature training min/max for the (x - min) / (max - min) map."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if np.any(self.mins > self.maxs):
            raise DataError("normalizer requires min <= max per feature")


def fit_normalizer(ds: LabeledDataset) -> NormalizationParams:
    if ds.n == 0:
        raise DataError("cannot fit normalizer on empty dataset")
    return NormalizationParams(ds.X.min(axis=0), ds.X.max(axis=0))


def apply_normalizer(params: NormalizationParams, ds: LabeledDataset) -> LabeledDataset:
    """Map each feature through training min/max; constant features go to 0.

    Values are guaranteed in [0, 1] only for the data the params were fitted
    on; unseen rows may land outside and are deliberately not clipped.
    """
    span = params.maxs - params.mins
    safe = np.where(span == 0, 1.0, span)
    Xn = (ds.X - params.mins) / safe
    Xn[:, span == 0] = 0.0
    return LabeledDataset(Xn, ds.y.copy(), ds.schema)


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    test: np.ndarray


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
    return SplitIndices(train, test)


def save_preprocess_sidecar(path, encoder: Encoder) -> None:
    """Persist the schema and categorical encodings so the transform replays
    bit-exactly. Min-max normalization is refit per training split, not stored."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"encoder": encoder.to_dict()}, fh, indent=1, sort_keys=True)


def write_columns_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length arrays as CSV columns, a block of rows at a time; cells go
    through ``tolist()``, so floats print by ``repr`` and integers as integers."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            w.writerows(zip(*(c[start:start + _BLOCK_ROWS].tolist() for c in columns)))


def save_dataset_csv(path, ds: LabeledDataset) -> None:
    write_columns_csv(path, list(ds.feature_names) + [ds.schema.outcome], [*ds.X.T, ds.y])


def load_dataset_csv(path, schema: FeatureSchema) -> LabeledDataset:
    """Read back a numeric dataset written by ``save_dataset_csv``, straight into one
    float64 array. A row of the wrong length or a cell that is not a number is a
    DataError naming its 1-based data row (and the column of a bad cell)."""
    expect = list(schema.feature_names) + [schema.outcome]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != expect:
            raise DataError(f"dataset columns {header} do not match schema {expect}")
        try:
            with warnings.catch_warnings():  # a file without rows is reported as "no rows"
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
            if arr.shape[0] and arr.shape[1] != len(expect):
                raise ValueError(f"{arr.shape[1]} columns")
        except ValueError as e:  # read the file again as text to name the row at fault
            fh.seek(0)
            next(reader)
            raise (_bad_row((row for row in reader if row), expect, float, 1)
                   or DataError(f"unreadable dataset {path}: {e}")) from None
    if arr.shape[0] == 0:
        raise DataError("no rows")
    return LabeledDataset(arr[:, :-1], arr[:, -1].astype(np.int64), schema)
