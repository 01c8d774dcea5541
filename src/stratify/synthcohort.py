"""Synthetic learner cohorts with planted pattern structure and per-pattern
outcome models. This is the end-to-end verification oracle: clustering should
rediscover well-separated planted patterns, and the per-pattern arm should beat
the pooled arm on cohorts whose outcome models differ across patterns.

Counts are drawn from a negative binomial (over-dispersed, matching the heavy
tails of real activity counts), binaries as Bernoulli, the outcome from a
per-pattern logistic model whose intercept is calibrated by bisection so the
realized certification rate hits its target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .dataset import (Encoder, FeatureSchema, LabeledDataset, RawTable, edx_schema, encode,
                      write_columns_csv)
from .errors import DataError
from .rng import derive_rng

_AGE_BOUNDS = (13.0, 85.0)


@dataclass
class FeatureGen:
    kind: str                 # binary | count | continuous | categorical
    p: float | None = None    # binary success probability
    mean: float | None = None
    sd: float | None = None
    levels: tuple | None = None   # categorical level codes
    probs: tuple | None = None
    clip: tuple | None = None     # optional (lo, hi) for continuous draws
    tail_frac: float = 0.0        # continuous only: fraction drawn uniform over clip
    gate: str | None = None       # earlier binary feature: rows with gate == 0 get 0
                                  # (structural zeros; mean/sd/p are conditional on the gate)

    def __post_init__(self):
        if self.sd is not None and self.sd < 0:
            raise DataError("dispersion must be nonnegative")
        if self.kind == "binary" and not (0 <= self.p <= 1):
            raise DataError("binary probability must lie in [0, 1]")

    def to_dict(self):
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.__dict__.items() if v is not None}

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        for key in ("levels", "probs", "clip"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class OutcomeModel:
    """Logistic outcome over behavior features; intercept solved for target_rate."""

    weights: dict[str, float]
    target_rate: float | None = None
    intercept: float | None = None

    def __post_init__(self):
        if self.target_rate is None and self.intercept is None:
            raise DataError("outcome model needs a target rate or an explicit intercept")
        if self.target_rate is not None and not (0 < self.target_rate < 1):
            raise DataError("target rate must lie strictly inside (0, 1)")


@dataclass
class PatternSpec:
    weight: float
    features: dict[str, FeatureGen]
    outcome: OutcomeModel


@dataclass
class CohortSpec:
    schema: FeatureSchema
    patterns: list[PatternSpec]

    def __post_init__(self):
        total = sum(p.weight for p in self.patterns)
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"pattern weights must sum to 1, got {total}")
        for p in self.patterns:
            if p.weight < 0:
                raise DataError("pattern weights must be nonnegative")
            missing = set(self.schema.feature_names) - set(p.features)
            if missing:
                raise DataError(f"pattern is missing feature generators for {sorted(missing)}")

    def to_dict(self):
        return {
            "schema": self.schema.to_dict(),
            "patterns": [{
                "weight": p.weight,
                "features": {k: g.to_dict() for k, g in p.features.items()},
                "outcome": {"weights": p.outcome.weights,
                            "target_rate": p.outcome.target_rate,
                            "intercept": p.outcome.intercept},
            } for p in self.patterns],
        }

    @classmethod
    def from_dict(cls, d):
        schema = FeatureSchema.from_dict(d["schema"])
        pats = []
        for p in d["patterns"]:
            feats = {k: FeatureGen.from_dict(g) for k, g in p["features"].items()}
            out = OutcomeModel(weights=dict(p["outcome"]["weights"]),
                               target_rate=p["outcome"].get("target_rate"),
                               intercept=p["outcome"].get("intercept"))
            pats.append(PatternSpec(p["weight"], feats, out))
        return cls(schema, pats)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class CohortSample:
    raw: RawTable
    dataset: LabeledDataset
    true_pattern: np.ndarray
    encoder: Encoder
    empty_patterns: tuple[int, ...] = ()


def _draw_feature(gen: FeatureGen, m: int, rng) -> np.ndarray:
    if gen.kind == "binary":
        return (rng.random(m) < gen.p).astype(np.int64)
    if gen.kind == "count":
        mean, sd = gen.mean, gen.sd or 0.0
        if mean is None or mean <= 0:
            return np.zeros(m, dtype=np.int64)
        if sd == 0:
            return np.full(m, round(mean), dtype=np.int64)
        var = sd * sd
        if var > mean:
            # negative binomial with matching mean/variance
            r = mean * mean / (var - mean)
            return rng.negative_binomial(r, r / (r + mean), m)
        return rng.poisson(mean, m)
    if gen.kind == "continuous":
        sd = gen.sd or 0.0
        vals = np.full(m, gen.mean) if sd == 0 else rng.normal(gen.mean, sd, m)
        if gen.tail_frac > 0 and gen.clip is not None:
            # a thin uniform tail over the full support (cohorts have outliers)
            tail = rng.random(m) < gen.tail_frac
            vals = np.where(tail, rng.uniform(gen.clip[0], gen.clip[1], m), vals)
        if gen.clip is not None:
            vals = np.clip(vals, *gen.clip)
        return vals
    if gen.kind == "categorical":
        return rng.choice(np.array(gen.levels, dtype=object), size=m, p=gen.probs)
    raise DataError(f"unknown feature generator kind {gen.kind!r}")


def _feature_scale(gen: FeatureGen) -> tuple[float, float]:
    # standardization constants for the outcome model
    if gen.kind == "binary":
        sd = math.sqrt(gen.p * (1 - gen.p))
        return gen.p, max(sd, 1e-9)
    mean = gen.mean or 0.0
    return mean, max(gen.sd or 0.0, 1e-9)


def calibrate_intercept(shift: np.ndarray, target: float) -> float:
    """Bisection on b so that mean(sigmoid(b + shift)) == target."""
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        rate = float(np.mean(1.0 / (1.0 + np.exp(-(mid + shift)))))
        if rate < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return (lo + hi) / 2.0


def generate(spec: CohortSpec, n: int, seed: int) -> CohortSample:
    """Draw a cohort of n rows; deterministic per seed.

    Returns the raw code-valued table, the encoded numeric dataset, and the
    true pattern label per row. Patterns that end up empty are flagged, not
    raised.
    """
    if n < 1:
        raise DataError("cohort size must be positive")
    k = len(spec.patterns)
    weights = np.array([p.weight for p in spec.patterns])
    assign = derive_rng(seed, "assign").choice(k, size=n, p=weights)
    schema = spec.schema

    columns: dict[str, np.ndarray] = {}
    empty = tuple(int(c) for c in range(k) if not np.any(assign == c))

    for c in range(k):
        rows = np.flatnonzero(assign == c)
        m = len(rows)
        if m == 0:
            continue
        pat = spec.patterns[c]
        values = {}
        for name in schema.feature_names:
            gen = pat.features[name]
            vals = _draw_feature(gen, m, derive_rng(seed, "feature", c, name))
            if gen.gate is not None:
                if gen.gate not in values:
                    raise DataError(f"gate {gen.gate!r} must be generated before {name!r}")
                vals = vals * np.asarray(values[gen.gate])
            values[name] = vals
            _store(columns, name, rows, vals, n)
        # outcome: logistic over standardized behavior features
        shift = np.zeros(m)
        for name, w in pat.outcome.weights.items():
            if w == 0.0:
                continue
            center, scale = _feature_scale(pat.features[name])
            shift += w * (np.asarray(values[name], dtype=np.float64) - center) / scale
        b = (pat.outcome.intercept if pat.outcome.intercept is not None
             else calibrate_intercept(shift, pat.outcome.target_rate))
        prob = 1.0 / (1.0 + np.exp(-(b + shift)))
        draws = derive_rng(seed, "outcome", c).random(m)
        _store(columns, schema.outcome, rows, (draws < prob).astype(np.int64), n)

    raw = RawTable(columns)
    dataset, encoder = encode(raw, schema)
    return CohortSample(raw, dataset, assign.astype(np.int64), encoder, empty)


def _store(columns: dict, name: str, rows: np.ndarray, vals: np.ndarray, n: int) -> None:
    # one pattern's draws go to their rows with one slice; patterns whose draws differ
    # in dtype share an object column, so each cell still prints as its draw did
    col = columns.get(name)
    if col is None:
        col = columns[name] = np.empty(n, dtype=vals.dtype)
    elif col.dtype != vals.dtype:
        col = columns[name] = col.astype(object)
    col[rows] = vals


def save_cohort_csv(path, sample: CohortSample) -> None:
    """Cohort in the ingestion schema plus a true_pattern column."""
    schema = sample.dataset.schema
    write_columns_csv(path, list(schema.columns) + ["true_pattern"],
                      [sample.raw.columns[c] for c in schema.columns] + [sample.true_pattern])


# ---------------------------------------------------------------------------
# canned specs
# ---------------------------------------------------------------------------

def _split_dispersion(mus, weights, global_sd):
    """Allocate per-pattern sd so the mixture reproduces a global sd.

    within-variance = global^2 - between-variance; the within part is spread
    across patterns at equal coefficient of variation.
    """
    mus = np.asarray(mus, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    mbar = float(w @ mus)
    between = float(w @ (mus - mbar) ** 2)
    within = max(global_sd * global_sd - between, 0.0)
    denom = float(w @ mus ** 2)
    if denom <= 0 or within <= 0:
        return [0.0] * len(mus)
    c = math.sqrt(within / denom)
    return [float(c * mu) for mu in mus]


def _age_gen(share_under_35: float, sd: float = 7.97, tail_frac: float = 0.005) -> FeatureGen:
    mean = 35.0 - sd * NormalDist().inv_cdf(share_under_35)
    return FeatureGen("continuous", mean=mean, sd=sd, clip=_AGE_BOUNDS, tail_frac=tail_frac)


def edx_cohort_spec() -> CohortSpec:
    """Two-pattern cohort profile matching the published edX person-course study:
    a 99.02% low-engagement pattern certifying at 1.68% and a 0.98% highly
    engaged pattern certifying at 53.24%, with activity-count means per pattern
    and dispersions backed out of the global sds (coefficient of variation
    capped so the engaged pattern stays compact).

    The planted split has to be the dominant geometry under min-max scaling,
    so demographics other than age are constant and the engagement binaries
    separate the patterns instead of varying within them; mid-range binary
    shares would otherwise carve the cohort into discrete sub-cells that
    out-compete the pattern structure for every K.
    """
    weights = (0.9902, 0.0098)
    counts = {  # feature: (mean pattern 0, mean pattern 1, global sd)
        "ndays_act": (3.28, 41.72, 6.83),
        "nevents": (94.61, 5855.63, 715.50),
        "nplay_video": (23.06, 1022.94, 166.75),
        "nchapters": (2.89, 14.25, 3.72),
        "nforum_posts": (0.01, 0.10, 0.14),
    }
    cv_cap = 0.35
    explored = {0: 0.0, 1: 0.9286}
    age = {0: _age_gen(0.5125), 1: _age_gen(0.4314)}
    outcome = {
        0: OutcomeModel(weights={"ndays_act": 0.8, "nevents": 0.8, "nplay_video": -0.5,
                                 "nchapters": 1.5, "nforum_posts": 0.1},
                        target_rate=0.0168),
        1: OutcomeModel(weights={"explored": 0.2, "ndays_act": 0.8, "nevents": 0.8,
                                 "nchapters": 1.0, "nforum_posts": 0.1},
                        target_rate=0.5324),
    }
    patterns = []
    for c in range(2):
        feats = {
            "age": age[c],
            "gender": FeatureGen("categorical", levels=("m",), probs=(1.0,)),
            "country": FeatureGen("categorical", levels=("C01",), probs=(1.0,)),
            "viewed": FeatureGen("binary", p=1.0),
            "explored": FeatureGen("binary", p=explored[c]),
        }
        for name, (m0, m1, gsd) in counts.items():
            mean = (m0, m1)[c]
            sd = min(_split_dispersion((m0, m1), weights, gsd)[c], cv_cap * mean)
            feats[name] = FeatureGen("count", mean=mean, sd=sd)
        patterns.append(PatternSpec(weights[c], feats, outcome[c]))
    return CohortSpec(edx_schema(), patterns)


def separated_spec(n_patterns: int = 3, separation: float = 10.0) -> CohortSpec:
    """Planted, well-separated patterns for recovery tests.

    Count means step by `separation` within-pattern standard deviations, and
    the two behavior binaries form a near-deterministic staircase, so K-means
    on normalized features should recover the partition almost exactly. The
    outcome models alternate the sign of the video-count weight, which gives
    per-pattern modeling a real edge over the pooled fit.
    """
    if n_patterns < 1:
        raise DataError("need at least one pattern")
    base = {"ndays_act": (10.0, 2.0), "nevents": (50.0, 8.0), "nplay_video": (20.0, 4.0),
            "nchapters": (8.0, 1.5), "nforum_posts": (3.0, 1.0)}
    # demographics are constant so the planted structure is the only clusterable
    # signal; the behavior binaries form a deterministic staircase across patterns
    weights = [1.0 / n_patterns] * n_patterns
    weights[-1] = 1.0 - sum(weights[:-1])
    patterns = []
    for c in range(n_patterns):
        feats = {
            "age": FeatureGen("continuous", mean=37.0, sd=8.0, clip=_AGE_BOUNDS),
            "gender": FeatureGen("categorical", levels=("m",), probs=(1.0,)),
            "country": FeatureGen("categorical", levels=("C01",), probs=(1.0,)),
            "viewed": FeatureGen("binary", p=1.0 if c >= 1 else 0.0),
            "explored": FeatureGen("binary", p=1.0 if c >= 2 else 0.0),
        }
        for name, (m0, sd) in base.items():
            feats[name] = FeatureGen("count", mean=m0 + c * separation * sd, sd=sd)
        rate = 0.15 + 0.6 * (c / max(n_patterns - 1, 1))
        out = OutcomeModel(weights={"nchapters": 1.0, "ndays_act": 0.7, "nevents": 0.5,
                                    "nplay_video": 0.6 if c % 2 == 0 else -0.6},
                           target_rate=rate)
        patterns.append(PatternSpec(weights[c], feats, out))
    return CohortSpec(edx_schema(), patterns)
