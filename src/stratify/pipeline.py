"""Orchestration of the two experimental arms.

The per-pattern arm (``run_integration``) clusters first, then splits, balances
and fits within each pattern; the pooled arm (``run_direct``) does one split
over everything. Both arms share one worker (``_run_arm``) and one seed-stream
derivation, so a one-pattern integration run is byte-identical to the direct
run with the same hyperparameters. ``pool_overall``, ``separate_by_pattern``
and ``compare`` produce the cross-arm accounting.

Default hyperparameters carry the benchmark edX study configuration: one set
per discovered pattern (pattern 0 is always the largest cluster) and one for
the pooled arm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import classifiers as clf
from . import clustering, evaluation
from .dataset import LabeledDataset, apply_normalizer, fit_normalizer, stratified_split
from .errors import ConfigError, DataError, EvaluationError, ResamplingError, TrainingError
from .evaluation import ConfusionMatrix, MetricSet, RateDistributions, RocCurve
from .resampling import smote
from .rng import derive_seed

AGE_CUTOFF = 35.0

DEFAULT_PATTERN_HPARAMS = (
    {   # pattern 0: the dominant low-engagement cluster
        "LR": {"reg_factor": 10.0},
        "DT": {"min_split": 2, "min_leaf": 2},
        "RF": {"n_trees": 2, "max_depth": 2, "min_leaf": 13},
        "KNN": {"n_neighbors": 3},
        "MLP": {"alpha": 0.1, "hidden": 50},
        "SVC": {"C": 5.0},
        "GBT": {"max_depth": 5, "n_trees": 50},
    },
    {   # pattern 1: the small highly engaged cluster
        "LR": {"reg_factor": 0.1},
        "DT": {"min_split": 2, "min_leaf": 3},
        "RF": {"n_trees": 200, "max_depth": 7, "min_leaf": 12},
        "KNN": {"n_neighbors": 20},
        "MLP": {"alpha": 0.01, "hidden": 50},
        "SVC": {"C": 5.0},
        "GBT": {"max_depth": 7, "n_trees": 50},
    },
)

DEFAULT_DIRECT_HPARAMS = {
    "LR": {"reg_factor": 10.0},
    "DT": {"min_split": 2, "min_leaf": 1},
    "RF": {"n_trees": 2, "max_depth": 2, "min_leaf": 13},
    "KNN": {"n_neighbors": 2},
    "MLP": {"alpha": 0.1, "hidden": 50},
    "SVC": {"C": 5.0},
    "GBT": {"max_depth": 5, "n_trees": 20},
}

COMPARISON_METRICS = ("accuracy", "precision", "recall", "f1", "auc")


def _location(f) -> tuple:
    # (group, key) of a RunConfig field in the JSON document; group None is top level
    return f.metadata.get("json", (None, f.name))


@dataclass
class RunConfig:
    """The fields and their defaults define the JSON document: each field is a
    top-level key of its name, unless its metadata places it in a group. What
    each field accepts is declared in its annotation and metadata and checked
    by ``classifiers.check_fields``."""

    seed: int = 0
    split_ratio: float = field(default=0.7, metadata={"gt": 0, "lt": 1})
    k_range: tuple[int, int] = field(default=(2, 8), metadata={"ge": 2})
    k_fixed: int | None = field(default=None, metadata={"ge": 1})
    index_set: tuple[str, ...] = field(default=clustering.ALL_INDICES,
                                       metadata={"choices": clustering.ALL_INDICES})
    algorithms: tuple[str, ...] = field(default=clf.ALGORITHMS,
                                        metadata={"choices": clf.ALGORITHMS})
    pattern_hparams: tuple[dict, ...] = DEFAULT_PATTERN_HPARAMS
    direct_hparams: dict = field(default_factory=lambda: dict(DEFAULT_DIRECT_HPARAMS))
    smote_enabled: bool = field(default=True, metadata={"json": ("smote", "enabled")})
    smote_k: int = field(default=5, metadata={"json": ("smote", "k_neighbors"), "ge": 1})
    smote_ratio: float = field(default=1.0, metadata={"json": ("smote", "target_ratio"), "gt": 0})
    bootstrap_b: int = field(default=1000, metadata={"ge": 0})
    kmeans_restarts: int = field(default=10, metadata={"json": ("kmeans", "restarts"), "ge": 1})
    kmeans_max_iter: int = field(default=300, metadata={"json": ("kmeans", "max_iter"), "ge": 1})
    kmeans_tol: float = field(default=1e-6, metadata={"json": ("kmeans", "tol"), "ge": 0})
    index_sample_cap: int = field(default=2048, metadata={"ge": 1})
    threshold: float = field(default=0.5, metadata={"ge": 0, "le": 1})

    def __post_init__(self):
        clf.check_fields(self, ConfigError)
        for hparams in (*self.pattern_hparams, self.direct_hparams):
            for alg, params in hparams.items():
                try:
                    clf.resolve_params(alg, params)
                except TrainingError as e:
                    raise ConfigError(str(e)) from e

    def hparams_for_pattern(self, pattern_id: int) -> dict:
        # patterns beyond the configured list reuse the last entry
        return self.pattern_hparams[min(pattern_id, len(self.pattern_hparams) - 1)]

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            group, key = _location(f)
            # through JSON, so tuples become lists and nested dicts are copies
            value = json.loads(json.dumps(getattr(self, f.name)))
            (out.setdefault(group, {}) if group else out)[key] = value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        groups = {_location(f)[0] for f in fields(cls)} - {None}
        given = {(g, k): v for g in groups for k, v in d.get(g, {}).items()}
        given.update({(None, k): v for k, v in d.items() if k not in groups})
        kwargs = {}
        for f in fields(cls):
            if _location(f) in given:
                value = given.pop(_location(f))
                kwargs[f.name] = tuple(value) if isinstance(f.default, tuple) else value
        if given:
            names = sorted(".".join(filter(None, loc)) for loc in given)
            raise ConfigError(f"unknown config keys: {names}")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class EvaluationReport:
    """Everything measured on one test partition for one model."""

    cm: ConfusionMatrix
    positive: MetricSet
    weighted: MetricSet
    auc: float | None
    roc: RocCurve | None
    rates: RateDistributions | None
    flags: tuple[str, ...] = ()
    n_test: int = 0

    def metric(self, name: str):
        if name == "auc":
            return self.auc
        return self.positive.value(name)

    def to_dict(self) -> dict:
        return {
            "confusion": self.cm.to_dict(),
            "positive": self.positive.to_dict(),
            "weighted": self.weighted.to_dict(),
            "auc": self.auc,
            "flags": list(self.flags),
            "n_test": self.n_test,
        }


def evaluate_predictions(y_true, scores, threshold=0.5, bootstrap_b=0, seed=0) -> EvaluationReport:
    y_true = np.asarray(y_true)
    scores = np.asarray(scores)
    labels = clf.predict_labels(scores, threshold)
    cm = evaluation.confusion(y_true, labels)
    pos = evaluation.metric_set(cm)
    wgt = evaluation.weighted_metric_set(cm)
    flags = []
    roc = None
    auc = None
    rates = None
    if y_true.min() == y_true.max():
        flags.append("single_class_test")
    else:
        roc = evaluation.roc_auc(y_true, scores)
        auc = roc.auc
        if bootstrap_b > 0:
            rates = evaluation.bootstrap_rate_distributions(y_true, labels, bootstrap_b, seed)
    return EvaluationReport(cm, pos, wgt, auc, roc, rates, tuple(flags), len(y_true))


@dataclass
class PatternArmResult:
    pattern_id: int
    rows: np.ndarray          # original dataset row ids in this pattern
    train_rows: np.ndarray    # original ids, training side
    test_rows: np.ndarray
    models: dict
    scores: dict              # algorithm -> test score vector
    reports: dict             # algorithm -> EvaluationReport
    y_test: np.ndarray
    flags: tuple[str, ...] = ()
    n_synthetic: int = 0


@dataclass
class IntegrationRun:
    config: RunConfig
    assignment: clustering.PatternAssignment
    patterns: list[PatternArmResult]
    pooled: dict  # algorithm -> EvaluationReport

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        for p in self.patterns:
            out.extend(f"pattern{p.pattern_id}:{f}" for f in p.flags)
        return tuple(out)


@dataclass
class DirectRun:
    config: RunConfig
    result: PatternArmResult

    @property
    def flags(self) -> tuple[str, ...]:
        return self.result.flags


def _plain_split(n_rows: int, ratio: float, seed: int):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    idx = rng.permutation(n_rows)
    n_train = max(1, min(int(round(ratio * n_rows)), n_rows - 1))
    return np.sort(idx[:n_train]), np.sort(idx[n_train:])


def _run_arm(ds: LabeledDataset, rows: np.ndarray, hparams: dict, config: RunConfig,
             pattern_id: int) -> PatternArmResult:
    """Split, balance, fit and evaluate one row subset. Shared by both arms."""
    flags = []
    sub = ds.take(rows)
    try:
        split = stratified_split(sub, config.split_ratio,
                                 derive_seed(config.seed, "split", pattern_id))
        tr_local, te_local = split.train, split.test
    except DataError:
        # a single-class pattern cannot stratify; fall back and flag it
        flags.append("single_class_pattern")
        tr_local, te_local = _plain_split(sub.n, config.split_ratio,
                                          derive_seed(config.seed, "split", pattern_id))
    train, test = sub.take(tr_local), sub.take(te_local)
    norm = fit_normalizer(train)
    train_n, test_n = apply_normalizer(norm, train), apply_normalizer(norm, test)

    X_fit, y_fit = train_n.X, train_n.y
    n_synth = 0
    if config.smote_enabled:
        try:
            res = smote(X_fit, y_fit, config.smote_k, config.smote_ratio,
                        derive_seed(config.seed, "smote", pattern_id))
            X_fit, y_fit = res.X, res.y
            n_synth = res.n_synthetic
            if res.duplication_fallback:
                flags.append("smote_duplication_fallback")
        except ResamplingError:
            flags.append("smote_skipped_single_class")

    models, scores, reports = {}, {}, {}
    for alg in config.algorithms:
        try:
            model = clf.fit(alg, X_fit, y_fit, hparams.get(alg),
                            seed=derive_seed(config.seed, "fit", pattern_id, alg))
        except TrainingError as e:
            flags.append(f"fit_failed:{alg}:{e}")
            continue
        model.meta["train_row_ids"] = rows[tr_local].tolist()
        s = clf.predict_scores(model, test_n.X)
        models[alg] = model
        scores[alg] = s
        reports[alg] = evaluate_predictions(
            test_n.y, s, config.threshold, config.bootstrap_b,
            derive_seed(config.seed, "boot", pattern_id, alg))
        if "single_class_test" in reports[alg].flags and "single_class_test" not in flags:
            flags.append("single_class_test")
    return PatternArmResult(pattern_id, rows, rows[tr_local], rows[te_local],
                            models, scores, reports, test.y, tuple(flags), n_synth)


def stage1(ds: LabeledDataset, config: RunConfig):
    """Cluster the full normalized feature matrix; pattern 0 is the largest cluster."""
    norm = fit_normalizer(ds)
    Xn = apply_normalizer(norm, ds).X
    kselect = None
    if config.k_fixed is not None:
        model = clustering.kmeans_fit(Xn, config.k_fixed, derive_seed(config.seed, "stage1"),
                                      config.kmeans_restarts, config.kmeans_max_iter,
                                      config.kmeans_tol)
    else:
        kselect, models = clustering.select_k(
            Xn, config.k_range, config.index_set, derive_seed(config.seed, "stage1"),
            config.kmeans_restarts, config.kmeans_max_iter, config.kmeans_tol,
            config.index_sample_cap)
        model = models[kselect.winner]
    assignment = clustering.assign_patterns(model, Xn)
    model, assignment = clustering.sort_patterns_by_size(model, assignment)
    return model, assignment, kselect


def run_integration(ds: LabeledDataset, config: RunConfig,
                    stage1_result=None) -> IntegrationRun:
    """Stage 1 clustering, then an independent split/balance/fit per pattern."""
    _, assignment, _ = stage1_result or stage1(ds, config)
    patterns = []
    for pid in range(assignment.k):
        rows = np.flatnonzero(assignment.labels == pid)
        if len(rows) == 0:
            continue
        patterns.append(_run_arm(ds, rows, config.hparams_for_pattern(pid), config, pid))
    pooled = {alg: pool_overall(patterns, alg, config.threshold) for alg in config.algorithms
              if all(alg in p.reports for p in patterns)}
    return IntegrationRun(config, assignment, patterns, pooled)


def pool_overall(patterns: list[PatternArmResult], algorithm: str,
                 threshold: float = 0.5) -> EvaluationReport:
    """Concatenate per-pattern test predictions and measure once on the union.

    The pooled AUC ranks concatenated scores from per-pattern models; it is a
    ranking over heterogeneous scorers, reported as such.
    """
    seen = set()
    for p in patterns:
        ids = set(p.test_rows.tolist())
        if seen & ids:
            raise EvaluationError("pattern test sets overlap")
        seen |= ids
    y = np.concatenate([p.y_test for p in patterns])
    s = np.concatenate([p.scores[algorithm] for p in patterns])
    return evaluate_predictions(y, s, threshold, bootstrap_b=0)


def run_direct(ds: LabeledDataset, config: RunConfig) -> DirectRun:
    """One pooled split over the full dataset; pattern stream id 0 by construction."""
    rows = np.arange(ds.n)
    return DirectRun(config, _run_arm(ds, rows, config.direct_hparams, config, 0))


def separate_by_pattern(direct: DirectRun, assignment: clustering.PatternAssignment) -> dict:
    """Partition the direct-arm test predictions by pattern label (per-group metrics)."""
    res = direct.result
    if assignment.labels.shape[0] <= res.test_rows.max():
        raise EvaluationError("assignment does not cover the direct test rows")
    labels = assignment.labels[res.test_rows]
    out: dict[int, dict] = {}
    for pid in range(assignment.k):
        mask = labels == pid
        if not mask.any():
            continue
        out[pid] = {}
        for alg, s in res.scores.items():
            out[pid][alg] = evaluate_predictions(res.y_test[mask], s[mask],
                                                 direct.config.threshold, bootstrap_b=0)
    return out


@dataclass
class ComparisonReport:
    overall: dict           # alg -> metric -> {integration, direct, improvement_pct}
    per_pattern: dict       # pid -> alg -> metric -> {...}
    pattern_summary: dict   # pid -> {mean, min, max, n_cells, n_skipped}

    def to_dict(self) -> dict:
        return {"overall": self.overall,
                "per_pattern": {str(k): v for k, v in self.per_pattern.items()},
                "pattern_summary": {str(k): v for k, v in self.pattern_summary.items()}}


def _improvement_cells(int_report: EvaluationReport, dir_report: EvaluationReport):
    cells = {}
    for m in COMPARISON_METRICS:
        iv, dv = int_report.metric(m), dir_report.metric(m)
        cell = {"integration": iv, "direct": dv, "improvement_pct": None}
        if iv is not None and dv is not None and dv != 0 \
                and m not in int_report.positive.undefined \
                and m not in dir_report.positive.undefined:
            cell["improvement_pct"] = 100.0 * (iv - dv) / dv
        cells[m] = cell
    return cells


def compare(integration: IntegrationRun, direct: DirectRun, separated: dict) -> ComparisonReport:
    """Relative improvement of the per-pattern arm over the pooled baseline.

    Overall cells compare pooled integration metrics to the direct run; the
    per-pattern cells compare each pattern's report to the direct predictions
    restricted to that pattern's rows: ``separated``, the result of
    ``separate_by_pattern(direct, integration.assignment)``. Improvements are
    (integration - direct) / direct, skipped where the baseline is zero or
    undefined.
    """
    if integration.config.seed != direct.config.seed:
        raise EvaluationError("runs must share a seed to be comparable")
    overall = {}
    for alg, rep in integration.pooled.items():
        if alg in direct.result.reports:
            overall[alg] = _improvement_cells(rep, direct.result.reports[alg])
    per_pattern: dict[int, dict] = {}
    summary: dict[int, dict] = {}
    for p in integration.patterns:
        pid = p.pattern_id
        if pid not in separated:
            continue
        per_pattern[pid] = {}
        vals = []
        skipped = 0
        for alg, rep in p.reports.items():
            base = separated[pid].get(alg)
            if base is None:
                continue
            cells = _improvement_cells(rep, base)
            per_pattern[pid][alg] = cells
            for m, cell in cells.items():
                if cell["improvement_pct"] is None:
                    skipped += 1
                else:
                    vals.append(cell["improvement_pct"])
        if vals:
            summary[pid] = {"mean": float(np.mean(vals)), "min": float(np.min(vals)),
                            "max": float(np.max(vals)), "n_cells": len(vals),
                            "n_skipped": skipped}
    return ComparisonReport(overall, per_pattern, summary)


def demographics_table(ds: LabeledDataset, assignment: clustering.PatternAssignment):
    """Per-pattern shares of the age and gender groups (age dichotomized at 35,
    computed on raw pre-normalization years), plus 2x2 association tests when
    exactly two patterns exist."""
    names = ds.feature_names
    if "age" not in names or "gender" not in names:
        return None
    age = ds.column("age")
    gender = ds.column("gender")
    rows = []
    for pid in range(assignment.k):
        mask = assignment.labels == pid
        n = int(mask.sum())
        if n == 0:
            continue
        rows.append({
            "pattern": pid, "n": n,
            "pct_age_lt_35": 100.0 * float((age[mask] < AGE_CUTOFF).mean()),
            "pct_age_ge_35": 100.0 * float((age[mask] >= AGE_CUTOFF).mean()),
            "pct_gender_1": 100.0 * float((gender[mask] == 1).mean()),
            "pct_gender_0": 100.0 * float((gender[mask] != 1).mean()),
        })
    assoc = None
    if assignment.k == 2:
        assoc = {}
        for name, vec in (("age_lt_35", age < AGE_CUTOFF), ("gender", gender == 1)):
            t = evaluation.ContingencyTable2x2(
                int(np.sum((assignment.labels == 0) & vec)),
                int(np.sum((assignment.labels == 0) & ~vec)),
                int(np.sum((assignment.labels == 1) & vec)),
                int(np.sum((assignment.labels == 1) & ~vec)))
            try:
                chi2, df, pval = evaluation.chi_square_2x2(t)
                assoc[name] = {"chi2": chi2, "df": df, "p": pval,
                               "cramers_v": evaluation.cramers_v(chi2, t.total, 2, 2)}
            except EvaluationError:
                assoc[name] = {"chi2": None, "df": 1, "p": None, "cramers_v": None}
    return {"rows": rows, "association": assoc}
