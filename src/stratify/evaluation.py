"""Measurement machinery: confusion counts, the four headline metrics in both the
positive-class and support-weighted conventions, ROC/AUC, bootstrap FPR/TPR
distributions, and 2x2 association tests (Pearson chi-square, Cramer's V).

Both metric views are always reported because published tables in this domain
mix the two conventions; weighted recall collapses to accuracy algebraically,
which doubles as a cheap self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .rng import derive_rng


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    precision: float
    recall: float
    f1: float
    undefined: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "f1": self.f1, "undefined": list(self.undefined)}

    def value(self, name: str) -> float:
        return getattr(self, name)


def confusion(y_true, y_pred) -> ConfusionMatrix:
    """Exact confusion counts for binary labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise EvaluationError("label vectors must be 1-D and of equal length")
    if y_true.size == 0:
        raise EvaluationError("empty label vectors")
    for v in (y_true, y_pred):
        if not np.isin(v, (0, 1)).all():
            raise EvaluationError("labels must be binary 0/1")
    t, p = y_true.astype(bool), y_pred.astype(bool)
    return ConfusionMatrix(tp=int(np.sum(t & p)), fp=int(np.sum(~t & p)),
                           fn=int(np.sum(t & ~p)), tn=int(np.sum(~t & ~p)))


def _ratio(num: int, den: int, name: str, undefined: list) -> float:
    if den == 0:
        undefined.append(name)
        return 0.0
    return num / den


def metric_set(cm: ConfusionMatrix) -> MetricSet:
    """Positive-class accuracy / precision / recall / F1.

    A zero denominator sets the metric to 0 and records it in ``undefined``
    rather than raising.
    """
    if cm.total == 0:
        raise EvaluationError("empty confusion matrix")
    undefined: list[str] = []
    acc = (cm.tp + cm.tn) / cm.total
    prec = _ratio(cm.tp, cm.tp + cm.fp, "precision", undefined)
    rec = _ratio(cm.tp, cm.tp + cm.fn, "recall", undefined)
    if "precision" in undefined or "recall" in undefined or prec + rec == 0:
        undefined.append("f1")
        f1 = 0.0
    else:
        f1 = 2 * prec * rec / (prec + rec)
    return MetricSet(acc, prec, rec, f1, tuple(undefined))


def weighted_metric_set(cm: ConfusionMatrix) -> MetricSet:
    """Support-weighted average of per-class metrics (each class as positive in turn).

    Weighted recall equals accuracy identically: sum_c (n_c/n) * recall_c is
    just correct/n.
    """
    if cm.total == 0:
        raise EvaluationError("empty confusion matrix")
    undefined: list[str] = []
    n1 = cm.tp + cm.fn  # actual positives
    n0 = cm.tn + cm.fp
    n = cm.total
    p1 = _ratio(cm.tp, cm.tp + cm.fp, "precision_pos", undefined)
    p0 = _ratio(cm.tn, cm.tn + cm.fn, "precision_neg", undefined)
    r1 = _ratio(cm.tp, n1, "recall_pos", undefined)
    r0 = _ratio(cm.tn, n0, "recall_neg", undefined)
    f1_1 = 2 * p1 * r1 / (p1 + r1) if p1 + r1 > 0 else 0.0
    f1_0 = 2 * p0 * r0 / (p0 + r0) if p0 + r0 > 0 else 0.0
    acc = (cm.tp + cm.tn) / n
    return MetricSet(acc,
                     (n1 * p1 + n0 * p0) / n,
                     (n1 * r1 + n0 * r0) / n,
                     (n1 * f1_1 + n0 * f1_0) / n,
                     tuple(undefined))


@dataclass(frozen=True)
class RocCurve:
    """ROC points from (0,0) to (1,1); predicted positive means score >= threshold."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_auc(y_true, scores) -> RocCurve:
    """ROC via a descending sweep over unique scores; AUC by the trapezoid rule.

    Tied scores collapse into one curve step, so the trapezoid area equals the
    Mann-Whitney statistic with half credit for tied positive/negative pairs.
    """
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise EvaluationError("scores and labels must align")
    n_pos = int(np.sum(y_true == 1))
    n_neg = int(np.sum(y_true == 0))
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("ROC requires both classes present")
    order = np.argsort(-scores, kind="stable")
    ys = y_true[order]
    ss = scores[order]
    cum_tp = np.cumsum(ys == 1)
    cum_fp = np.cumsum(ys == 0)
    # keep only the last index of each tied-score run
    last = np.flatnonzero(np.diff(ss) != 0)
    cut = np.concatenate([last, [len(ss) - 1]])
    tpr = np.concatenate([[0.0], cum_tp[cut] / n_pos])
    fpr = np.concatenate([[0.0], cum_fp[cut] / n_neg])
    thresholds = np.concatenate([[np.inf], ss[cut]])
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(fpr, tpr, thresholds, auc)


@dataclass(frozen=True)
class RateDistributions:
    """Bootstrap resampling distribution of FPR and TPR over the test set."""

    fpr_samples: np.ndarray
    tpr_samples: np.ndarray


def bootstrap_rate_distributions(y_true, y_pred, n_boot: int, seed: int,
                                 max_retries: int = 1000) -> RateDistributions:
    """FPR/TPR over n_boot resamples of the test rows with replacement.

    A resample's rates depend only on its confusion cells, whose law is
    Multinomial(n, cells / n) (Efron & Tibshirani 1993), so the cells are drawn
    directly: O(n_boot), not O(n_boot * n). Replicates missing a class are
    redrawn (bounded); deterministic per seed.
    """
    if n_boot < 1:
        raise EvaluationError("need at least one bootstrap replicate")
    cm = confusion(y_true, y_pred)
    n_pos = cm.tp + cm.fn
    if n_pos == 0 or n_pos == cm.total:
        raise EvaluationError("bootstrap rates require both classes present")
    rng = derive_rng(seed, "bootstrap_rates")
    p = np.array([cm.tp, cm.fn, cm.fp, cm.tn]) / cm.total
    cells = np.empty((n_boot, 4), dtype=np.int64)
    draw = np.arange(n_boot)
    for _ in range(max_retries + 1):
        cells[draw] = rng.multinomial(cm.total, p, size=draw.size)
        pos = cells[draw, 0] + cells[draw, 1]
        draw = draw[(pos == 0) | (pos == cm.total)]
        if draw.size == 0:
            break
    else:
        raise EvaluationError("bootstrap retry bound exceeded: a class is pathologically rare")
    tp, fn, fp, tn = cells.T
    return RateDistributions(fp / (fp + tn), tp / (tp + fn))


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Counts [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d


def chi_square_2x2(table: ContingencyTable2x2, yates: bool = False) -> tuple[float, int, float]:
    """Pearson chi-square for a 2x2 table: n*(ad-bc)^2 / (r1*r2*c1*c2), df=1.

    No continuity correction by default; pass yates=True to apply it. The
    p-value uses the exact chi-square(1) survival function erfc(sqrt(x/2)).
    """
    a, b, c, d = table.a, table.b, table.c, table.d
    if min(a, b, c, d) < 0:
        raise EvaluationError("counts must be nonnegative")
    n = table.total
    r1, r2, c1, c2 = a + b, c + d, a + c, b + d
    if n == 0 or min(r1, r2, c1, c2) == 0:
        raise EvaluationError("chi-square undefined with a zero marginal")
    det = abs(a * d - b * c)
    if yates:
        det = max(0.0, det - n / 2)
    chi2 = n * det * det / (r1 * r2 * c1 * c2)
    p = math.erfc(math.sqrt(chi2 / 2.0))
    return float(chi2), 1, float(p)


def cramers_v(chi2: float, n: int, rows: int, cols: int) -> float:
    """Effect size sqrt(chi2 / (n * (min(rows, cols) - 1)))."""
    if n <= 0:
        raise EvaluationError("n must be positive")
    if min(rows, cols) < 2:
        raise EvaluationError("Cramer's V needs at least a 2x2 table")
    return math.sqrt(chi2 / (n * (min(rows, cols) - 1)))
