import math

import numpy as np
import pytest

from stratify import evaluation as ev
from stratify.errors import EvaluationError

import oracles


def test_confusion_hand_count():
    cm = ev.confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 1)


def test_confusion_perfect_and_errors():
    cm = ev.confusion([1, 0, 1], [1, 0, 1])
    assert cm.fp == 0 and cm.fn == 0
    with pytest.raises(EvaluationError):
        ev.confusion([], [])
    with pytest.raises(EvaluationError):
        ev.confusion([1, 0], [1])
    with pytest.raises(EvaluationError):
        ev.confusion([1, 2], [1, 0])


def test_metric_set_hand_arithmetic():
    m = ev.metric_set(ev.ConfusionMatrix(tp=3, fp=1, fn=2, tn=4))
    assert m.accuracy == pytest.approx(0.7)
    assert m.precision == pytest.approx(0.75)
    assert m.recall == pytest.approx(0.6)
    assert m.f1 == pytest.approx(2 * 0.45 / 1.35)
    assert m.undefined == ()


def test_metric_set_degenerate_flags():
    m = ev.metric_set(ev.ConfusionMatrix(tp=0, fp=0, fn=0, tn=5))
    assert m.accuracy == 1.0
    assert set(m.undefined) >= {"precision", "recall", "f1"}
    assert m.precision == 0.0 and m.recall == 0.0


def test_metric_set_perfect():
    m = ev.metric_set(ev.ConfusionMatrix(tp=4, fp=0, fn=0, tn=6))
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)


def test_weighted_recall_equals_accuracy_randomized(rng):
    for _ in range(300):
        tp, fp, fn, tn = [int(v) for v in rng.integers(0, 40, 4)]
        if tp + fp + fn + tn == 0:
            continue
        cm = ev.ConfusionMatrix(tp, fp, fn, tn)
        w = ev.weighted_metric_set(cm)
        assert w.recall == pytest.approx(w.accuracy, abs=1e-12)


def test_weighted_symmetric_cm_precision_equals_recall():
    cm = ev.ConfusionMatrix(tp=6, fp=2, fn=2, tn=6)
    w = ev.weighted_metric_set(cm)
    assert w.precision == pytest.approx(w.recall, abs=1e-12)


def test_weighted_perfect():
    w = ev.weighted_metric_set(ev.ConfusionMatrix(5, 0, 0, 5))
    assert (w.accuracy, w.precision, w.recall, w.f1) == (1.0, 1.0, 1.0, 1.0)


def test_roc_auc_examples():
    assert ev.roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]).auc == pytest.approx(1.0)
    assert ev.roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]).auc == pytest.approx(0.0)
    assert ev.roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.8, 0.1]).auc == pytest.approx(0.875)


def test_roc_curve_shape_and_monotonicity(rng):
    for _ in range(30):
        n = int(rng.integers(4, 50))
        y = rng.integers(0, 2, n)
        y[0], y[1] = 0, 1
        s = np.round(rng.random(n), 2)  # coarse scores force ties
        roc = ev.roc_auc(y, s)
        assert roc.fpr[0] == 0.0 and roc.tpr[0] == 0.0
        assert roc.fpr[-1] == 1.0 and roc.tpr[-1] == 1.0
        assert np.all(np.diff(roc.fpr) >= 0) and np.all(np.diff(roc.tpr) >= 0)


def test_auc_matches_pair_counting(rng):
    for _ in range(100):
        n = int(rng.integers(4, 50))
        y = rng.integers(0, 2, n)
        y[0], y[1] = 0, 1
        s = np.round(rng.random(n), 1)
        got = ev.roc_auc(y, s).auc
        want = oracles.mann_whitney_auc(y.tolist(), s.tolist())
        assert abs(got - want) <= 1e-12


def test_auc_invariant_under_monotone_transform(rng):
    y = rng.integers(0, 2, 30)
    y[0], y[1] = 0, 1
    s = rng.random(30)
    base = ev.roc_auc(y, s).auc
    assert ev.roc_auc(y, 1 / (1 + np.exp(-7 * s + 2))).auc == pytest.approx(base, abs=1e-12)
    assert ev.roc_auc(y, s ** 3).auc == pytest.approx(base, abs=1e-12)


def test_roc_single_class_errors():
    with pytest.raises(EvaluationError):
        ev.roc_auc([1, 1], [0.2, 0.4])


def test_bootstrap_trivial_distributions():
    y = np.array([1, 1, 0, 0, 0])
    perfect = ev.bootstrap_rate_distributions(y, y, 200, seed=0)
    assert np.all(perfect.tpr_samples == 1.0) and np.all(perfect.fpr_samples == 0.0)
    nothing = ev.bootstrap_rate_distributions(y, np.zeros(5, dtype=int), 50, seed=0)
    assert np.all(nothing.tpr_samples == 0.0)


def test_bootstrap_deterministic_and_summary():
    y = np.array([1, 0, 1, 0, 1, 0, 1, 1])
    pred = np.array([1, 0, 0, 0, 1, 1, 1, 1])
    a = ev.bootstrap_rate_distributions(y, pred, 100, seed=5)
    b = ev.bootstrap_rate_distributions(y, pred, 100, seed=5)
    assert a.fpr_samples.tobytes() == b.fpr_samples.tobytes()
    q1, median, q3 = np.percentile(a.tpr_samples, [25, 50, 75])
    assert 0.0 <= q1 <= median <= q3 <= 1.0


def test_bootstrap_concentrates_around_point_estimate():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, 400)
    pred = np.where(rng.random(400) < 0.8, y, 1 - y)
    dist = ev.bootstrap_rate_distributions(y, pred, 2000, seed=1)
    cm = ev.confusion(y, pred)
    point_tpr = cm.tp / (cm.tp + cm.fn)
    se = dist.tpr_samples.std() / math.sqrt(len(dist.tpr_samples))
    assert abs(dist.tpr_samples.mean() - point_tpr) <= 3 * se + 1e-9


def test_bootstrap_requires_both_classes():
    with pytest.raises(EvaluationError):
        ev.bootstrap_rate_distributions(np.ones(5, dtype=int), np.ones(5, dtype=int), 10, 0)


@pytest.mark.parametrize("y_pred", [[0, 1, 0, 1, 1, 1, 1, 1], [0, 1, 0], [[0, 1, 0, 1]]],
                         ids=["longer", "shorter", "2-D"])
def test_bootstrap_refuses_misaligned_predictions(y_pred):
    with pytest.raises(EvaluationError, match="1-D and of equal length"):
        ev.bootstrap_rate_distributions([0, 1, 0, 1], y_pred, 10, seed=0)


def test_bootstrap_refuses_non_binary_labels():
    with pytest.raises(EvaluationError, match="binary"):
        ev.bootstrap_rate_distributions([0, 1, 2, 1], [0, 1, 1, 1], 10, seed=0)
    with pytest.raises(EvaluationError, match="binary"):
        ev.bootstrap_rate_distributions([0, 1, 0, 1], [0, 1, 2, 1], 10, seed=0)


def test_bootstrap_retry_bound_raises():
    # one row per class: each resample misses a class with probability 1/2
    with pytest.raises(EvaluationError, match="bootstrap retry bound exceeded"):
        ev.bootstrap_rate_distributions([0, 1], [0, 1], 1000, seed=0, max_retries=0)


def test_bootstrap_redraws_every_replicate_missing_a_class():
    # one positive in three rows: a third of the first draws miss a class
    dist = ev.bootstrap_rate_distributions([0, 1, 0], [1, 1, 0], 10_000, seed=0)
    assert not np.isnan(dist.fpr_samples).any() and not np.isnan(dist.tpr_samples).any()
    assert np.all(dist.tpr_samples == 1.0)


# (tp, fn, fp, tn): a test set small enough that a resample misses the
# positive class one time in nine, and a larger, less skewed one
RATE_CASES = [(1, 1, 2, 8), (30, 12, 9, 49)]


def _labels(tp, fn, fp, tn):
    y = np.array([1] * (tp + fn) + [0] * (fp + tn))
    pred = np.array([1] * tp + [0] * fn + [1] * fp + [0] * tn)
    return y, pred


@pytest.mark.parametrize("cells", RATE_CASES)
def test_bootstrap_rates_have_the_row_resampling_law(cells):
    """Two-sample KS against the frozen row-resampling loop, 20,000 replicates
    each; neither rate may reject at the 1% level."""
    from scipy.stats import ks_2samp

    y, pred = _labels(*cells)
    old_fpr, old_tpr = oracles.bootstrap_rows(y, pred, 20_000, np.random.default_rng(11))
    new = ev.bootstrap_rate_distributions(y, pred, 20_000, seed=11)
    assert ks_2samp(old_tpr, new.tpr_samples).pvalue > 0.01
    assert ks_2samp(old_fpr, new.fpr_samples).pvalue > 0.01


def _rate_moments(n, n_cls, k, pos_class):
    """Exact mean and variance of k/n_cls's bootstrap replicate given both classes.

    The resample's count P of positive rows is Binomial(n, n_pos/n), kept on
    0 < P < n; given P, the rate is a binomial proportion with mean q = k/n_cls
    over m rows (m = P for TPR, n - P for FPR), so Var = E[q(1-q)/m | 0 < P < n].
    """
    q = k / n_cls
    n_pos = n_cls if pos_class else n - n_cls
    pi = n_pos / n
    pmf = {p: math.comb(n, p) * pi ** p * (1 - pi) ** (n - p) for p in range(1, n)}
    kept = sum(pmf.values())
    var = sum(w * q * (1 - q) / (p if pos_class else n - p) for p, w in pmf.items()) / kept
    return q, var


@pytest.mark.parametrize("cells", RATE_CASES)
def test_bootstrap_rate_moments_match_the_multinomial_law(cells):
    """Mean and variance of 10^5 replicates within 4 standard errors of the exact
    moments (the variance's standard error estimated from the replicates)."""
    tp, fn, fp, tn = cells
    n = tp + fn + fp + tn
    y, pred = _labels(*cells)
    dist = ev.bootstrap_rate_distributions(y, pred, 100_000, seed=3)
    for samples, n_cls, k, pos_class in ((dist.tpr_samples, tp + fn, tp, True),
                                         (dist.fpr_samples, fp + tn, fp, False)):
        mean, var = _rate_moments(n, n_cls, k, pos_class)
        dev2 = (samples - samples.mean()) ** 2
        se_mean = math.sqrt(var / samples.size)
        se_var = dev2.std() / math.sqrt(samples.size)
        assert abs(samples.mean() - mean) <= 4 * se_mean
        assert abs(samples.var() - var) <= 4 * se_var


def test_chi_square_examples():
    flat = ev.ContingencyTable2x2(10, 10, 10, 10)
    chi2, df, p = ev.chi_square_2x2(flat)
    assert chi2 == 0.0 and df == 1 and p == pytest.approx(1.0)

    chi2, _, p = ev.chi_square_2x2(ev.ContingencyTable2x2(20, 10, 10, 20))
    assert chi2 == pytest.approx(60 * 300 ** 2 / 30 ** 4)
    assert chi2 == pytest.approx(6.6667, abs=1e-4)
    assert 0.0 < p < 0.05


def test_chi_square_yates_and_errors():
    t = ev.ContingencyTable2x2(20, 10, 10, 20)
    plain, _, _ = ev.chi_square_2x2(t)
    corrected, _, _ = ev.chi_square_2x2(t, yates=True)
    assert corrected < plain
    with pytest.raises(EvaluationError):
        ev.chi_square_2x2(ev.ContingencyTable2x2(0, 0, 5, 5))


def test_chi_square_p_matches_erfc_identity(rng):
    for chi2 in (0.5, 1.0, 3.84, 10.0):
        t = None
        p = math.erfc(math.sqrt(chi2 / 2))
        # survival function of chi2(1) evaluated through the normal tail
        z = math.sqrt(chi2)
        p2 = 2 * (1 - 0.5 * (1 + math.erf(z / math.sqrt(2))))
        assert p == pytest.approx(p2, abs=1e-12)


def test_cramers_v_paper_anchors():
    assert ev.cramers_v(23.42, 92722, 2, 2) == pytest.approx(0.016, abs=0.001)
    assert ev.cramers_v(75.66, 92722, 2, 2) == pytest.approx(0.029, abs=0.001)
    assert ev.cramers_v(0.0, 100, 2, 2) == 0.0


def test_cramers_v_guards():
    with pytest.raises(EvaluationError):
        ev.cramers_v(1.0, 0, 2, 2)
    with pytest.raises(EvaluationError):
        ev.cramers_v(1.0, 10, 1, 5)
