"""Correctness checks on the outputs of one benchmark pass.

Each check is one benchmark operation and returns (name, ok, detail). The
checks recompute what they verify apart from the code under test: min-max
scaling, confusion counts, AUC (as a Mann-Whitney statistic from scipy),
pattern matching (Hungarian assignment) and the logistic-regression optimum
(scipy.optimize). The program is used only to reload its own saved models and
score rows with them, and to rebuild an LR training matrix through its SMOTE.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy import optimize, stats

from stratify import classifiers
from stratify.classifiers.linear import lr_loss_grad
from stratify.resampling import smote
from stratify.rng import derive_seed

AGREEMENT_MIN = 0.99      # share of rows whose matched pattern equals the planted one
AUC_TOL = 1e-9
SHARE_SUM_TOL = 1e-9
LR_OPTIMUM_TOL = 1e-6     # allowed excess of the fitted loss over the reference optimum


def _json(path: Path):
    return json.loads(path.read_text())


def _true_patterns(cohort_csv: Path) -> np.ndarray:
    with open(cohort_csv, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        col = next(reader).index("true_pattern")
        return np.array([int(row[col]) for row in reader if row])


def _pattern_labels(run_dir: Path) -> np.ndarray:
    with open(run_dir / "patterns.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([int(row[1]) for row in reader if row])


def _data(run_dir: Path):
    data = np.loadtxt(run_dir / "data.csv", delimiter=",", skiprows=1, ndmin=2)
    return data[:, :-1], data[:, -1].astype(np.int64)


def _min_max(X_fit, X):
    # training-row min-max scaling; constant features map to 0
    lo, hi = X_fit.min(axis=0), X_fit.max(axis=0)
    span = hi - lo
    out = (X - lo) / np.where(span == 0, 1.0, span)
    out[:, span == 0] = 0.0
    return out


def pattern_recovery(run_dir: Path, cohort_csv: Path, planted_k: int):
    labels, truth = _pattern_labels(run_dir), _true_patterns(cohort_csv)
    k = int(labels.max()) + 1
    if len(labels) != len(truth):
        return False, f"{len(labels)} labelled rows for {len(truth)} cohort rows"
    table = np.zeros((k, int(truth.max()) + 1), dtype=np.int64)
    np.add.at(table, (labels, truth), 1)
    rows, cols = optimize.linear_sum_assignment(-table)
    agreement = table[rows, cols].sum() / len(labels)
    ok = k == planted_k and agreement >= AGREEMENT_MIN
    return ok, f"K={k} (planted {planted_k}), agreement {agreement:.4f}"


def split_partition(run_dir: Path):
    labels = _pattern_labels(run_dir)
    state = _json(run_dir / "run_state.json")
    for p in state["patterns"]:
        train, test = np.array(p["train_rows"]), np.array(p["test_rows"])
        both = np.concatenate([train, test])
        if len(np.intersect1d(train, test)) or len(np.unique(both)) != len(both):
            return False, f"pattern {p['id']}: train and test rows overlap"
        if not np.array_equal(np.sort(both), np.flatnonzero(labels == p["id"])):
            return False, f"pattern {p['id']}: train and test rows do not cover the pattern"
    ids = sorted(p["id"] for p in state["patterns"])
    return ids == list(range(int(labels.max()) + 1)), f"patterns {ids}"


def integration_model(run_dir: Path, pattern: int, alg: str):
    """Reload one saved model, rescore its test rows, recount confusion and AUC."""
    state = _json(run_dir / "run_state.json")
    entry = next(p for p in state["patterns"] if p["id"] == pattern)
    X, y = _data(run_dir)
    train, test = np.array(entry["train_rows"]), np.array(entry["test_rows"])
    model = classifiers.load_model(run_dir / f"models/pattern{pattern}/{alg}.json")
    scores = classifiers.predict_scores(model, _min_max(X[train], X[test]))
    y_test = y[test]
    pred = scores > state["config"]["threshold"]
    cm = {"tp": int(np.sum(pred & (y_test == 1))), "fp": int(np.sum(pred & (y_test == 0))),
          "fn": int(np.sum(~pred & (y_test == 1))), "tn": int(np.sum(~pred & (y_test == 0)))}
    pos, neg = scores[y_test == 1], scores[y_test == 0]
    auc = float(stats.mannwhitneyu(pos, neg).statistic) / (len(pos) * len(neg))
    reported = _json(run_dir / f"integration/pattern{pattern}/{alg}/metrics.json")
    ok = cm == reported["confusion"] and reported["auc"] is not None \
        and abs(auc - reported["auc"]) <= AUC_TOL
    return ok, f"confusion {cm} vs {reported['confusion']}, auc {auc!r} vs {reported['auc']!r}"


def same_checksums(first: Path, others: list):
    """Every manifest of the first pass lists the same artifact checksums in the others."""
    manifests = sorted(p.relative_to(first) for p in first.rglob("manifest.json"))
    if not manifests:
        return False, "no manifests"
    for other in others:
        for rel in manifests:
            if not (other / rel).exists() \
                    or _json(first / rel)["artifacts"] != _json(other / rel)["artifacts"]:
                return False, f"{rel} differs between {first.name} and {other.name}"
    return True, f"{len(manifests)} manifests identical across {1 + len(others)} passes"


def integration_beats_direct(run_dir: Path, alg: str = "GBT"):
    integ = _json(run_dir / f"integration/pooled/{alg}/metrics.json")["positive"]["accuracy"]
    direct = _json(run_dir / f"direct/{alg}/metrics.json")["positive"]["accuracy"]
    return integ >= direct, f"pooled integration accuracy {integ:.4f}, direct {direct:.4f}"


def importance_shares(run_dir: Path, pattern: int):
    with open(run_dir / f"explain/pattern{pattern}/importance.csv", newline="",
              encoding="utf-8") as fh:
        shares = [float(row["gain_share"]) for row in csv.DictReader(fh)]
    total = sum(shares)
    return abs(total - 1.0) <= SHARE_SUM_TOL, f"{len(shares)} shares sum to {total!r}"


def lr_at_optimum(run_dir: Path, model_rel: str, pattern: int):
    """Is a saved LR model at the optimum of the objective lr_loss_grad defines?

    The training matrix is rebuilt from the model's training rows: min-max
    scaling, then the program's SMOTE with the arm's seed stream. The rebuilt
    matrix must reproduce the loss the fit recorded; the reference optimum comes
    from L-BFGS-B on the same matrix.
    """
    config = _json(run_dir / "run_state.json")["config"]
    model = classifiers.load_model(run_dir / model_rel)
    X, y = _data(run_dir)
    rows = np.array(model.meta["train_row_ids"])
    X_fit, y_fit = _min_max(X[rows], X[rows]), y[rows]
    if config["smote"]["enabled"]:
        res = smote(X_fit, y_fit, config["smote"]["k_neighbors"], config["smote"]["target_ratio"],
                    derive_seed(config["seed"], "smote", pattern))
        X_fit, y_fit = res.X, res.y
    y_fit = y_fit.astype(np.float64)
    lam = 1.0 / model.hyperparams["reg_factor"]
    loss = lr_loss_grad(model.state.weights, model.state.bias, X_fit, y_fit, lam)[0]
    if loss != model.meta["final_loss"]:
        return False, f"training matrix not rebuilt: loss {loss!r} vs {model.meta['final_loss']!r}"

    def objective(theta):
        value, gw, gb = lr_loss_grad(theta[:-1], theta[-1], X_fit, y_fit, lam)
        return value, np.append(gw, gb)

    ref = optimize.minimize(objective, np.zeros(X_fit.shape[1] + 1), jac=True, method="L-BFGS-B",
                            options={"maxiter": 10000, "gtol": 1e-10, "ftol": 1e-15})
    ok = loss <= ref.fun + LR_OPTIMUM_TOL * max(1.0, abs(ref.fun))
    return ok, (f"{model_rel}: loss {loss:.6f} after {model.meta['n_iter']} iterations, "
                f"optimum {ref.fun:.6f}")
