"""Artifact emission: deterministic CSV/JSON writers and the run manifest.

All floats go through repr (shortest round-trip), rows are written in a fixed
order, and the manifest records a sha256 per emitted file so a rerun can be
checked byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

from . import __version__
from .pipeline import DirectRun, IntegrationRun


def write_csv(path, header, rows) -> None:
    """Rows of Python scalars (``tolist()`` of an array gives them): a float prints by repr."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path, doc) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class RunDirectory:
    """Tracks every artifact written under one output directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.artifacts: list[str] = []

    def path(self, rel) -> Path:
        p = self.root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        self.artifacts.append(str(rel))
        return p

    def write_manifest(self, command: str, config_doc, seed: int, started: float) -> Path:
        manifest = {
            "command": command,
            "config": config_doc,
            "seed": seed,
            "package_version": __version__,
            "started_unix": started,
            "finished_unix": time.time(),
            "artifacts": {rel: sha256_file(self.root / rel)
                          for rel in sorted(set(self.artifacts))},
        }
        out = self.root / "manifest.json"
        write_json(out, manifest)
        return out


def write_stage1(rundir: RunDirectory, kselect, assignment) -> None:
    """``patterns.csv``, and ``kselect.json`` when K was voted on."""
    write_csv(rundir.path("patterns.csv"), ["row", "pattern"],
              [(i, int(p)) for i, p in enumerate(assignment.labels)])
    if kselect is not None:
        write_json(rundir.path("kselect.json"), kselect.to_dict())


def write_evaluation(rundir: RunDirectory, base: str, report) -> None:
    write_json(rundir.path(f"{base}/metrics.json"), report.to_dict())
    if report.roc is not None:
        write_csv(rundir.path(f"{base}/roc_points.csv"), ["fpr", "tpr", "threshold"],
                  zip(report.roc.fpr.tolist(), report.roc.tpr.tolist(),
                      report.roc.thresholds.tolist()))
    if report.rates is not None:
        write_csv(rundir.path(f"{base}/violin_samples.csv"), ["replicate", "fpr", "tpr"],
                  zip(range(len(report.rates.fpr_samples)),
                      report.rates.fpr_samples.tolist(), report.rates.tpr_samples.tolist()))


def write_integration(rundir: RunDirectory, run: IntegrationRun) -> None:
    for p in run.patterns:
        for alg, rep in p.reports.items():
            write_evaluation(rundir, f"integration/pattern{p.pattern_id}/{alg}", rep)
    for alg, rep in run.pooled.items():
        write_evaluation(rundir, f"integration/pooled/{alg}", rep)


def write_direct(rundir: RunDirectory, run: DirectRun, separated=None) -> None:
    for alg, rep in run.result.reports.items():
        write_evaluation(rundir, f"direct/{alg}", rep)
    if separated:
        for pid, by_alg in separated.items():
            for alg, rep in by_alg.items():
                write_evaluation(rundir, f"direct/separated/pattern{pid}/{alg}", rep)


def write_demographics(rundir: RunDirectory, demo: dict) -> None:
    if demo is None:
        return
    rows = demo["rows"]
    write_csv(rundir.path("demographics.csv"),
              ["pattern", "n", "pct_age_lt_35", "pct_age_ge_35", "pct_gender_1", "pct_gender_0"],
              [(r["pattern"], r["n"], r["pct_age_lt_35"], r["pct_age_ge_35"],
                r["pct_gender_1"], r["pct_gender_0"]) for r in rows])
    if demo.get("association"):
        write_json(rundir.path("association.json"), demo["association"])


def write_importance_csv(path, ranking) -> None:
    write_csv(path, ["feature", "gain_share", "rank"], ranking.to_rows())


def write_shap_csv(path, beeswarm_rows) -> None:
    write_csv(path, ["feature", "sample", "shap_value", "feature_value", "value_percentile"],
              beeswarm_rows)
