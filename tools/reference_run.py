"""Run the fixed reference sequence and print one digest over its artifacts.

A refactor that must leave outputs unchanged can be checked by running this
script on the code before and after it: the artifact count and the digest
must match. The sequence, on a ``separated2`` cohort of 800 rows with seed 3:

    synth, ingest, cluster, cluster --k-fixed 2,
    run (all seven algorithms, K fixed at 2, bootstrap B = 50,
         default hyperparameters with RF n_trees 5 and MLP max_epochs 10),
    explain --pattern 0 --n-explain 20 --background 30,
    run (GBT only, K voted over the default range, bootstrap B = 0)

then synth, ingest and cluster on a ``separated2`` cohort of 3,000 rows, which
is above ``select_k``'s 2,048-row sample cap, so the subsample and its top-up
are digested too; then synth and ingest on an ``edx`` cohort of 2,000 rows (the
categorical columns, constant in that profile, binary-mapped), and synth
``--spec`` and ingest on a 2,000-row cohort whose spec gives ``country`` three
levels (frequency-encoded), ``gender`` two, and ``age`` integer draws in one
pattern and real ones in the other.

The digest is the sha256 of the sorted ``<command dir>/<artifact> <sha256>``
lines taken from the ``artifacts`` map of every manifest; timestamps and other
manifest fields are left out. Those lines also go to standard error, so a
changed digest can be traced to the artifacts behind it by diffing two runs'
stderr. Run it from the repository root:

    PYTHONPATH=src python tools/reference_run.py

Point PYTHONPATH at another checkout's ``src`` to digest that code instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from stratify import cli, pipeline, synthcohort

SEED = 3


def _config() -> dict:
    cfg = pipeline.RunConfig(seed=SEED, k_fixed=2, bootstrap_b=50).to_dict()
    for hparams in (*cfg["pattern_hparams"], cfg["direct_hparams"]):
        hparams["RF"] = {**hparams["RF"], "n_trees": 5}
        hparams["MLP"] = {**hparams["MLP"], "max_epochs": 10}
    return cfg


def _vote_config() -> dict:
    return pipeline.RunConfig(seed=SEED, algorithms=("GBT",), bootstrap_b=0).to_dict()


def _spec() -> dict:
    spec = synthcohort.separated_spec(2).to_dict()
    for pattern in spec["patterns"]:
        pattern["features"]["country"] = {"kind": "categorical", "levels": ["C01", "C02", "C03"],
                                          "probs": [0.5, 0.3, 0.2]}
        pattern["features"]["gender"] = {"kind": "categorical", "levels": ["f", "m"],
                                         "probs": [0.4, 0.6]}
    spec["patterns"][1]["features"]["age"] = {"kind": "count", "mean": 40.0, "sd": 9.0}
    return spec


def reference_artifacts(root) -> dict:
    """Run the sequence under ``root``; return {"<dir>/<artifact>": sha256}."""
    root = Path(root)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(_config()))
    vote_cfg_path = root / "vote_config.json"
    vote_cfg_path.write_text(json.dumps(_vote_config()))
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(_spec()))
    clean = root / "ingest" / "clean.csv"
    steps = [
        ["synth", "--profile", "separated2", "--n", "800", "--out", root / "synth"],
        ["ingest", "--data", root / "synth" / "synth_cohort.csv", "--out", root / "ingest"],
        ["cluster", "--data", clean, "--out", root / "cluster"],
        ["cluster", "--data", clean, "--k-fixed", "2", "--out", root / "cluster_k2"],
        ["run", "--data", clean, "--config", cfg_path, "--out", root / "run"],
        ["explain", "--run-dir", root / "run", "--pattern", "0", "--n-explain", "20",
         "--background", "30"],
        ["run", "--data", clean, "--config", vote_cfg_path, "--out", root / "run_vote"],
        ["synth", "--profile", "separated2", "--n", "3000", "--out", root / "synth_3000"],
        ["ingest", "--data", root / "synth_3000" / "synth_cohort.csv",
         "--out", root / "ingest_3000"],
        ["cluster", "--data", root / "ingest_3000" / "clean.csv", "--out", root / "cluster_3000"],
        ["synth", "--profile", "edx", "--n", "2000", "--out", root / "synth_edx"],
        ["ingest", "--data", root / "synth_edx" / "synth_cohort.csv", "--out", root / "ingest_edx"],
        ["synth", "--spec", spec_path, "--n", "2000", "--out", root / "synth_spec"],
        ["ingest", "--data", root / "synth_spec" / "synth_cohort.csv",
         "--out", root / "ingest_spec"],
    ]
    for step in steps:
        argv = [str(a) for a in step] + ["--seed", str(SEED)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"stratify {' '.join(argv)} exited {code}")
    out = {}
    for manifest in sorted(root.rglob("manifest.json")):
        base = manifest.parent.relative_to(root).as_posix()
        for rel, sha in json.loads(manifest.read_text())["artifacts"].items():
            out[f"{base}/{rel}"] = sha
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="stratify-reference-") as tmp:
        artifacts = reference_artifacts(tmp)
    lines = "".join(f"{k} {v}\n" for k, v in sorted(artifacts.items()))
    sys.stderr.write(lines)
    print(f"{len(artifacts)} artifacts  sha256 {hashlib.sha256(lines.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
