"""Command-line entry point.

Commands: ``synth`` (generate a cohort), ``ingest`` (load/clean/encode a raw
CSV), ``cluster`` (``pipeline.stage1``: K selection + pattern labels), ``run``
(stage 1, both experimental arms + comparison), ``explain`` (the importance and
Shapley exports of ``pipeline.explain_pattern`` for one pattern of a finished
run). The commands read inputs and write artifacts; the work is done in
``pipeline``. Every command records a manifest with per-artifact checksums, and
all randomness comes from one seed (``explain`` takes the run's), so reruns are
byte identical.

Exit codes: 0 ok, 1 internal error, 2 input/validation error, 3 ``run``
completed but raised degenerate-statistics flags (e.g. a single-class pattern,
or one whose split leaves no test row).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import traceback

import numpy as np

from . import __version__, classifiers as clf, explain as explain_mod
from . import dataset as ds_mod
from . import pipeline, reports, synthcohort
from .errors import ConfigError, DataError, StratifyError

EXIT_OK, EXIT_INTERNAL, EXIT_INVALID, EXIT_DEGENERATE = 0, 1, 2, 3


def _schema(args):
    return ds_mod.FeatureSchema.from_json(args.schema) if args.schema else ds_mod.edx_schema()


def _load_dataset(args):
    schema = _schema(args)
    return ds_mod.load_dataset_csv(args.data, schema), schema


def cmd_synth(args) -> int:
    started = time.time()
    if args.spec:
        spec = synthcohort.CohortSpec.from_json(args.spec)
    elif args.profile == "edx":
        spec = synthcohort.edx_cohort_spec()
    else:
        try:
            k = int(args.profile.removeprefix("separated"))
        except ValueError:
            raise ConfigError(f"unknown profile {args.profile!r}: use edx or separated<K>, "
                              "e.g. separated3") from None
        spec = synthcohort.separated_spec(k)
    sample = synthcohort.generate(spec, args.n, args.seed)
    rundir = reports.RunDirectory(args.out)
    synthcohort.save_cohort_csv(rundir.path("synth_cohort.csv"), sample)
    rundir.write_manifest("synth", {"n": args.n, "profile": args.profile, "spec": args.spec},
                          args.seed, started)
    print(f"wrote {rundir.root / 'synth_cohort.csv'} ({sample.raw.n_rows} rows, "
          f"{len(spec.patterns)} patterns)")
    if sample.empty_patterns:
        print(f"warning: empty patterns {sample.empty_patterns}", file=sys.stderr)
    return EXIT_OK


def cmd_ingest(args) -> int:
    started = time.time()
    schema = _schema(args)
    raw = ds_mod.load_person_course(args.data, schema)
    cleaned, stats = ds_mod.clean(raw, schema)
    dataset, encoder = ds_mod.encode(cleaned, schema)
    rundir = reports.RunDirectory(args.out)
    ds_mod.save_dataset_csv(rundir.path("clean.csv"), dataset)
    ds_mod.save_preprocess_sidecar(rundir.path("preprocess.json"), encoder)
    reports.write_json(rundir.path("schema.json"), schema.to_dict())
    rundir.write_manifest("ingest", {"data": str(args.data)}, args.seed, started)
    print(f"kept {stats.kept} rows; dropped {stats.dropped} "
          f"(missing {stats.dropped_missing}, flagged {stats.dropped_flagged}, "
          f"inconsistent {stats.dropped_inconsistent})")
    return EXIT_OK


def cmd_cluster(args) -> int:
    started = time.time()
    cfg = pipeline.RunConfig(seed=args.seed, k_range=(args.k_min, args.k_max),
                             k_fixed=args.k_fixed, kmeans_restarts=args.restarts)
    dataset, _ = _load_dataset(args)
    kselect, assignment = pipeline.stage1(dataset, cfg)
    rundir = reports.RunDirectory(args.out)
    reports.write_stage1(rundir, kselect, assignment)
    if kselect is not None:
        print(f"selected K={kselect.winner} (tally {kselect.tally})")
    else:
        print(f"fixed K={args.k_fixed}")
    print(f"cluster sizes: {assignment.sizes.tolist()}")
    rundir.write_manifest("cluster", {"data": str(args.data), "k_fixed": args.k_fixed,
                                      "k_range": [args.k_min, args.k_max]},
                          args.seed, started)
    return EXIT_OK


def _build_config(args) -> pipeline.RunConfig:
    cfg = pipeline.RunConfig.from_json(args.config) if args.config else pipeline.RunConfig()
    overrides = {"seed": args.seed, "k_fixed": args.k_fixed}
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def cmd_run(args) -> int:
    started = time.time()
    cfg = _build_config(args)
    dataset, schema = _load_dataset(args)
    # stage 1 first: a K range the data cannot hold fails before anything is written
    kselect, assignment = pipeline.stage1(dataset, cfg)
    rundir = reports.RunDirectory(args.out)
    ds_mod.save_dataset_csv(rundir.path("data.csv"), dataset)
    reports.write_json(rundir.path("schema.json"), schema.to_dict())
    reports.write_stage1(rundir, kselect, assignment)
    demo = pipeline.demographics_table(dataset, assignment)
    reports.write_demographics(rundir, demo)

    state = {"config": cfg.to_dict(), "k": assignment.k, "patterns": []}
    flags = []
    integ = direct = None
    if args.arm in ("both", "integration"):
        integ = pipeline.run_integration(dataset, cfg, assignment)
        reports.write_integration(rundir, integ)
        flags.extend(integ.flags)
        for p in integ.patterns:
            state["patterns"].append({"id": p.pattern_id,
                                      "train_rows": p.train_rows.tolist(),
                                      "test_rows": p.test_rows.tolist(),
                                      "flags": list(p.flags)})
            for alg, m in p.models.items():
                clf.save_model(rundir.path(f"models/pattern{p.pattern_id}/{alg}.json"), m)
    if args.arm in ("both", "direct"):
        direct = pipeline.run_direct(dataset, cfg)
        separated = (pipeline.separate_by_pattern(direct, assignment)
                     if integ is not None else None)
        reports.write_direct(rundir, direct, separated)
        flags.extend(direct.flags)
        for alg, m in direct.result.models.items():
            clf.save_model(rundir.path(f"models/direct/{alg}.json"), m)
        if integ is not None:
            reports.write_json(rundir.path("comparison.json"),
                               pipeline.compare(integ, direct, separated).to_dict())

    reports.write_json(rundir.path("run_state.json"), state)
    rundir.write_manifest("run", cfg.to_dict(), cfg.seed, started)
    if integ is not None:
        for alg, rep in integ.pooled.items():
            print(f"integration pooled {alg}: accuracy {rep.positive.accuracy:.4f} "
                  f"auc {rep.auc if rep.auc is None else round(rep.auc, 4)}")
    if direct is not None:
        for alg, rep in direct.result.reports.items():
            print(f"direct {alg}: accuracy {rep.positive.accuracy:.4f} "
                  f"auc {rep.auc if rep.auc is None else round(rep.auc, 4)}")
    if flags:
        print(f"degenerate-statistics flags: {sorted(set(flags))}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_explain(args) -> int:
    started = time.time()
    for flag, value in (("--n-explain", args.n_explain), ("--background", args.background)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    rundir_path = args.run_dir
    with open(os.path.join(rundir_path, "run_state.json"), "r", encoding="utf-8") as fh:
        state = json.load(fh)
    cfg = pipeline.RunConfig.from_dict(state["config"])
    schema = ds_mod.FeatureSchema.from_json(os.path.join(rundir_path, "schema.json"))
    dataset = ds_mod.load_dataset_csv(os.path.join(rundir_path, "data.csv"), schema)
    entry = next((p for p in state["patterns"] if p["id"] == args.pattern), None)
    if entry is None:
        raise DataError(f"run has no pattern {args.pattern}; rerun with --arm integration|both")
    ranking, matrix = pipeline.explain_pattern(dataset, np.array(entry["train_rows"]), cfg,
                                               args.pattern, args.n_explain, args.background)
    out = reports.RunDirectory(os.path.join(rundir_path, f"explain/pattern{args.pattern}"))
    reports.write_importance_csv(out.path("importance.csv"), ranking)
    reports.write_shap_csv(out.path("shap_values.csv"), explain_mod.beeswarm_export(matrix))
    out.write_manifest("explain", {"pattern": args.pattern, "n_explain": args.n_explain,
                                   "background": args.background}, cfg.seed, started)
    top = [ranking.feature_names[j] for j in ranking.order[:3]]
    print(f"pattern {args.pattern}: top features by split gain: {', '.join(top)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stratify",
                                 description="learning-pattern discovery and per-pattern "
                                             "outcome prediction")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=0):
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    common(p)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--profile", default="edx",
                   help="edx | separated2 | separated3 (ignored when --spec is given)")
    p.add_argument("--spec", default=None, help="cohort spec JSON")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="load, clean and encode a raw person-course CSV")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", default=None, help="schema JSON (default: canonical edX)")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("cluster", help="stage-1 clustering and K selection")
    common(p)
    p.add_argument("--data", required=True, help="encoded CSV from ingest")
    p.add_argument("--schema", default=None)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--k-fixed", type=int, default=None, help="bypass index voting")
    p.add_argument("--restarts", type=int, default=10)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("run", help="run the experimental arms and comparison")
    common(p, seed=None)  # unset: the config file's seed applies
    p.add_argument("--data", required=True, help="encoded CSV from ingest")
    p.add_argument("--schema", default=None)
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--arm", choices=("both", "integration", "direct"), default="both")
    p.add_argument("--k-fixed", type=int, default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explain", help="feature attribution for one pattern of a run")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: explain uses the seed of the run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--pattern", type=int, required=True)
    p.add_argument("--n-explain", type=int, default=200)
    p.add_argument("--background", type=int, default=100)
    p.set_defaults(fn=cmd_explain)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StratifyError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
