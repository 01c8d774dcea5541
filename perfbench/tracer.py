"""Span tracer for the traced benchmark pass.

The tracer replaces functions of the stratify modules with wrappers that
record one span per call: (name, start, end, parent). Spans stay in memory and
are written out once the pass ends. Each function is wrapped at the name its
caller looks up: ``pipeline`` imports ``smote``, ``stratified_split``,
``fit_normalizer`` and ``apply_normalizer`` by name, so those are wrapped on
``pipeline`` itself; ``classifiers.fit``, ``pipeline.evaluate_predictions`` and
``clustering.kmeans_fit`` are looked up on their modules at call time.

A layer's self time is its span's duration minus the durations of its direct
children. Spans nest (one thread, wrappers only), so the self times of all
spans add up to the durations of the root spans, one per CLI command.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

ALGORITHMS = ("LR", "DT", "RF", "KNN", "MLP", "SVC", "GBT")
ITERATIVE = ("LR", "MLP", "SVC", "GBT")  # algorithms whose model meta carries n_iter

# every metric the traced pass reports, in report order; "_s" marks a self time
# in seconds, everything else is an exact count
TIME_METRICS = (
    "cli.ingest_s", "cli.run_s", "cli.explain_s",
    "dataset.load_person_course_s", "dataset.clean_s", "dataset.encode_s",
    "dataset.load_dataset_csv_s", "dataset.save_dataset_csv_s",
    "clustering.kmeans_fit_s", "clustering.kmeanspp_s", "clustering.lloyd_s",
    "clustering.select_k_s", "clustering.pairwise_distances_s",
    "clustering.assign_patterns_s",
    "pipeline.stage1_s", "pipeline.integration_s", "pipeline.direct_s",
    "pipeline.compare_s", "pipeline.stratified_split_s", "pipeline.normalize_s",
    "resampling.smote_s",
    *(f"classifiers.{a}.{m}_s" for a in ALGORITHMS for m in ("fit", "predict")),
    "evaluation.evaluate_s", "evaluation.roc_auc_s", "evaluation.bootstrap_s",
    "reports.write_s", "reports.save_model_s",
    "explain.fit_s", "explain.shap_matrix_s",
)
COUNT_METRICS = (
    "dataset.rows_read",
    "clustering.kmeans_fit_calls", "clustering.lloyd_iters",
    "pipeline.patterns",
    "resampling.smote_minority_rows", "resampling.smote_synthetic_rows",
    *(f"classifiers.{a}.fit_rows" for a in ALGORITHMS),
    *(f"classifiers.{a}.n_iter" for a in ITERATIVE),
    "evaluation.bootstrap_replicates",
    "reports.bytes_written",
    "explain.rows_explained",
)


class Tracer:
    """In-memory spans plus counters, filled by wrapped stratify functions."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.command = ""             # CLI command whose root span is open
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Trace calls of ``owner.attr`` as spans named ``name``.

        ``name`` is a string or a function of the call's positional arguments;
        ``count(counts, args, result)`` adds the call's counters. A missing
        attribute is skipped, so its metrics read 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name(args) if callable(name) else name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, traced)

    def self_times(self) -> dict:
        """Seconds per span name, each span minus its direct children."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                p = self.spans[parent]
                out[p[0]] -= end - start
        return dict(out)

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every stratify module the CLI drives."""
    from stratify import (classifiers, clustering, dataset, evaluation, explain, pipeline,
                          reports, resampling)

    def add(key, value_of):
        def count(counts, args, result):
            counts[key] += int(value_of(args, result))
        return count

    def fit_name(args):
        return "explain.fit" if tracer.command == "explain" else f"classifiers.{args[0]}.fit"

    def fit_count(counts, args, result):
        if tracer.command == "explain":
            return
        counts[f"classifiers.{args[0]}.fit_rows"] += len(args[1])
        if args[0] in ITERATIVE:
            counts[f"classifiers.{args[0]}.n_iter"] += int(result.meta.get("n_iter", 0))

    def smote_count(counts, args, result):
        y = args[1]
        counts["resampling.smote_minority_rows"] += min(int((y == 1).sum()), int((y != 1).sum()))
        counts["resampling.smote_synthetic_rows"] += result.n_synthetic

    w = tracer.wrap
    w(dataset, "load_person_course", "dataset.load_person_course",
      add("dataset.rows_read", lambda a, r: r.n_rows))
    w(dataset, "clean", "dataset.clean")
    w(dataset, "encode", "dataset.encode")
    w(dataset, "load_dataset_csv", "dataset.load_dataset_csv",
      add("dataset.rows_read", lambda a, r: r.n))
    w(dataset, "save_dataset_csv", "dataset.save_dataset_csv")

    w(clustering, "select_k", "clustering.select_k")
    w(clustering, "kmeans_fit", "clustering.kmeans_fit",
      add("clustering.kmeans_fit_calls", lambda a, r: 1))
    w(clustering, "_kmeanspp", "clustering.kmeanspp")
    w(clustering, "_lloyd", "clustering.lloyd", add("clustering.lloyd_iters", lambda a, r: r[3]))
    w(clustering, "pairwise_distances", "clustering.pairwise_distances")
    w(clustering, "assign_patterns", "clustering.assign_patterns")

    w(pipeline, "stage1", "pipeline.stage1", add("pipeline.patterns", lambda a, r: r[1].k))
    w(pipeline, "run_integration", "pipeline.integration")
    w(pipeline, "run_direct", "pipeline.direct")
    w(pipeline, "compare", "pipeline.compare")
    w(pipeline, "stratified_split", "pipeline.stratified_split")
    w(pipeline, "fit_normalizer", "pipeline.normalize")
    w(pipeline, "apply_normalizer", "pipeline.normalize")
    w(pipeline, "smote", "resampling.smote", smote_count)
    w(resampling, "smote", "resampling.smote", smote_count)  # explain imports it at call time
    w(pipeline, "evaluate_predictions", "evaluation.evaluate")
    w(evaluation, "roc_auc", "evaluation.roc_auc")
    w(evaluation, "bootstrap_rate_distributions", "evaluation.bootstrap",
      add("evaluation.bootstrap_replicates", lambda a, r: len(r.fpr_samples)))

    w(classifiers, "fit", fit_name, fit_count)
    w(classifiers, "predict_scores", lambda args: f"classifiers.{args[0].algorithm}.predict")
    w(classifiers, "save_model", "reports.save_model")

    for attr in sorted(vars(reports)):
        if attr.startswith("write_") and callable(getattr(reports, attr)):
            w(reports, attr, "reports.write")
    w(reports.RunDirectory, "write_manifest", "reports.write")

    w(explain, "shap_matrix", "explain.shap_matrix",
      add("explain.rows_explained", lambda a, r: len(r.values)))
