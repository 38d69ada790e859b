"""In-process traced run of the fileexperts pipeline.

The stages are called through their public functions in the order the CLI
calls them. While a Tracer is installed it replaces the module attributes
through which the layers call each other with wrappers that record spans
(name, start, end, parent) in memory; per-layer times, self times and exact
work counts are derived from those spans afterwards.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from fileexperts import diffs, expertise, features, gitlog, identities, ml, stats, study
from fileexperts.languages import DEFAULT_VENDOR_GLOBS, default_language_config

from workloads import BRANCH, Fixture, Workload


def _trimmed_cells(before, after) -> int:
    """LCS cells diff_lines fills: the middle left after the documented
    common prefix and suffix are matched."""
    n, m = len(before), len(after)
    limit = min(n, m)
    prefix = 0
    while prefix < limit and before[prefix] == after[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and before[n - 1 - suffix] == after[m - 1 - suffix]:
        suffix += 1
    return (n - prefix - suffix) * (m - prefix - suffix)


def _count_cells(counts: Counter, args, result) -> None:
    counts["diffs.dp_cells"] += _trimmed_cells(*args)


def _count_lineages(counts: Counter, args, result) -> None:
    counts["gitlog.lineages"] += len(result)


# (module or class, attribute, span name, suffix the span with the spec's
# classifier kind, count hook run after each call)
_WRAPPED = (
    (diffs, "diff_lines", "diffs.diff_lines", False, _count_cells),
    (diffs, "is_modification_pair", "diffs.is_modification_pair", False, None),
    (diffs, "levenshtein", "diffs.levenshtein", False, None),
    (diffs, "count_conditionals", "diffs.count_conditionals", False, None),
    (features, "classify_changes", "features.classify_changes", False, None),
    (features, "blame_from_events", "features.blame_from_events", False, None),
    (features, "resolve_lineages", "features.resolve_lineages", False, _count_lineages),
    (identities, "levenshtein", "identities.levenshtein", False, None),
    (ml, "cross_validate", "ml.cross_validate", True, None),
    (ml, "train", "ml.train", True, None),
    (ml.KNNModel, "predict_score", "ml.predict_score.knn", False, None),
    (ml.LogisticModel, "predict_score", "ml.predict_score.logistic_regression", False, None),
    (ml.RandomForestModel, "predict_score", "ml.predict_score.random_forest", False, None),
    (stats, "spearman_permutation_p", "stats.spearman_permutation_p", False, None),
)


@dataclass
class Tracer:
    """Spans in call order; ``parent`` is the index of the enclosing span."""

    spans: list = field(default_factory=list)  # [name, start, end, parent]
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, original, name, by_kind, count):
        def wrapper(*args, **kwargs):
            span = f"{name}.{args[0].kind}" if by_kind else name
            result = self.call(span, original, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, by_kind, count in _WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, by_kind, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds. Spans nest
        and run on one thread, so a span's children cover disjoint parts of
        it and self time is its duration minus theirs."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _parent), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def run_pipeline(workload: Workload, fixture: Fixture, cache: Path, tracer: Tracer) -> str:
    """One pass of the workload's commands in process: the cold mine
    stages, then the warm-cache reads and each analysis command. Exact
    counts go to ``tracer.counts``; returns the feature CSV the pass wrote."""
    config = default_language_config()
    cache.mkdir(parents=True)
    history_path = cache / "history-traced.ndjson"
    features_path = cache / "features-traced.csv"
    counts = tracer.counts

    raw = tracer.call("gitlog.extract_history", gitlog.extract_history, fixture.repo, BRANCH)
    counts["gitlog.commits"] = len(raw.commits)
    counts["gitlog.events"] = sum(len(c.changes) for c in raw.commits)
    counts["gitlog.content_bytes"] = sum(
        len((ev.before_content or "").encode()) + len((ev.after_content or "").encode())
        for c in raw.commits
        for ev in c.changes
    )
    history = tracer.call("gitlog.filter_source_files", gitlog.filter_source_files, raw,
                          config=config, vendor_globs=DEFAULT_VENDOR_GLOBS)
    counts["gitlog.kept_events"] = sum(len(c.changes) for c in history.commits)
    counts["identities.raw_identities"] = len({c.author for c in history.commits})
    history = tracer.call("identities.canonicalize_history", identities.canonicalize_history,
                          history, threshold=identities.DEFAULT_ALIAS_THRESHOLD)
    counts["identities.developers"] = len(history.metadata["identities"])
    tracer.call("gitlog.save_history", gitlog.save_history, history, history_path)
    table = tracer.call("features.compute_all", features.compute_all, history, config=config,
                        mod_threshold=diffs.MOD_THRESHOLD)
    counts["features.rows"] = len(table.rows)
    tracer.call("features.write_feature_csv", features.write_feature_csv, table, features_path)
    counts["cli.cache_bytes"] = history_path.stat().st_size + features_path.stat().st_size

    history = tracer.call("gitlog.load_history", gitlog.load_history, history_path)
    table = tracer.call("features.read_feature_csv", features.read_feature_csv, features_path,
                        reference_time=history.reference_time)
    mined = features_path.read_text("utf-8")
    if fixture.truth is None:
        tracer.call("expertise.technique_scores", expertise.technique_scores, table,
                    workload.rank_technique)
    else:
        _analysis(fixture, table, tracer)
    return mined


def _analysis(fixture: Fixture, table, tracer: Tracer) -> None:
    """The survey commands, called the way the CLI calls them."""
    entries = study.read_ground_truth_csv(fixture.truth)

    def answers():
        processed = tracer.call("study.process_answers", study.process_answers, entries, table)
        tracer.counts["study.labeled_pairs"] = len(processed.dataset)
        tracer.counts["study.unresolved_pairs"] = len(processed.unresolved)
        return processed

    processed = answers()
    scores = tracer.call("expertise.technique_scores", expertise.technique_scores, table,
                         expertise.DOA)
    tracer.call("expertise.calibrate", expertise.calibrate, scores, processed.oracle,
                folds=10, seed=0)
    ml.cross_validate(ml.ClassifierSpec(kind=ml.RANDOM_FOREST), answers().dataset,
                      folds=10, seed=0)
    for kind in (ml.KNN, ml.LOGISTIC_REGRESSION):
        ml.grid_search(kind, answers().dataset, folds=10, seed=0)
    knowledge, _unresolved = study.knowledge_map(entries, table)
    tracer.call("stats.knowledge_correlations", stats.knowledge_correlations, table, knowledge,
                permutation_p=True, seed=0)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_per_event")):
        return "ratio"
    return "count"


def _span(summary: dict, name: str, key: str = "total_s") -> float:
    return summary.get(name, {}).get(key, 0.0)


def layer_metrics(summary: dict, counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    calls = {name: entry["calls"] for name, entry in summary.items()}
    cv_runs = sum(n for name, n in calls.items() if name.startswith("ml.cross_validate."))
    return {
        "gitlog.extract_s": _span(summary, "gitlog.extract_history"),
        "gitlog.commits": counts["gitlog.commits"],
        "gitlog.events": counts["gitlog.events"],
        "gitlog.content_bytes": counts["gitlog.content_bytes"],
        "gitlog.filter_s": _span(summary, "gitlog.filter_source_files"),
        "gitlog.kept_event_ratio": counts["gitlog.kept_events"] / max(1, counts["gitlog.events"]),
        "gitlog.lineages_s": _span(summary, "features.resolve_lineages"),
        "gitlog.lineages": counts["gitlog.lineages"],
        "gitlog.save_history_s": _span(summary, "gitlog.save_history"),
        "gitlog.load_history_s": _span(summary, "gitlog.load_history"),
        "identities.canonicalize_s": _span(summary, "identities.canonicalize_history"),
        "identities.raw_identities": counts["identities.raw_identities"],
        "identities.developers": counts["identities.developers"],
        "identities.levenshtein_calls": calls.get("identities.levenshtein", 0),
        "identities.levenshtein_s": _span(summary, "identities.levenshtein"),
        "diffs.diff_lines_s": _span(summary, "diffs.diff_lines", "self_s"),
        "diffs.diff_lines_calls": calls.get("diffs.diff_lines", 0),
        "diffs.dp_cells": counts["diffs.dp_cells"],
        "diffs.diffs_per_event": calls.get("diffs.diff_lines", 0)
        / max(1, counts["gitlog.kept_events"]),
        "diffs.classify_s": _span(summary, "features.classify_changes"),
        "diffs.mod_pairs": calls.get("diffs.is_modification_pair", 0),
        "diffs.levenshtein_s": _span(summary, "diffs.levenshtein"),
        "diffs.conditionals_s": _span(summary, "diffs.count_conditionals"),
        "diffs.blame_s": _span(summary, "features.blame_from_events", "self_s"),
        "features.compute_all_s": _span(summary, "features.compute_all"),
        "features.self_s": _span(summary, "features.compute_all", "self_s"),
        "features.rows": counts["features.rows"],
        "features.write_csv_s": _span(summary, "features.write_feature_csv"),
        "features.read_csv_s": _span(summary, "features.read_feature_csv"),
        "expertise.technique_scores_s": _span(summary, "expertise.technique_scores"),
        "expertise.calibrate_s": _span(summary, "expertise.calibrate"),
        "study.process_answers_s": _span(summary, "study.process_answers"),
        "study.labeled_pairs": counts["study.labeled_pairs"],
        "study.unresolved_pairs": counts["study.unresolved_pairs"],
        "ml.cv_forest_s": _span(summary, "ml.cross_validate.random_forest"),
        "ml.train_forest_s": _span(summary, "ml.train.random_forest"),
        "ml.predict_forest_s": _span(summary, "ml.predict_score.random_forest"),
        "ml.cv_knn_s": _span(summary, "ml.cross_validate.knn"),
        "ml.cv_logreg_s": _span(summary, "ml.cross_validate.logistic_regression"),
        "ml.cv_runs": cv_runs,
        "stats.knowledge_correlations_s": _span(summary, "stats.knowledge_correlations"),
        "stats.permutation_s": _span(summary, "stats.spearman_permutation_p"),
        "stats.permutation_calls": calls.get("stats.spearman_permutation_p", 0),
        "cli.cache_bytes": counts["cli.cache_bytes"],
    }
