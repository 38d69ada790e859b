"""Command-line pipeline: mine, features, rank, calibrate, evaluate,
correlate, sample, filter-corpus and ingest-truth.

Intermediate artifacts (history NDJSON, feature CSV) are cached per
repository tip and option set, so ranking twice does not re-mine. All
randomness flows from --seed. Domain errors exit nonzero with one
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, expertise, ml, stats, study
from .errors import FileExpertsError
from .features import (
    FEATURE_SCHEMA,
    FeatureTable,
    compute_all,
    feature_table_to_csv,
    read_feature_csv,
    write_feature_csv,
)
from .fileio import atomic_write_text
from .gitlog import (
    CommitHistory,
    branch_tip,
    extract_history,
    filter_source_files,
    load_history,
    save_history,
)
from .identities import DEFAULT_ALIAS_THRESHOLD, canonicalize_history
from .languages import DEFAULT_VENDOR_GLOBS, default_language_config, load_language_config

logger = logging.getLogger(__name__)


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repo", default=".", help="path to the git repository")
    parser.add_argument(
        "--branch", default="master", help="branch to mine (default master, falling back to HEAD)"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    parser.add_argument("--out", help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--cache-dir", default=".fileexperts-cache")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--alias-threshold", type=float, default=DEFAULT_ALIAS_THRESHOLD)
    parser.add_argument("--mod-threshold", type=float, default=0.40)
    parser.add_argument("--reference-time", help="ISO timestamp overriding the branch tip time")
    parser.add_argument("--alias-map", help="CSV of manual email aliases: email_a,email_b")
    parser.add_argument("--language-config", help="JSON language table overriding the bundled one")
    parser.add_argument(
        "--vendor-glob",
        action="append",
        dest="vendor_globs",
        help="glob of vendored paths to drop (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fileexperts",
        description="Identify source-code file experts from git history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine history and emit the feature CSV")
    p_mine.add_argument("--history-out", help="also write the history NDJSON here")
    p_feat = sub.add_parser("features", help="emit the feature CSV")

    p_rank = sub.add_parser("rank", help="rank developers for one file")
    p_rank.add_argument("--technique", choices=expertise.TECHNIQUES, required=True)
    p_rank.add_argument("--file", required=True)
    p_rank.add_argument("--k", type=float, help="threshold for marking experts")

    p_cal = sub.add_parser("calibrate", help="sweep thresholds against ground truth")
    p_cal.add_argument("--technique", choices=expertise.TECHNIQUES, default=expertise.DOA)
    p_cal.add_argument("--truth", required=True, help="ground-truth CSV")
    p_cal.add_argument("--folds", type=int, default=10)

    p_eval = sub.add_parser("evaluate", help="cross-validate an ML classifier")
    p_eval.add_argument("--classifier", choices=ml.KINDS, required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--folds", type=int, default=10)
    p_eval.add_argument(
        "--grid",
        choices=("default", "none"),
        default="none",
        help="'default' grid-searches hyperparameters; 'none' uses defaults",
    )

    p_corr = sub.add_parser("correlate", help="rank-correlate variables with knowledge")
    p_corr.add_argument("--truth", required=True)
    p_corr.add_argument(
        "--matrix", action="store_true", help="emit the pairwise variable matrix instead"
    )
    p_corr.add_argument(
        "--exact-p",
        action="store_true",
        help="permutation-test p-values instead of the t-approximation",
    )

    p_sample = sub.add_parser("sample", help="draw survey (developer, file) pairs")
    p_sample.add_argument("--limit", type=int, default=5, help="files per developer cap")

    p_filter = sub.add_parser("filter-corpus", help="apply the first-quartile corpus filter")
    p_filter.add_argument("metrics_csv", help="CSV with header repo,commits,files,developers")

    p_truth = sub.add_parser("ingest-truth", help="validate and join a ground-truth CSV")
    p_truth.add_argument("truth_csv")
    p_truth.add_argument(
        "--column-map",
        help="logical=actual header pairs, comma separated "
        "(logical: repo,developer_email,file,knowledge)",
    )

    for sub_parser in (
        p_mine,
        p_feat,
        p_rank,
        p_cal,
        p_eval,
        p_corr,
        p_sample,
        p_filter,
        p_truth,
    ):
        _add_pipeline_options(sub_parser)
    return parser


def _emit(args, text: str) -> None:
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_reference_time(value: str | None) -> datetime | None:
    if value is None:
        return None
    stamp = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


def _read_alias_map(path: str | None) -> list[tuple[str, str]] | None:
    if path is None:
        return None
    pairs = []
    with open(path, newline="", encoding="utf-8") as handle:
        for record in csv.reader(handle):
            if len(record) >= 2 and record[0].strip():
                pairs.append((record[0].strip(), record[1].strip()))
    return pairs


def _options_key(args, tip: str) -> str:
    """Cache key over every input that shapes the cached artifacts: the
    branch tip, the options, the language table's contents, and the code
    that computes the features."""
    alias_map = _read_alias_map(args.alias_map) or []
    language_config = (
        hashlib.sha256(Path(args.language_config).read_bytes()).hexdigest()
        if args.language_config
        else None
    )
    blob = json.dumps(
        {
            "version": __version__,
            "feature_schema": FEATURE_SCHEMA,
            "tip": tip,
            "alias_threshold": args.alias_threshold,
            "mod_threshold": args.mod_threshold,
            "reference_time": args.reference_time,
            "alias_map": alias_map,
            "language_config": language_config,
            "vendor_globs": args.vendor_globs or list(DEFAULT_VENDOR_GLOBS),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _pipeline(args) -> tuple[CommitHistory, FeatureTable]:
    """Mine, filter, canonicalize, and featurize, with per-tip caching."""
    config = (
        load_language_config(args.language_config)
        if args.language_config
        else default_language_config()
    )
    vendor = tuple(args.vendor_globs) if args.vendor_globs else DEFAULT_VENDOR_GLOBS
    _branch, tip = branch_tip(args.repo, args.branch)
    key = _options_key(args, tip)
    cache = Path(args.cache_dir)
    history_path = cache / f"history-{key}.ndjson"
    features_path = cache / f"features-{key}.csv"

    if not args.no_cache and history_path.exists():
        history = load_history(history_path)
    else:
        history = extract_history(args.repo, args.branch)
        history = filter_source_files(history, config=config, vendor_globs=vendor)
        history = canonicalize_history(
            history,
            threshold=args.alias_threshold,
            manual_aliases=_read_alias_map(args.alias_map),
        )
        override = _parse_reference_time(args.reference_time)
        if override is not None:
            history = replace(history, reference_time=override)
        if not args.no_cache:
            save_history(history, history_path)

    if not args.no_cache and features_path.exists():
        table = read_feature_csv(features_path, reference_time=history.reference_time)
    else:
        table = compute_all(history, config=config, mod_threshold=args.mod_threshold)
        if not args.no_cache:
            write_feature_csv(table, features_path)
    return history, table


def _warn(warning: str, **fields) -> None:
    """Write one machine-readable warning line to stderr."""
    sys.stderr.write(json.dumps({"warning": warning, **fields}, sort_keys=True) + "\n")


def _warn_unresolved(unresolved) -> None:
    for item in unresolved:
        _warn(
            "unresolved ground-truth pair",
            repo=item.repo,
            developer=item.developer,
            file=item.file,
            reason=item.reason,
        )


def _truth_inputs(args, table: FeatureTable):
    entries = study.read_ground_truth_csv(args.truth)
    processed = study.process_answers(entries, table)
    _warn_unresolved(processed.unresolved)
    return processed


# -- subcommand implementations ------------------------------------------------

def _cmd_mine(args) -> int:
    history, table = _pipeline(args)
    if getattr(args, "history_out", None):
        save_history(history, args.history_out)
    _emit(args, feature_table_to_csv(table))
    return 0


def _cmd_rank(args) -> int:
    history, table = _pipeline(args)
    scores = [
        s
        for s in expertise.technique_scores(table, args.technique)
        if s.file == args.file
    ]
    if not scores:
        sys.stderr.write(
            json.dumps({"error": "cli.NoScores", "message": f"no developers for {args.file!r}"})
            + "\n"
        )
        return 1
    experts = (
        {(s.developer, s.file) for s in scores} & expertise.classify(scores, args.k)
        if args.k is not None
        else set()
    )
    identities = history.metadata.get("identities", {})
    ranked = sorted(scores, key=lambda s: (-s.normalized, s.developer))
    if args.format == "json":
        payload = [
            {
                "rank": i + 1,
                "developer": s.developer,
                "display_name": identities.get(s.developer, {}).get("display_name", s.developer),
                "raw": s.raw,
                "normalized": s.normalized,
                **({"expert": (s.developer, s.file) in experts} if args.k is not None else {}),
            }
            for i, s in enumerate(ranked)
        ]
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["rank", "developer", "display_name", "raw", "normalized"]
    if args.k is not None:
        header.append("expert")
    writer.writerow(header)
    for i, s in enumerate(ranked):
        row = [
            i + 1,
            s.developer,
            identities.get(s.developer, {}).get("display_name", s.developer),
            s.raw,
            s.normalized,
        ]
        if args.k is not None:
            row.append((s.developer, s.file) in experts)
        writer.writerow(row)
    _emit(args, buf.getvalue())
    return 0


def _cmd_calibrate(args) -> int:
    _history, table = _pipeline(args)
    processed = _truth_inputs(args, table)
    scores = expertise.technique_scores(table, args.technique)
    curve = expertise.calibrate(scores, processed.oracle, folds=args.folds, seed=args.seed)
    if args.format == "json":
        payload = {
            "technique": curve.technique,
            "best_k": curve.best_k,
            "points": [
                {"k": p.k, "precision": p.precision, "recall": p.recall, "f_measure": p.f_measure}
                for p in curve.points
            ],
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit(args, expertise.threshold_curve_to_csv(curve))
        sys.stderr.write(f"best_k={curve.best_k}\n")
    return 0


def _cmd_evaluate(args) -> int:
    _history, table = _pipeline(args)
    processed = _truth_inputs(args, table)
    if args.grid == "default":
        spec, report = ml.grid_search(
            args.classifier, processed.dataset, folds=args.folds, seed=args.seed
        )
    else:
        spec = ml.ClassifierSpec(kind=args.classifier)
        report = ml.cross_validate(spec, processed.dataset, folds=args.folds, seed=args.seed)
    if args.format == "json":
        _emit(args, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["classifier", "hyperparams", "mean_precision", "mean_recall", "mean_f"])
    writer.writerow(
        [
            spec.kind,
            json.dumps(spec.merged(), sort_keys=True),
            report.mean_precision,
            report.mean_recall,
            report.mean_f,
        ]
    )
    _emit(args, buf.getvalue())
    return 0


def _cmd_correlate(args) -> int:
    _history, table = _pipeline(args)
    entries = study.read_ground_truth_csv(args.truth)
    knowledge, unresolved = study.knowledge_map(entries, table)
    _warn_unresolved(unresolved)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if args.matrix:
        matrix = stats.correlation_matrix(table, knowledge)
        writer.writerow(["variable_a", "variable_b", "rho", "p_value", "n"])
        for a in matrix.variables:
            for b in matrix.variables:
                cell = matrix.cell(a, b)
                if cell is not None:
                    writer.writerow([a, b, cell.rho, cell.p_value, cell.n])
    else:
        results, errors = stats.knowledge_correlations(
            table, knowledge, permutation_p=args.exact_p, seed=args.seed
        )
        writer.writerow(["variable", "rho", "p_value", "n"])
        for result in results:
            writer.writerow([result.variable, result.rho, result.p_value, result.n])
        for variable in sorted(errors):
            _warn("undefined correlation", variable=variable)
    _emit(args, buf.getvalue())
    return 0


def _cmd_sample(args) -> int:
    history, _table = _pipeline(args)
    pairs = study.generate_sample(history, file_limit=args.limit, seed=args.seed)
    _emit(args, study.sample_to_csv(pairs))
    return 0


def _cmd_filter_corpus(args) -> int:
    metrics = []
    with open(args.metrics_csv, newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            metrics.append(
                study.RepoMetrics(
                    repo=record["repo"],
                    commits=int(record["commits"]),
                    files=int(record["files"]),
                    developers=int(record["developers"]),
                )
            )
    included = study.quartile_filter(metrics)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["repo"])
    for metric in metrics:
        if metric.repo in included:
            writer.writerow([metric.repo])
    _emit(args, buf.getvalue())
    return 0


def _cmd_ingest_truth(args) -> int:
    column_map = None
    if args.column_map:
        column_map = dict(item.split("=", 1) for item in args.column_map.split(","))
    entries = study.read_ground_truth_csv(args.truth_csv, column_map=column_map)
    _history, table = _pipeline(args)
    processed = study.process_answers(entries, table)
    _warn_unresolved(processed.unresolved)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["developer", "file", "label"])
    for dev, file in sorted(processed.oracle.declared_experts):
        writer.writerow([dev, file, "expert"])
    for dev, file in sorted(processed.oracle.declared_non_experts):
        writer.writerow([dev, file, "non_expert"])
    _emit(args, buf.getvalue())
    return 0


_COMMANDS = {
    "mine": _cmd_mine,
    "features": _cmd_mine,
    "rank": _cmd_rank,
    "calibrate": _cmd_calibrate,
    "evaluate": _cmd_evaluate,
    "correlate": _cmd_correlate,
    "sample": _cmd_sample,
    "filter-corpus": _cmd_filter_corpus,
    "ingest-truth": _cmd_ingest_truth,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileExpertsError as exc:
        module = exc.__class__.__module__.rsplit(".", 1)[-1]
        sys.stderr.write(
            json.dumps(
                {"error": f"{module}.{exc.__class__.__name__}", "message": str(exc)},
                sort_keys=True,
            )
            + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
