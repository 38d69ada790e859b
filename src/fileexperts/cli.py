"""Command-line pipeline: mine, features, rank, calibrate, evaluate,
correlate, sample, filter-corpus and ingest-truth.

Every command but filter-corpus reads one artifact, the feature table,
cached per repository tip and option set (the feature CSV plus the meta
line of the cached history NDJSON), so ranking twice does not re-mine.
``_table`` alone reads and writes the cache; no command reads the cached
commits. All randomness flows from --seed. Domain errors exit nonzero with
one machine-readable JSON object on stderr, written by ``main`` alone, and
each distinct library warning a command raises becomes one JSON line there,
written by ``_warn``.

Each command imports only the modules it runs: ``ml``, ``stats`` and
``study`` are imported inside the commands that use them, so ``mine``,
``features`` and ``rank``, which compute nothing with numpy, never load
numpy or scipy.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import sys
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, expertise, languages
from .errors import (
    CorruptFeatureTable,
    CorruptHistory,
    FileExpertsError,
    FileExpertsWarning,
    InvalidColumnMap,
    InvalidReferenceTime,
    InvalidRepoMetrics,
    NoScores,
    UnreadableAliasMap,
)
from .features import (
    FEATURE_SCHEMA,
    FeatureTable,
    compute_all,
    developer_ids,
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
    history_from_ndjson,
    save_history,
)
from .identities import DEFAULT_ALIAS_THRESHOLD, canonicalize_history
from .kinds import KINDS
from .languages import DEFAULT_VENDOR_GLOBS, default_language_config, load_language_config

logger = logging.getLogger(__name__)

# Bumped whenever the cached files change shape, so a cache written by older
# code is re-mined rather than misread. 2: the meta line records the number
# of feature rows.
_CACHE_FORMAT = 2
_FEATURE_ROWS = "feature_rows"


def _usable_cpus() -> int:
    """The CPUs this process may run on, which ``evaluate`` uses as its
    worker count; a CPU quota set by a cgroup is not read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repo", default=".", help="path to the git repository")
    parser.add_argument(
        "--branch", default="master", help="branch to mine (default master, falling back to HEAD)"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
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
    sub.add_parser("features", help="emit the feature CSV")

    p_rank = sub.add_parser("rank", help="rank developers for one file")
    p_rank.add_argument("--technique", choices=expertise.TECHNIQUES, required=True)
    p_rank.add_argument("--file", required=True)
    p_rank.add_argument("--k", type=float, help="threshold for marking experts")

    p_cal = sub.add_parser("calibrate", help="sweep thresholds against ground truth")
    p_cal.add_argument("--technique", choices=expertise.TECHNIQUES, default=expertise.DOA)
    p_cal.add_argument("--truth", required=True, help="ground-truth CSV")
    p_cal.add_argument("--folds", type=int, default=10)

    p_eval = sub.add_parser("evaluate", help="cross-validate an ML classifier")
    p_eval.add_argument("--classifier", choices=KINDS, required=True)
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
        help="permutation-test p-values: exact up to 8 pairs, 20,000 seeded permutations beyond",
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

    for sub_parser in sub.choices.values():
        sub_parser.add_argument("--out", help="output file (stdout when omitted)")
        if sub_parser is not p_filter:
            _add_pipeline_options(sub_parser)
    for sub_parser in (p_rank, p_cal, p_eval):
        sub_parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _emit(args, text: str) -> None:
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_csv(args, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(args, buf.getvalue())


def _parse_reference_time(value: str | None) -> datetime | None:
    if value is None:
        return None
    try:
        stamp = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        raise InvalidReferenceTime(
            f"--reference-time {value!r} is not an ISO 8601 timestamp"
        ) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


def _read_alias_map(path: str | None) -> list[tuple[str, str]] | None:
    if path is None:
        return None
    pairs = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for record in csv.reader(handle):
                if len(record) >= 2 and record[0].strip():
                    pairs.append((record[0].strip(), record[1].strip()))
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableAliasMap(f"cannot read --alias-map {path}: {exc}") from None
    return pairs


def _options_key(args, tip: str) -> str:
    """Cache key over every input that shapes the cached artifacts: the
    branch tip, the options, the language table's contents, and the code
    that computes the features."""
    alias_map = _read_alias_map(args.alias_map) or []
    language_config = (
        hashlib.sha256(languages.read_language_table(args.language_config)).hexdigest()
        if args.language_config
        else None
    )
    blob = json.dumps(
        {
            "version": __version__,
            "cache_format": _CACHE_FORMAT,
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


def _cache_paths(args) -> tuple[Path, Path]:
    """The cached history NDJSON and feature CSV for these options."""
    _branch, tip = branch_tip(args.repo, args.branch)
    key = _options_key(args, tip)
    cache = Path(args.cache_dir)
    return cache / f"history-{key}.ndjson", cache / f"features-{key}.csv"


def _language_config(args):
    if args.language_config:
        return load_language_config(args.language_config)
    return default_language_config()


def _history(args) -> CommitHistory:
    """Mine the branch: extract, keep the source files, unify aliases, then
    apply the reference-time override. Reads and writes no cache."""
    override = _parse_reference_time(args.reference_time)
    vendor = tuple(args.vendor_globs) if args.vendor_globs else DEFAULT_VENDOR_GLOBS
    history = extract_history(args.repo, args.branch)
    history = filter_source_files(history, config=_language_config(args), vendor_globs=vendor)
    history = canonicalize_history(
        history,
        threshold=args.alias_threshold,
        manual_aliases=_read_alias_map(args.alias_map),
    )
    if override is not None:
        history = replace(history, reference_time=override)
    return history


def _table(args, history: CommitHistory | None = None) -> FeatureTable:
    """The feature table every analysis command reads; the one owner of the
    cache. A hit reads the feature CSV and only the cached history's meta
    line, which holds the reference time, the developers and the number of
    feature rows, so it equals the table a fresh run computes and a CSV cut
    at a line boundary is caught. A miss mines, unless given the history,
    and writes the history NDJSON and the feature CSV."""
    if args.no_cache:
        return compute_all(history or _history(args), _language_config(args), args.mod_threshold)
    history_path, features_path = _cache_paths(args)
    if history_path.exists() and features_path.exists():
        with history_path.open(encoding="utf-8") as handle:
            line = handle.readline()
        head = history_from_ndjson(line)
        if head.commits or not line.strip():
            raise CorruptHistory(f"{history_path} does not start with its meta line")
        table = read_feature_csv(features_path, head.reference_time, developer_ids(head))
        recorded = head.metadata.get(_FEATURE_ROWS)
        if len(table.rows) != recorded:
            raise CorruptFeatureTable(
                f"{features_path} holds {len(table.rows)} rows; the cache recorded {recorded}"
            )
        return table
    history = history or _history(args)
    table = compute_all(history, _language_config(args), args.mod_threshold)
    metadata = {**history.metadata, _FEATURE_ROWS: len(table.rows)}
    save_history(replace(history, metadata=metadata), history_path)
    write_feature_csv(table, features_path)
    return table


def _warn(warning: str, **fields) -> None:
    """Write one machine-readable warning line to stderr."""
    sys.stderr.write(json.dumps({"warning": warning, **fields}, sort_keys=True) + "\n")


def _qualified(kind: type) -> str:
    """A library exception or warning class as ``module.Name``."""
    return f"{kind.__module__.rsplit('.', 1)[-1]}.{kind.__name__}"


def _warn_caught(caught) -> None:
    """Each distinct Python warning a command raised, once, in the order
    first raised, so the report does not depend on how often a warning
    repeats (once per fold, say) or in which process it was raised."""
    for category, message in dict.fromkeys((w.category, str(w.message)) for w in caught):
        _warn(message, category=_qualified(category))


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
    from . import study

    entries = study.read_ground_truth_csv(args.truth)
    processed = study.process_answers(entries, table)
    _warn_unresolved(processed.unresolved)
    return processed


# -- subcommand implementations ------------------------------------------------

def _cmd_mine(args) -> int:
    history = None
    if getattr(args, "history_out", None):  # `features` has no --history-out
        history = _history(args)
        save_history(history, args.history_out)
    _emit(args, feature_table_to_csv(_table(args, history)))
    return 0


def _cmd_rank(args) -> int:
    table = _table(args)
    scores = [
        s
        for s in expertise.technique_scores(table, args.technique)
        if s.file == args.file
    ]
    if not scores:
        raise NoScores(f"no developers for {args.file!r}")
    experts = expertise.classify(scores, args.k) if args.k is not None else set()
    developers = table.developers()
    header = ["rank", "developer", "display_name", "raw", "normalized"]
    if args.k is not None:
        header.append("expert")
    rows = []
    for i, s in enumerate(sorted(scores, key=lambda s: (-s.normalized, s.developer))):
        row = [i + 1, s.developer, developers[s.developer].display_name, s.raw, s.normalized]
        if args.k is not None:
            row.append((s.developer, s.file) in experts)
        rows.append(row)
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit_csv(args, header, rows)
    return 0


def _cmd_calibrate(args) -> int:
    table = _table(args)
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
    from . import ml

    table = _table(args)
    processed = _truth_inputs(args, table)
    jobs = _usable_cpus()  # the report does not depend on it
    if args.grid == "default":
        spec, report = ml.grid_search(
            args.classifier, processed.dataset, folds=args.folds, seed=args.seed, jobs=jobs
        )
    else:
        spec = ml.ClassifierSpec(kind=args.classifier)
        report = ml.cross_validate(
            spec, processed.dataset, folds=args.folds, seed=args.seed, jobs=jobs
        )
    if args.format == "json":
        _emit(args, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        return 0
    _emit_csv(
        args,
        ["classifier", "hyperparams", "mean_precision", "mean_recall", "mean_f"],
        [
            [
                spec.kind,
                json.dumps(spec.merged(), sort_keys=True),
                report.mean_precision,
                report.mean_recall,
                report.mean_f,
            ]
        ],
    )
    return 0


def _cmd_correlate(args) -> int:
    from . import stats, study

    table = _table(args)
    entries = study.read_ground_truth_csv(args.truth)
    knowledge, unresolved = study.knowledge_map(entries, table)
    _warn_unresolved(unresolved)
    if args.matrix:
        matrix = stats.correlation_matrix(table, knowledge)
        cells = ((a, b, matrix.cell(a, b)) for a in matrix.variables for b in matrix.variables)
        _emit_csv(
            args,
            ["variable_a", "variable_b", "rho", "p_value", "n"],
            [[a, b, cell.rho, cell.p_value, cell.n] for a, b, cell in cells if cell is not None],
        )
        return 0
    results, errors = stats.knowledge_correlations(
        table, knowledge, permutation_p=args.exact_p, seed=args.seed
    )
    for variable in sorted(errors):
        _warn("undefined correlation", variable=variable)
    _emit_csv(
        args,
        ["variable", "rho", "p_value", "n"],
        [[r.variable, r.rho, r.p_value, r.n] for r in results],
    )
    return 0


def _cmd_sample(args) -> int:
    from . import study

    pairs = study.generate_sample(_table(args), file_limit=args.limit, seed=args.seed)
    _emit(args, study.sample_to_csv(pairs))
    return 0


def _cmd_filter_corpus(args) -> int:
    from . import study

    path = args.metrics_csv
    metrics = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            for record in reader:
                metrics.append(
                    study.RepoMetrics(
                        repo=record["repo"],
                        commits=int(record["commits"]),
                        files=int(record["files"]),
                        developers=int(record["developers"]),
                    )
                )
    except OSError as exc:
        raise InvalidRepoMetrics(f"cannot read metrics CSV {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise InvalidRepoMetrics(f"metrics CSV {path} lacks column {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidRepoMetrics(f"metrics CSV {path} line {reader.line_num}: {exc}") from None
    included = study.quartile_filter(metrics)
    _emit_csv(args, ["repo"], [[m.repo] for m in metrics if m.repo in included])
    return 0


def _parse_column_map(value: str | None) -> dict[str, str] | None:
    if not value:
        return None
    column_map = {}
    for item in value.split(","):
        logical, sep, actual = item.partition("=")
        if not sep:
            raise InvalidColumnMap(f"--column-map item {item!r} is not logical=actual")
        column_map[logical] = actual
    return column_map


def _cmd_ingest_truth(args) -> int:
    from . import study

    column_map = _parse_column_map(args.column_map)
    entries = study.read_ground_truth_csv(args.truth_csv, column_map=column_map)
    processed = study.process_answers(entries, _table(args))
    _warn_unresolved(processed.unresolved)
    oracle = processed.oracle
    _emit_csv(
        args,
        ["developer", "file", "label"],
        [[dev, file, "expert"] for dev, file in sorted(oracle.declared_experts)]
        + [[dev, file, "non_expert"] for dev, file in sorted(oracle.declared_non_experts)],
    )
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
    with warnings.catch_warnings(record=True) as caught:
        # every library warning reaches the report, whatever -W says
        warnings.simplefilter("always", FileExpertsWarning)
        try:
            return _COMMANDS[args.command](args)
        except FileExpertsError as exc:
            error = exc
        finally:
            _warn_caught(caught)
    sys.stderr.write(
        json.dumps({"error": _qualified(type(error)), "message": str(error)}, sort_keys=True)
        + "\n"
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
