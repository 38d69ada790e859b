"""Command-line pipeline: mine, features, rank, calibrate, evaluate,
correlate, sample, filter-corpus and ingest-truth.

Every command but filter-corpus reads one artifact, the feature table,
from one ``features.feature_table`` call in ``_table`` on the
``MiningInputs`` that ``_read_inputs`` alone reads. That call owns the
cache under --cache-dir (none under --no-cache), keyed by repository tip,
inputs and package code, so ranking twice does not re-mine, and a library
caller passing the same ``cache_dir`` shares its entries. ``mine
--history-out`` writes the full history. All randomness flows from --seed.
Domain errors exit nonzero with one machine-readable JSON object on stderr,
written by ``main`` alone, and each distinct library warning a command
raises becomes one JSON line there, written by ``_warn``.

Each command imports only the modules it runs: ``ml``, ``stats`` and
``study`` are imported inside the commands that use them, so ``mine``,
``features`` and ``rank``, which compute nothing with numpy, never load
numpy, and no command loads scipy. Computing the feature table and
``evaluate``'s cross-validation run on one forked worker per usable CPU
(``workers.map``, which forks with ``os.fork`` and loads no pool module); a
warm command, which only reads the cache, forks none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict, replace
from datetime import datetime, timezone

from . import expertise
from .diffs import MOD_THRESHOLD
from .errors import (
    FileExpertsError,
    FileExpertsWarning,
    InvalidColumnMap,
    InvalidReferenceTime,
    InvalidRepoMetrics,
    NoScores,
    TooFewRepos,
    UnreadableAliasMap,
)
from .features import (
    FeatureTable,
    MiningInputs,
    feature_table,
    feature_table_to_csv,
    mine_history,
)
from .fileio import atomic_write_text, csv_text, read_csv
from .gitlog import save_history
from .identities import DEFAULT_ALIAS_THRESHOLD
from .kinds import KINDS
from .languages import DEFAULT_VENDOR_GLOBS, load_language_config


def _usable_cpus() -> int:
    """The CPUs this process may run on: the worker count ``workers.map``
    gets from ``evaluate`` and from every command that computes the feature
    table. A CPU quota set by a cgroup is not read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repo", default=".", help="path to the git repository")
    parser.add_argument(
        "--branch", default="master", help="branch to mine (default master, falling back to HEAD)"
    )
    parser.add_argument("--cache-dir", default=".fileexperts-cache")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--alias-threshold", type=float, default=DEFAULT_ALIAS_THRESHOLD)
    parser.add_argument("--mod-threshold", type=float, default=MOD_THRESHOLD)
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
    p_corr_mode = p_corr.add_mutually_exclusive_group()  # the matrix has t-approximation p alone
    p_corr_mode.add_argument(
        "--matrix", action="store_true", help="emit the pairwise variable matrix instead"
    )
    p_corr_mode.add_argument(
        "--exact-p",
        action="store_true",
        help="permutation-test p-values: exact up to 8 pairs, 20,000 seeded permutations beyond",
    )

    p_sample = sub.add_parser("sample", help="draw survey (developer, file) pairs")
    p_sample.add_argument("--limit", type=int, default=5, help="files per developer cap")

    p_filter = sub.add_parser("filter-corpus", help="apply the first-quartile corpus filter")
    p_filter.add_argument("metrics_csv", help="CSV with header repo,commits,files,developers")

    p_truth = sub.add_parser("ingest-truth", help="validate and join a ground-truth CSV")
    p_truth.add_argument("truth", metavar="truth_csv")
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
    for sub_parser in (p_cal, p_eval, p_corr, p_sample):
        sub_parser.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    p_corr.set_defaults(seed=None)  # correlate draws only under --exact-p; main checks
    return parser


def _emit(args, text: str) -> None:
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_csv(args, header, rows) -> None:
    _emit(args, csv_text(header, rows))


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
    """The manual alias pairs; None without the flag or when the file names
    none, so an empty map shares the cache entry of no map."""
    if path is None:
        return None
    rows = read_csv(path, "--alias-map", UnreadableAliasMap, None, lambda *row: row)
    pairs = [(row[0].strip(), row[1].strip()) for row in rows if len(row) >= 2 and row[0].strip()]
    return pairs or None


def _read_inputs(args) -> MiningInputs:
    """The options that shape the feature table, each read, parsed and
    defaulted once; a threshold outside [0, 1] raises InvalidThreshold."""
    return MiningInputs(
        alias_threshold=args.alias_threshold,
        mod_threshold=args.mod_threshold,
        reference_time=_parse_reference_time(args.reference_time),
        alias_map=_read_alias_map(args.alias_map),
        language_config=load_language_config(args.language_config),
        vendor_globs=tuple(args.vendor_globs or DEFAULT_VENDOR_GLOBS),
    )


def _table(args) -> FeatureTable:
    """The feature table every analysis command reads: one
    ``features.feature_table`` call on the command's inputs and cache, after
    ``mine --history-out`` mines and writes what it mined, so that call does
    not mine again. The library's InvalidReferenceTime names its
    ``reference_time``; the CLI's names the flag the value came from."""
    inputs = _read_inputs(args)
    try:
        history = None
        if getattr(args, "history_out", None):  # only `mine` has --history-out
            history = mine_history(args.repo, args.branch, inputs)
            save_history(history, args.history_out)
        cache_dir = None if args.no_cache else args.cache_dir
        return feature_table(args.repo, args.branch, inputs, cache_dir, _usable_cpus(), history)
    except InvalidReferenceTime as exc:
        raise InvalidReferenceTime(
            str(exc).replace("reference_time", "--reference-time", 1)
        ) from None


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
        _warn("unresolved ground-truth pair", **asdict(item))


def _truth(args):
    """The feature table and its join with the ground-truth answers, for every
    command that reads ground truth. The CSV is read and checked before
    anything is mined; each answer that does not join is reported."""
    from . import study

    column_map = _parse_column_map(getattr(args, "column_map", None))
    entries = study.read_ground_truth_csv(args.truth, column_map=column_map)
    table = _table(args)
    processed = study.process_answers(entries, table)
    _warn_unresolved(processed.unresolved)
    return table, processed


# -- subcommand implementations ------------------------------------------------

def _cmd_mine(args) -> int:
    _emit(args, feature_table_to_csv(_table(args)))
    return 0


def _cmd_rank(args) -> int:
    if args.k is not None:
        expertise.check_k(args.k)
    table = _table(args)
    # normalization and doa's commit total are per file, so the file's own
    # rows score exactly as they do within the whole table
    rows = tuple(row for row in table.rows if row.file == args.file)
    scores = expertise.technique_scores(replace(table, rows=rows), args.technique)
    if not scores:
        raise NoScores(f"no developers for {args.file!r}")
    experts = expertise.classify(scores, args.k) if args.k is not None else set()
    names = {key: dev.display_name for key, dev in table.developers.items()}
    header = ["rank", "developer", "display_name", "raw", "normalized"]
    if args.k is not None:
        header.append("expert")
    rows = []
    for i, s in enumerate(sorted(scores, key=lambda s: (-s.normalized, s.developer))):
        row = [i + 1, s.developer, names.get(s.developer, s.developer), s.raw, s.normalized]
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
    from .validation import check_folds

    check_folds(args.folds)
    table, processed = _truth(args)
    scores = expertise.technique_scores(table, args.technique)
    curve = expertise.calibrate(scores, processed.oracle, folds=args.folds, seed=args.seed)
    if args.format == "json":
        _emit(args, json.dumps(asdict(curve), indent=2, sort_keys=True) + "\n")
    else:
        _emit(args, expertise.threshold_curve_to_csv(curve))
        sys.stderr.write(f"best_k={curve.best_k}\n")
    return 0


def _cmd_evaluate(args) -> int:
    from . import ml
    from .validation import check_folds

    check_folds(args.folds)
    _, processed = _truth(args)
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
    """Each variable's correlation with knowledge or, with --matrix, every
    pair's; either way one warning per variable that is constant over the
    labeled pairs, which has no coefficient."""
    from . import stats

    table, processed = _truth(args)
    if args.matrix:
        matrix = stats.correlation_matrix(table, processed.knowledge)
        undefined = [a for a in matrix.variables if (a, a) in matrix.errors]
        header = ["variable_a", "variable_b", "rho", "p_value", "n"]
        cells = ((a, b, matrix.cell(a, b)) for a in matrix.variables for b in matrix.variables)
        rows = [[a, b, c.rho, c.p_value, c.n] for a, b, c in cells if c is not None]
    else:
        results, undefined = stats.knowledge_correlations(
            table, processed.knowledge, permutation_p=args.exact_p, seed=args.seed or 0
        )
        header = ["variable", "rho", "p_value", "n"]
        rows = [[r.variable, r.rho, r.p_value, r.n] for r in results]
    for variable in sorted(undefined):
        _warn("undefined correlation", variable=variable)
    _emit_csv(args, header, rows)
    return 0


def _cmd_sample(args) -> int:
    from . import study

    study.check_file_limit(args.limit)
    pairs = study.generate_sample(_table(args), file_limit=args.limit, seed=args.seed)
    _emit(args, study.sample_to_csv(pairs))
    return 0


def _cmd_filter_corpus(args) -> int:
    from . import study

    named = set()

    def repo_metrics(repo, *counts):
        if repo in named:
            raise InvalidRepoMetrics(f"repo {repo!r} is named twice")
        named.add(repo)
        return study.RepoMetrics(repo, *map(int, counts))

    metrics = read_csv(
        args.metrics_csv,
        "metrics CSV",
        InvalidRepoMetrics,
        ("repo", "commits", "files", "developers"),
        repo_metrics,
    )
    try:
        included = study.quartile_filter(metrics)
    except TooFewRepos as exc:
        raise TooFewRepos(f"metrics CSV {args.metrics_csv}: {exc}") from None
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
    _, processed = _truth(args)
    labeled = list(zip(processed.oracle.pairs, processed.oracle.labels))
    _emit_csv(
        args,
        ["developer", "file", "label"],
        [[dev, file, "expert"] for (dev, file), expert in labeled if expert]
        + [[dev, file, "non_expert"] for (dev, file), expert in labeled if not expert],
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "correlate" and args.seed is not None and not args.exact_p:
        parser.error("correlate takes --seed only with --exact-p, its one randomized step")
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
