"""Mine a history and compute the twelve development variables per pair.

``mine_history`` is the one mining pipeline, which every command that mines
runs on the inputs a ``MiningInputs`` holds; ``compute_all`` is the one way
to turn the history into the (developer, file) feature table, blame
included. A file or pair absent at the reference version has no row.

All variables are evaluated at the history's reference version. A pair
exists exactly when the developer has at least one non-merge commit on the
file's lineage: ``gitlog.resolve_lineages`` decides which lineages exist,
and this module alone replays them. A lineage's file versions are read
through a ``gitlog.BlobReader`` when its replay starts, each once, and
dropped when it ends, so no more than one lineage's versions are held at a
time. Each version is split into lines once and each event diffed once
with ``diffs.diff_lines``; change counters (adds, dels, mods, conds)
classify its hunks, and blame and size count the line authors that
``blame_from_events`` replays from the same hunks.

Each lineage is independent of the others, so ``compute_all`` maps one
unit per lineage, heaviest first, over forked workers with ``workers.map``;
each worker, or this process when there is one, reads blobs through its own
``cat-file`` and closes it when its units are done. The rows are sorted
afterwards, so the table does not depend on the worker count.

``feature_table`` alone reads and writes the cache, for the CLI and library
callers alike: per branch tip, inputs and package code, the feature CSV and
a history NDJSON whose commits carry no file contents, which
``gitlog.load_history`` refuses. An entry that cannot be read is a miss: one
``errors.CorruptCacheWarning``, then a fresh mine that overwrites it. A
table's developer records come from ``identities.developer_ids``.
"""

from __future__ import annotations

import functools
import json
import warnings
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

from . import diffs, workers
from .diffs import MOD_THRESHOLD, check_mod_threshold, classify_changes, split_lines
from .errors import (
    CorruptCacheWarning, CorruptFeatureTable, CorruptHistory, InvalidReferenceTime,
)
from .fileio import atomic_write_text, csv_text, read_csv
from .gitlog import (
    ADDITION, BlobReader, CommitHistory, Lineage, branch_tip, extract_history,
    load_history_meta, resolve_lineages, save_history, source_predicate,
)
from .identities import (
    DEFAULT_ALIAS_THRESHOLD, DeveloperId, canonicalize_history, check_alias_threshold,
    developer_ids,
)
from .languages import DEFAULT_VENDOR_GLOBS, LanguageConfig, default_language_config


@dataclass(frozen=True)
class FeatureVector:
    adds: int
    dels: int
    mods: int
    conds: int
    amount: int  # adds + dels
    fa: int  # 1 iff the developer created the lineage head
    blame: int  # surviving lines at the reference version
    num_commits: int
    num_days: int  # whole days since the developer's last commit (floor)
    num_mod_devs: int  # distinct other developers committing afterwards
    size: int  # file lines at the reference version
    avg_days_commits: float  # mean gap between consecutive commits, in days

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, name) for name in FEATURE_NAMES)


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))

CSV_HEADER = ("developer", "file") + FEATURE_NAMES

_SECONDS_PER_DAY = 86400.0
_FEATURE_ROWS = "feature_rows"
_PACKAGE = Path(__file__).parent


@dataclass(frozen=True)
class FeatureRow:
    developer: str  # the developer's canonical key
    file: str
    features: FeatureVector


@dataclass(frozen=True)
class FeatureTable:
    """The rows, and the record of each developer they name, once by key;
    a table of a raw history holds no record, only its rows' keys."""

    rows: tuple[FeatureRow, ...]
    reference_time: datetime
    developers: Mapping[str, DeveloperId] = field(default_factory=dict)

    def pair_map(self) -> dict[tuple[str, str], FeatureVector]:
        return {(row.developer, row.file): row.features for row in self.rows}


def _row_developers(developers: Mapping[str, DeveloperId], rows) -> dict[str, DeveloperId]:
    """The records of the developers ``rows`` name, by key."""
    named = {row.developer for row in rows}
    return {key: dev for key, dev in developers.items() if key in named}


def blame_from_events(events, lines_per_event, hunks_per_event) -> list[str]:
    """The author of each line after replaying one lineage's (commit, event)
    pairs, given each event's (before, after) lines and canonical hunks.

    Added and modified lines go to the commit's author; the others keep
    theirs. An event's hunks turn its before-lines into its after-lines, so
    only authors are spliced, and the previous after-lines are diffed again
    only when they differ from an event's before-lines (after a merge, which
    is not replayed). An addition, or an event while no line is owned yet,
    resets authorship.
    """
    authors: list[str] = []
    previous: list[str] = []
    for (commit, event), (before, after), hunks in zip(
        events, lines_per_event, hunks_per_event, strict=True
    ):
        author = commit.author.key()
        if event.change_kind == ADDITION or not authors:
            # creation (or re-creation, or a lineage whose head was filtered
            # away): every current line belongs to this commit's author
            authors = [author] * len(after)
        else:
            if before != previous:
                hunks = diffs.diff_lines(previous, after)
            spliced: list[str] = []
            cursor = 0
            for hunk in hunks:
                spliced.extend(authors[cursor : hunk.before_start])
                spliced.extend([author] * len(hunk.added))
                cursor = hunk.before_start + len(hunk.removed)
            spliced.extend(authors[cursor:])
            authors = spliced
        previous = after
    return authors


def _replay(lineage: Lineage, blobs: BlobReader) -> tuple[list, list[str]]:
    """Each event's canonical hunks, and the author of each line they replay
    into: the lines of the last event's after-content, which is the file at
    the reference version.

    The versions are read through ``blobs`` together, each once, and each
    is split once: an event whose before-content is the previous event's
    after-content shares that event's after-lines. A blob read once is one
    string, so for blob versions the comparison is of identities."""
    lines = []
    text, after = None, []
    for before_text, after_text in blobs.versions(event for _, event in lineage.events):
        before = after if before_text == text else split_lines(before_text)
        text, after = after_text, split_lines(after_text)
        lines.append((before, after))
    hunks = [diffs.diff_lines(before, after) for before, after in lines]
    return hunks, blame_from_events(lineage.events, lines, hunks)


def _file_features(
    reference_time: datetime,
    lineage: Lineage,
    config: LanguageConfig,
    mod_threshold: float,
    blobs: BlobReader,
) -> dict[str, FeatureVector]:
    """All developers' feature vectors for one file lineage, its versions
    read through ``blobs``."""
    language = config.language_of(lineage.path)

    stats: dict[str, list[int]] = {}  # author -> [adds, dels, mods, conds]
    times: dict[str, list[datetime]] = {}
    last: dict[str, int] = {}  # author -> index of their last event
    hunks_per_event, authors = _replay(lineage, blobs)
    for index, ((commit, _event), hunks) in enumerate(zip(lineage.events, hunks_per_event)):
        author = commit.author.key()
        changed = classify_changes(hunks, mod_threshold, language)
        acc = stats.setdefault(author, [0, 0, 0, 0])
        acc[0] += changed.adds
        acc[1] += changed.dels
        acc[2] += changed.mods
        acc[3] += changed.conds
        times.setdefault(author, []).append(commit.timestamp)
        last[author] = index

    blame = Counter(authors)
    size = len(authors)
    creator = lineage.events[0][0].author.key()
    # Another developer commits after an author's last event exactly when
    # their own last event comes later, so an author's count of later
    # developers is the number of last events after theirs.
    later = {author: rank for rank, author in enumerate(sorted(last, key=last.get, reverse=True))}

    vectors: dict[str, FeatureVector] = {}
    for author, (adds, dels, mods, conds) in stats.items():
        stamps = sorted(times[author])
        num_commits = len(stamps)
        num_days = int((reference_time - stamps[-1]).total_seconds() // _SECONDS_PER_DAY)
        if num_commits > 1:
            gaps = [
                (b - a).total_seconds() / _SECONDS_PER_DAY
                for a, b in zip(stamps, stamps[1:])
            ]
            avg_days = sum(gaps) / len(gaps)
        else:
            avg_days = 0.0
        vectors[author] = FeatureVector(
            adds=adds,
            dels=dels,
            mods=mods,
            conds=conds,
            amount=adds + dels,
            fa=int(author == creator),
            blame=blame[author],
            num_commits=num_commits,
            num_days=num_days,
            num_mod_devs=later[author],
            size=size,
            avg_days_commits=avg_days,
        )
    return vectors


def compute_all(
    history: CommitHistory,
    config: LanguageConfig | None = None,
    mod_threshold: float = MOD_THRESHOLD,
    jobs: int = 1,
) -> FeatureTable:
    """One row per (developer, file) pair, ordered by file then developer.

    One unit per lineage is mapped over ``workers.map`` on ``jobs``
    workers, heaviest first (most events, then by path), so a free worker
    ends on the cheap lineages. Each process that replays reads the blobs
    of the history's repository through its own ``BlobReader``, which
    ``workers.map`` closes when its units are done. Raises
    InvalidThreshold, before any replay, when ``mod_threshold`` is outside
    [0, 1], and CorruptHistory when a blob cannot be read.
    """
    check_mod_threshold(mod_threshold)
    config = config or default_language_config()
    lineages = resolve_lineages(history)
    paths = sorted(lineages, key=lambda path: (-len(lineages[path].events), path))
    # started by the first read in each process, so a forked worker reads
    # through its own cat-file
    blobs = BlobReader(history.repository)

    def lineage_features(path: str) -> dict[str, FeatureVector]:
        return _file_features(history.reference_time, lineages[path], config, mod_threshold,
                              blobs)

    rows = [
        FeatureRow(developer=key, file=path, features=vector)
        for path, vectors in zip(paths, workers.map(lineage_features, paths, jobs, blobs))
        for key, vector in vectors.items()
    ]
    rows.sort(key=lambda row: (row.file, row.developer))
    return FeatureTable(rows=tuple(rows), reference_time=history.reference_time,
                        developers=_row_developers(developer_ids(history), rows))


# -- mining -------------------------------------------------------------------

@dataclass(frozen=True)
class MiningInputs:
    """Every input beside the repository and branch that shapes the feature
    table, with the CLI's defaults. ``mine_history`` runs on these values and
    ``feature_table``'s cache key hashes them, so the two cannot disagree. Raises
    InvalidThreshold when either threshold is outside [0, 1]."""

    alias_threshold: float = DEFAULT_ALIAS_THRESHOLD
    mod_threshold: float = MOD_THRESHOLD
    reference_time: datetime | None = None  # None: the history's own
    alias_map: list[tuple[str, str]] | None = None
    language_config: LanguageConfig = field(default_factory=default_language_config)
    vendor_globs: tuple[str, ...] = DEFAULT_VENDOR_GLOBS

    def __post_init__(self):
        check_alias_threshold(self.alias_threshold)
        check_mod_threshold(self.mod_threshold)


def mine_history(
    repo: str | Path, branch: str | None = "master", inputs: MiningInputs | None = None
) -> CommitHistory:
    """The branch's source files, extracted without reading any other blob,
    their aliases unified, then the reference-time override, which may not
    precede the history's own reference time (InvalidReferenceTime).
    ``inputs`` defaults to ``MiningInputs()``."""
    inputs = inputs or MiningInputs()
    keep = source_predicate(inputs.language_config, inputs.vendor_globs)
    history = extract_history(repo, branch, keep)
    history = canonicalize_history(history, inputs.alias_threshold, inputs.alias_map)
    if inputs.reference_time is not None:
        if inputs.reference_time < history.reference_time:
            raise InvalidReferenceTime(
                f"reference_time {inputs.reference_time.isoformat()} precedes the mined "
                f"history's reference time {history.reference_time.isoformat()}"
            )
        history = replace(history, reference_time=inputs.reference_time)
    return history


# -- CSV interchange ----------------------------------------------------------

def feature_table_to_csv(table: FeatureTable) -> str:
    return csv_text(
        CSV_HEADER,
        ([row.developer, row.file, *row.features.as_tuple()] for row in table.rows),
    )


def write_feature_csv(table: FeatureTable, path: str | Path) -> None:
    atomic_write_text(path, feature_table_to_csv(table))


def read_feature_csv(
    path: str | Path,
    reference_time: datetime | None = None,
    developers: Mapping[str, DeveloperId] | None = None,
) -> FeatureTable:
    """Load a feature CSV written by this library.

    The CSV holds only canonical keys; the table keeps the records of
    ``developers`` (as ``identities.developer_ids`` builds them from the
    history the table was computed from) that its rows name. Raises
    CorruptFeatureTable, naming the file and, for a row, its 1-based line,
    when the file is not what ``write_feature_csv`` writes.
    """

    def row(key: str, file: str, *counts: str) -> FeatureRow:
        vector = FeatureVector(*map(int, counts[:-1]), avg_days_commits=float(counts[-1]))
        return FeatureRow(developer=key, file=file, features=vector)

    rows = read_csv(path, "feature CSV", CorruptFeatureTable, CSV_HEADER, row)
    return FeatureTable(
        rows=tuple(rows),
        reference_time=reference_time or datetime.fromtimestamp(0, tz=timezone.utc),
        developers=_row_developers(developers or {}, rows),
    )


# -- the cached table ---------------------------------------------------------

def feature_table(
    repo: str | Path, branch: str | None = "master", inputs: MiningInputs | None = None,
    cache_dir: str | Path | None = None, jobs: int = 1, history: CommitHistory | None = None,
) -> FeatureTable:
    """``compute_all(mine_history(repo, branch, inputs))`` on ``jobs``
    workers, cached under ``cache_dir`` (None: no cache) by branch tip,
    inputs and package code. ``history`` is the branch already mined with
    ``inputs``, which a miss computes from instead of mining again.

    A hit reads the feature CSV and the cached history's meta line, whose
    reference time, developers and row count make it equal a fresh run's
    table. A miss files the meta line, the commits without contents and the
    CSV under the tip it mined. An entry that cannot be read (a meta line
    or CSV that is malformed or not UTF-8, identities metadata that
    ``developer_ids`` refuses, or a CSV whose row count is not the recorded
    one) is a miss that issues one CorruptCacheWarning naming the fault,
    and is then overwritten."""
    inputs = inputs or MiningInputs()
    if cache_dir is not None:
        tip = history.metadata["tip"] if history else branch_tip(repo, branch)[1]
        history_path, features_path = _cache_files(inputs, cache_dir, tip)
        if history_path.exists() and features_path.exists():
            try:
                head = load_history_meta(history_path)
                table = read_feature_csv(features_path, head.reference_time, developer_ids(head))
                recorded = head.metadata.get(_FEATURE_ROWS)
                if len(table.rows) != recorded:
                    raise CorruptFeatureTable(
                        f"{features_path} holds {len(table.rows)} rows; "
                        f"the cache recorded {recorded}"
                    )
                return table
            except (CorruptHistory, CorruptFeatureTable) as exc:
                warnings.warn(f"unreadable cache entry, mined again: {exc}", CorruptCacheWarning)
    history = history or mine_history(repo, branch, inputs)
    table = compute_all(history, inputs.language_config, inputs.mod_threshold, jobs)
    if cache_dir is not None:
        history_path, features_path = _cache_files(inputs, cache_dir, history.metadata["tip"])
        metadata = {**history.metadata, _FEATURE_ROWS: len(table.rows)}
        save_history(replace(history, metadata=metadata), history_path, contents=False)
        write_feature_csv(table, features_path)
    return table


def _cache_files(inputs: MiningInputs, cache_dir: str | Path, tip: str) -> tuple[Path, Path]:
    """The cached history NDJSON and feature CSV for ``inputs`` mined at
    ``tip`` by this code. The key material holds no set and takes no
    ``hash()``, so every process derives the same key."""
    blob = json.dumps(
        {"code": _package_crcs(), "tip": tip, **asdict(inputs)},
        sort_keys=True,
        default=datetime.isoformat,  # any other type is a TypeError
    )
    key = _digest(blob.encode())
    return Path(cache_dir, f"history-{key}.ndjson"), Path(cache_dir, f"features-{key}.csv")


def _digest(data: bytes) -> str:
    """A 64-bit digest, 16 hex digits: zlib's crc32 and adler32 of the same
    bytes side by side. It names cache entries, which needs no defence
    against forgery, and ``hashlib`` would map OpenSSL into every run."""
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


@functools.cache
def _package_crcs() -> dict[str, int]:
    """The crc32 of each file of this package, the bundled language table
    included, by relative path; ``__pycache__`` is left out. Any edit to the
    code therefore changes every cache key, and an installed copy of the
    same files gives the same key. Read once per process, so a run writes
    its entry under the key it looked up, whatever is edited meanwhile."""
    return {
        path.relative_to(_PACKAGE).as_posix(): zlib.crc32(path.read_bytes())
        for path in _PACKAGE.rglob("*")
        if path.is_file() and "__pycache__" not in path.relative_to(_PACKAGE).parts
    }
