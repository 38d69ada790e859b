"""Mine a history and compute the twelve development variables per pair.

``mine_history`` is the one mining pipeline, which every command that mines
runs on the inputs a ``MiningInputs`` holds; ``compute_all`` turns the
history into the (developer, file) feature table.

All variables are evaluated at the history's reference version. A pair
exists exactly when the developer has at least one non-merge commit on the
file's lineage: ``gitlog.resolve_lineages`` decides which lineages exist,
and this module alone replays them. Each file version is split into lines
once and each event diffed once with ``diffs.diff_lines``; change counters
(adds, dels, mods, conds) classify its hunks, and blame and size replay the
lineage's authorship with the same hunks.

Each lineage is independent of the others, so ``compute_all`` can map
chunks of lineages over forked workers with ``workers.map``; the rows are
sorted afterwards, so the table does not depend on the worker count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from . import diffs, workers
from .diffs import MOD_THRESHOLD, check_mod_threshold, classify_changes, split_lines
from .errors import CorruptFeatureTable, FileNotInHistory, InvalidReferenceTime, PairNotInHistory
from .fileio import atomic_write_text, csv_text, read_csv
from .gitlog import (
    ADDITION, CommitHistory, Lineage, extract_history, resolve_lineages, source_predicate,
)
from .identities import (
    DEFAULT_ALIAS_THRESHOLD, DeveloperId, canonicalize_history, check_alias_threshold,
)
from .languages import DEFAULT_VENDOR_GLOBS, LanguageConfig, default_language_config

FEATURE_NAMES = (
    "adds",
    "dels",
    "mods",
    "conds",
    "amount",
    "fa",
    "blame",
    "num_commits",
    "num_days",
    "num_mod_devs",
    "size",
    "avg_days_commits",
)

CSV_HEADER = ("developer", "file") + FEATURE_NAMES

_SECONDS_PER_DAY = 86400.0

# lineage chunks per worker: more than one lets a worker that drew cheap
# lineages take another chunk while the others finish
_CHUNKS_PER_WORKER = 4


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


@dataclass(frozen=True)
class BlameState:
    """Per-line authorship of a file at the replayed reference version.

    Authors are canonical developer keys (emails) taken from the commit
    records of the replayed history.
    """

    file: str
    lines: tuple[tuple[str, str], ...]  # (line text, author key)

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for _text, author in self.lines:
            totals[author] = totals.get(author, 0) + 1
        return totals


@dataclass(frozen=True)
class FeatureRow:
    developer: DeveloperId
    file: str
    features: FeatureVector


@dataclass(frozen=True)
class FeatureTable:
    rows: tuple[FeatureRow, ...]
    reference_time: datetime

    def pair_map(self) -> dict[tuple[str, str], FeatureVector]:
        return {(row.developer.canonical_key, row.file): row.features for row in self.rows}

    def files(self) -> list[str]:
        return sorted({row.file for row in self.rows})

    def developers(self) -> dict[str, DeveloperId]:
        return {row.developer.canonical_key: row.developer for row in self.rows}


def developer_ids(history: CommitHistory) -> dict[str, DeveloperId]:
    """Developer objects per canonical key, from metadata when the history
    was canonicalized, otherwise synthesized from the raw authors."""
    meta = history.metadata.get("identities") if history.metadata else None
    ids: dict[str, DeveloperId] = {}
    if isinstance(meta, dict):
        for key, entry in meta.items():
            ids[key] = DeveloperId(
                canonical_key=key,
                display_name=entry.get("display_name", key),
                emails=frozenset(entry.get("emails", [key])),
                names=frozenset(entry.get("names", [])),
            )
    for commit in history.commits:
        key = commit.author.key()
        if key not in ids:
            ids[key] = DeveloperId(
                canonical_key=key,
                display_name=commit.author.name or key,
                emails=frozenset([key]),
                names=frozenset([commit.author.name] if commit.author.name else []),
            )
    return ids


def _lineage(history: CommitHistory, file: str) -> Lineage:
    """The lineage of a file present at the reference version; raises
    FileNotInHistory for any other path."""
    lineage = resolve_lineages(history).get(file)
    if lineage is None:
        raise FileNotInHistory(f"{file!r} does not exist at the reference version")
    return lineage


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


def _replay(lineage: Lineage) -> tuple[list, BlameState]:
    """Each event's canonical hunks, and the blame they replay into: the
    last event's after-lines, which are the file at the reference version.

    Each file version is split once: an event whose before-content is the
    previous event's after-content shares that event's after-lines."""
    lines = []
    text, after = None, []
    for _, event in lineage.events:
        before = after if event.before_content == text else split_lines(event.before_content)
        text, after = event.after_content, split_lines(event.after_content)
        lines.append((before, after))
    hunks = [diffs.diff_lines(before, after) for before, after in lines]
    authors = blame_from_events(lineage.events, lines, hunks)
    return hunks, BlameState(lineage.path, tuple(zip(lines[-1][1], authors, strict=True)))


def replay_blame(history: CommitHistory, file: str) -> BlameState:
    """Per-line authorship of a file at the reference version."""
    return _replay(_lineage(history, file))[1]


def _file_features(
    history: CommitHistory,
    lineage: Lineage,
    config: LanguageConfig,
    mod_threshold: float,
) -> dict[str, FeatureVector]:
    """All developers' feature vectors for one file lineage."""
    language = config.language_of(lineage.path)
    reference = history.reference_time

    order: list[str] = []  # event authors in replay order
    stats: dict[str, list[int]] = {}  # author -> [adds, dels, mods, conds]
    times: dict[str, list[datetime]] = {}
    hunks_per_event, blame = _replay(lineage)
    for (commit, _event), hunks in zip(lineage.events, hunks_per_event):
        author = commit.author.key()
        order.append(author)
        changed = classify_changes(hunks, mod_threshold, language=language, config=config)
        acc = stats.setdefault(author, [0, 0, 0, 0])
        acc[0] += changed.adds
        acc[1] += changed.dels
        acc[2] += changed.mods
        acc[3] += changed.conds
        times.setdefault(author, []).append(commit.timestamp)

    blame_counts = blame.counts()
    size = len(blame.lines)
    creator = order[0]

    vectors: dict[str, FeatureVector] = {}
    for author, (adds, dels, mods, conds) in stats.items():
        stamps = sorted(times[author])
        num_commits = len(stamps)
        num_days = int((reference - stamps[-1]).total_seconds() // _SECONDS_PER_DAY)
        if num_commits > 1:
            gaps = [
                (b - a).total_seconds() / _SECONDS_PER_DAY
                for a, b in zip(stamps, stamps[1:])
            ]
            avg_days = sum(gaps) / len(gaps)
        else:
            avg_days = 0.0
        last_index = max(i for i, a in enumerate(order) if a == author)
        others_after = {a for a in order[last_index + 1 :] if a != author}
        vectors[author] = FeatureVector(
            adds=adds,
            dels=dels,
            mods=mods,
            conds=conds,
            amount=adds + dels,
            fa=int(author == creator),
            blame=blame_counts.get(author, 0),
            num_commits=num_commits,
            num_days=num_days,
            num_mod_devs=len(others_after),
            size=size,
            avg_days_commits=avg_days,
        )
    return vectors


def compute_features(
    history: CommitHistory,
    developer: DeveloperId | str,
    file: str,
    config: LanguageConfig | None = None,
    mod_threshold: float = MOD_THRESHOLD,
) -> FeatureVector:
    """Feature vector for one (developer, file) pair.

    Raises InvalidThreshold, before any replay, when ``mod_threshold`` is
    outside [0, 1], FileNotInHistory when the file is absent at the
    reference version and PairNotInHistory when the developer never
    touched it.
    """
    check_mod_threshold(mod_threshold)
    config = config or default_language_config()
    key = developer.canonical_key if isinstance(developer, DeveloperId) else developer
    vectors = _file_features(history, _lineage(history, file), config, mod_threshold)
    if key not in vectors:
        raise PairNotInHistory(f"{key!r} has no commits on {file!r}")
    return vectors[key]


def compute_all(
    history: CommitHistory,
    config: LanguageConfig | None = None,
    mod_threshold: float = MOD_THRESHOLD,
    jobs: int = 1,
) -> FeatureTable:
    """One row per (developer, file) pair, ordered by file then developer.

    With ``jobs`` above 1 the lineages are split into a few chunks
    per worker, balanced by event count, and mapped over ``workers.map``.
    Raises InvalidThreshold, before any replay, when ``mod_threshold`` is
    outside [0, 1].
    """
    check_mod_threshold(mod_threshold)
    config = config or default_language_config()
    ids = developer_ids(history)
    lineages = resolve_lineages(history)

    def chunk_features(chunk: list[str]) -> list[tuple[str, dict[str, FeatureVector]]]:
        return [
            (path, _file_features(history, lineages[path], config, mod_threshold))
            for path in chunk
        ]

    chunks = _balanced_chunks(
        {path: len(lineage.events) for path, lineage in lineages.items()},
        jobs * _CHUNKS_PER_WORKER if jobs > 1 else 1,
    )
    rows: list[FeatureRow] = []
    for chunk in workers.map(chunk_features, chunks, jobs):
        for path, vectors in chunk:
            for key in vectors:
                rows.append(FeatureRow(developer=ids[key], file=path, features=vectors[key]))
    rows.sort(key=lambda row: (row.file, row.developer.canonical_key))
    return FeatureTable(rows=tuple(rows), reference_time=history.reference_time)


def _balanced_chunks(weights: dict[str, int], count: int) -> list[list[str]]:
    """Up to ``count`` non-empty chunks of the keys, heaviest key first, each
    to the lightest chunk so far (ties to the one holding fewer keys, then
    to the lower index)."""
    chunks: list[list[str]] = [[] for _ in range(min(count, len(weights)))]
    loads = [(0, 0, index) for index in range(len(chunks))]
    for key in sorted(weights, key=lambda key: (-weights[key], key)):
        load, size, index = heapq.heappop(loads)
        chunks[index].append(key)
        heapq.heappush(loads, (load + weights[key], size + 1, index))
    return chunks


# -- mining -------------------------------------------------------------------

@dataclass(frozen=True)
class MiningInputs:
    """Every input beside the repository and branch that shapes the feature
    table, with the CLI's defaults. ``mine_history`` runs on these values and
    the CLI's cache key hashes them, so the two cannot disagree. Raises
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
        ([row.developer.canonical_key, row.file, *row.features.as_tuple()] for row in table.rows),
    )


def write_feature_csv(table: FeatureTable, path: str | Path) -> None:
    atomic_write_text(path, feature_table_to_csv(table))


def read_feature_csv(
    path: str | Path,
    reference_time: datetime | None = None,
    developers: dict[str, DeveloperId] | None = None,
) -> FeatureTable:
    """Load a feature CSV written by this library.

    The CSV holds only canonical keys; each row's developer is taken from
    ``developers`` (as built by ``developer_ids`` from the history the table
    was computed from), else it carries only its key. Raises
    CorruptFeatureTable, naming the file and, for a row, its 1-based line,
    when the file is not what ``write_feature_csv`` writes.
    """
    developers = developers or {}

    def row(key: str, file: str, *counts: str) -> FeatureRow:
        vector = FeatureVector(*map(int, counts[:-1]), avg_days_commits=float(counts[-1]))
        developer = developers.get(key) or DeveloperId(
            canonical_key=key,
            display_name=key,
            emails=frozenset([key]),
            names=frozenset(),
        )
        return FeatureRow(developer=developer, file=file, features=vector)

    rows = read_csv(path, "feature CSV", CorruptFeatureTable, CSV_HEADER, row)
    return FeatureTable(
        rows=tuple(rows),
        reference_time=reference_time or datetime.fromtimestamp(0, tz=timezone.utc),
    )
