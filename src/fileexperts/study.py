"""Study support: corpus filtering, bulk-import detection, survey sampling
and ground-truth processing."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    InvalidColumnMap,
    InvalidCount,
    InvalidGroundTruth,
    InvalidKnowledgeValue,
    TooFewRepos,
)
from .expertise import OracleSets
from .features import FeatureTable
from .fileio import csv_text, read_csv
from .gitlog import ADDITION, CommitHistory
from .ml import ML_FEATURE_NAMES, MLDataset

GROUND_TRUTH_COLUMNS = ("repo", "developer_email", "file", "knowledge")
EXPERT_KNOWLEDGE_FLOOR = 4  # declared expert means knowledge > 3


@dataclass(frozen=True)
class RepoMetrics:
    repo: str
    commits: int
    files: int
    developers: int


@dataclass(frozen=True)
class GroundTruthEntry:
    repo: str
    developer: str  # email as answered; resolved to a canonical key on join
    file: str
    knowledge: int

    def __post_init__(self):
        if not 1 <= self.knowledge <= 5:
            raise InvalidKnowledgeValue(
                f"knowledge {self.knowledge} for ({self.developer}, {self.file}) "
                "is outside 1..5"
            )


@dataclass(frozen=True)
class UnresolvedPair:
    repo: str
    developer: str
    file: str
    reason: str


@dataclass(frozen=True)
class ProcessedAnswers:
    oracle: OracleSets
    dataset: MLDataset
    unresolved: tuple[UnresolvedPair, ...]
    knowledge: dict[tuple[str, str], int]  # each labeled pair's 1..5 answer


def quartile_filter(metrics: Iterable[RepoMetrics]) -> set[str]:
    """Repositories surviving the first-quartile cut on every metric.

    Q1 uses linear interpolation between order statistics; a repository is
    removed when any of its three metrics falls strictly below that
    metric's Q1.
    """
    metrics = list(metrics)
    if len(metrics) < 4:
        raise TooFewRepos(f"need at least 4 repositories, got {len(metrics)}")
    survivors = {m.repo for m in metrics}
    for attribute in ("commits", "files", "developers"):
        values = [getattr(m, attribute) for m in metrics]
        q1 = float(np.quantile(values, 0.25))
        survivors &= {m.repo for m in metrics if getattr(m, attribute) >= q1}
    return survivors


def detect_bulk_import(history: CommitHistory) -> tuple[bool, frozenset[str]]:
    """Flag repositories whose files mostly arrived in outlier commits.

    Outliers of the files-added-per-commit distribution are commits above
    the upper Tukey fence (Q3 + 1.5 IQR). The flag raises when those
    commits account for more than half of all file additions.
    """
    adds = {c.id: sum(1 for ev in c.changes if ev.change_kind == ADDITION) for c in history.commits}
    if not adds:
        return False, frozenset()
    counts = np.array(list(adds.values()), dtype=float)
    q1, q3 = np.quantile(counts, [0.25, 0.75])
    fence = q3 + 1.5 * (q3 - q1)
    outliers = frozenset(cid for cid, n in adds.items() if n > fence)
    total = counts.sum()
    outlier_total = sum(adds[cid] for cid in outliers)
    return bool(total > 0 and outlier_total > 0.5 * total), outliers


def check_file_limit(file_limit: int) -> None:
    """Raise InvalidCount unless the per-developer file cap is at least 1."""
    if file_limit < 1:
        raise InvalidCount(f"file_limit must be >= 1, got {file_limit}")


def generate_sample(
    table: FeatureTable, file_limit: int = 5, seed: int = 0
) -> list[tuple[str, str]]:
    """Draw (developer, file) survey pairs under a per-developer file cap.

    Files are visited in a seeded random order; a file is accepted only if
    every developer with a row for it in the table (everyone who touched it)
    is still below the cap, in which case it is assigned to all of them.
    This keeps each sampled file answerable by its full developer set.
    """
    check_file_limit(file_limit)
    developers_of: dict[str, set[str]] = {}
    for row in table.rows:
        developers_of.setdefault(row.file, set()).add(row.developer)
    files = sorted(developers_of)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(files))
    assigned: dict[str, int] = {}
    pairs: list[tuple[str, str]] = []
    for index in order:
        file = files[index]
        developers = sorted(developers_of[file])
        if all(assigned.get(dev, 0) < file_limit for dev in developers):
            for dev in developers:
                assigned[dev] = assigned.get(dev, 0) + 1
                pairs.append((dev, file))
    return pairs


def sample_to_csv(pairs: list[tuple[str, str]]) -> str:
    """Survey sample CSV grouped by developer, each one's files in draw order."""
    return csv_text(["developer_email", "file"], sorted(pairs, key=lambda pair: pair[0]))


def read_ground_truth_csv(
    path: str | Path, column_map: Mapping[str, str] | None = None
) -> list[GroundTruthEntry]:
    """Read a ground-truth CSV (repo,developer_email,file,knowledge).

    ``column_map`` adapts external headers, mapping each logical column
    name to the header actually present in the file; a name outside
    GROUND_TRUTH_COLUMNS, or two mapped to one header, raises InvalidColumnMap.
    Raises InvalidGroundTruth as ``fileio.read_csv`` does (an empty file
    lacks every column), and InvalidKnowledgeValue, with the file and line,
    when a knowledge answer is not an integer in 1..5.
    """
    column_map = dict(column_map or {})
    unknown = sorted(set(column_map) - set(GROUND_TRUTH_COLUMNS))
    if unknown:
        raise InvalidColumnMap(
            f"column map names unknown logical columns {unknown}; "
            f"the logical columns are {','.join(GROUND_TRUTH_COLUMNS)}"
        )
    columns = [column_map.get(logical, logical) for logical in GROUND_TRUTH_COLUMNS]
    shared = [n for n, actual in zip(GROUND_TRUTH_COLUMNS, columns) if columns.count(actual) > 1]
    if shared:
        raise InvalidColumnMap(f"column map points logical columns {shared} at one header")

    def entry(*values: str) -> GroundTruthEntry:
        repo, developer, file, knowledge = (value.strip() for value in values)
        try:
            number = int(knowledge)
        except ValueError:
            raise InvalidKnowledgeValue(f"knowledge {knowledge!r} is not an integer") from None
        return GroundTruthEntry(repo, developer, file, number)

    return read_csv(path, "ground-truth CSV", InvalidGroundTruth, columns, entry)


def _email_resolver(table: FeatureTable) -> dict[str, str]:
    """Each row developer's key, and each e-mail its record holds, to the key."""
    email_to_key = {row.developer: row.developer for row in table.rows}
    for key, dev in table.developers.items():
        email_to_key.update((email.lower(), key) for email in dev.emails)
    return email_to_key


def knowledge_map(
    entries: Iterable[GroundTruthEntry], table: FeatureTable
) -> tuple[dict[tuple[str, str], int], tuple[UnresolvedPair, ...]]:
    """Join raw 1..5 knowledge answers onto canonical (developer, file)
    pairs of the feature table; unmatched answers are reported."""
    email_to_key = _email_resolver(table)
    pair_map = table.pair_map()
    resolved: dict[tuple[str, str], int] = {}
    unresolved: list[UnresolvedPair] = []
    for entry in entries:
        key = email_to_key.get(entry.developer.strip().lower())
        if key is None:
            unresolved.append(
                UnresolvedPair(entry.repo, entry.developer, entry.file, "unknown developer")
            )
        elif (key, entry.file) not in pair_map:
            unresolved.append(
                UnresolvedPair(entry.repo, entry.developer, entry.file, "pair not in history")
            )
        else:
            resolved[(key, entry.file)] = entry.knowledge
    return resolved, tuple(unresolved)


def process_answers(
    entries: Iterable[GroundTruthEntry], table: FeatureTable
) -> ProcessedAnswers:
    """Join survey answers with the feature table.

    Knowledge above 3 lands in the declared-expert set, the rest in the
    declared-non-expert set. Answers whose developer or file cannot be
    matched against the table are reported, never silently dropped. A pair
    answered twice keeps its last answer. Dataset row i is ``oracle.pairs[i]``.
    """
    pair_map = table.pair_map()
    labeled, unresolved = knowledge_map(entries, table)
    experts = frozenset(p for p, k in labeled.items() if k >= EXPERT_KNOWLEDGE_FLOOR)
    non_experts = frozenset(p for p, k in labeled.items() if k < EXPERT_KNOWLEDGE_FLOOR)
    oracle = OracleSets(declared_experts=experts, declared_non_experts=non_experts)
    features = np.array(
        [[getattr(pair_map[pair], name) for name in ML_FEATURE_NAMES] for pair in oracle.pairs],
        dtype=float,
    ).reshape(len(oracle.pairs), len(ML_FEATURE_NAMES))
    return ProcessedAnswers(
        oracle=oracle,
        dataset=MLDataset(features=features, labels=np.array(oracle.labels, dtype=bool)),
        unresolved=unresolved,
        knowledge=labeled,
    )
