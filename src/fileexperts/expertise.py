"""Linear expertise techniques: scoring, normalization, threshold
classification and threshold calibration.

Three techniques score a developer's expertise on a file: the authorship
model (a linear formula over first authorship, own commits and others'
commits), surviving blame lines, and commit counts. Raw scores are
normalized per file by the maximum among that file's developers, and a
developer is classified as an expert when the normalized score reaches a
threshold k (strictly above zero when k = 0).

Scoring and classification are plain Python. Only the scorer against
ground truth, ``calibrate``, imports numpy and ``validation``, so ranking a
file never loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EmptyOracle, InvalidThreshold, NegativeInput, UnscoredOraclePair
from .features import FeatureTable
from .fileio import csv_text

DOA = "doa"
BLAME = "blame"
NUM_COMMITS = "num_commits"
TECHNIQUES = (DOA, BLAME, NUM_COMMITS)

THRESHOLD_GRID = tuple(i / 10 for i in range(11))

Pair = tuple[str, str]  # (developer canonical key, file path)


@dataclass(frozen=True)
class ExpertiseScore:
    developer: str
    file: str
    technique: str
    raw: float
    normalized: float


@dataclass(frozen=True)
class OracleSets:
    """Labeled ground truth: declared experts and declared non-experts. The
    one place the labeled pairs are ordered: ``pairs`` holds them sorted and
    ``labels`` their expert flags in that order, outside equality and repr."""

    declared_experts: frozenset[Pair]
    declared_non_experts: frozenset[Pair]
    pairs: tuple[Pair, ...] = field(init=False, compare=False, repr=False)
    labels: tuple[bool, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        overlap = self.declared_experts & self.declared_non_experts
        if overlap:
            raise ValueError(f"oracle sets overlap on {sorted(overlap)[:3]}")
        pairs = tuple(sorted(self.labeled))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "labels", tuple(p in self.declared_experts for p in pairs))

    @property
    def labeled(self) -> frozenset[Pair]:
        return self.declared_experts | self.declared_non_experts


@dataclass(frozen=True)
class ThresholdPoint:
    k: float
    precision: float
    recall: float
    f_measure: float


@dataclass(frozen=True)
class ThresholdCurve:
    technique: str
    points: tuple[ThresholdPoint, ...]
    best_k: float


def doa(fa: int, dl: int, ac: int) -> float:
    """Degree-of-authorship score.

    ``fa`` is 1 when the developer created the file, ``dl`` counts the
    developer's own commits on it and ``ac`` the commits by everyone else.
    The weights are fixed constants of the model; they are not re-fit.
    """
    if dl < 0 or ac < 0:
        raise NegativeInput(f"dl={dl}, ac={ac} must be non-negative")
    return 3.293 + 1.098 * fa + 0.164 * dl - 0.321 * math.log(1 + ac)


def technique_scores(table: FeatureTable, technique: str) -> list[ExpertiseScore]:
    """Raw and per-file-normalized scores for every pair in the table.

    Normalization divides by the file's maximum raw score; when no
    developer has a positive raw score, every normalized score is 0 (and
    nobody can be classified as an expert).
    """
    if technique not in TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}; expected one of {TECHNIQUES}")

    by_file: dict[str, list[tuple[str, float]]] = {}
    commits_per_file: dict[str, int] = {}
    for row in table.rows:
        commits_per_file[row.file] = (
            commits_per_file.get(row.file, 0) + row.features.num_commits
        )
    for row in table.rows:
        if technique == DOA:
            dl = row.features.num_commits
            raw = doa(row.features.fa, dl, commits_per_file[row.file] - dl)
        elif technique == BLAME:
            raw = float(row.features.blame)
        else:
            raw = float(row.features.num_commits)
        by_file.setdefault(row.file, []).append((row.developer, raw))

    scores: list[ExpertiseScore] = []
    for file in sorted(by_file):
        entries = sorted(by_file[file])
        max_raw = max(raw for _dev, raw in entries)
        for dev, raw in entries:
            normalized = max(raw, 0.0) / max_raw if max_raw > 0 else 0.0
            scores.append(
                ExpertiseScore(
                    developer=dev, file=file, technique=technique, raw=raw, normalized=normalized
                )
            )
    return scores


def _is_expert(normalized, k: float):
    """The threshold rule, on one normalized score or an array of them:
    strictly positive at k = 0, at least k otherwise."""
    return normalized > 0.0 if k == 0.0 else normalized >= k


def check_k(k: float) -> None:
    """Raise InvalidThreshold unless the threshold k lies in [0, 1]; NaN lies
    nowhere."""
    if not 0.0 <= k <= 1.0:
        raise InvalidThreshold(f"k={k} outside [0, 1]")


def classify(scores: list[ExpertiseScore], k: float) -> set[Pair]:
    """Pairs classified as experts at threshold k.

    At k = 0 a strictly positive normalized score is required; for any
    other k the comparison is >=.
    """
    check_k(k)
    return {(s.developer, s.file) for s in scores if _is_expert(s.normalized, k)}


def calibrate(
    scores: list[ExpertiseScore],
    oracle: OracleSets,
    folds: int = 10,
    seed: int = 0,
) -> ThresholdCurve:
    """Sweep the 11-step threshold grid with stratified cross-validation.

    The folds stratify ``oracle.labels``, the labels of the dataset
    ``study.process_answers`` builds, so ``ml.cross_validate`` holds out the
    same pairs; each threshold's predictions are scored by one
    ``validation.fold_prf`` call, the scorer ``ml.cross_validate`` uses too.
    best_k maximizes mean F-measure, with ties broken toward the smallest k.
    """
    import numpy as np

    from .validation import fold_prf, stratified_folds

    if not oracle.declared_experts:
        raise EmptyOracle("no declared experts; recall is undefined")
    score_map = {(s.developer, s.file): s.normalized for s in scores}
    missing = oracle.labeled.difference(score_map)
    if missing:
        raise UnscoredOraclePair(
            f"{len(missing)} labeled pairs have no score, e.g. {sorted(missing)[:3]}"
        )
    actual = np.array(oracle.labels)
    normalized = np.array([score_map[pair] for pair in oracle.pairs])
    fold_indices = stratified_folds(actual, folds, seed)
    technique = scores[0].technique if scores else ""

    points = []
    for k in THRESHOLD_GRID:
        _per_fold, means = fold_prf(_is_expert(normalized, k), actual, fold_indices)
        points.append(ThresholdPoint(k, *means))
    best = max(points, key=lambda p: p.f_measure)  # the first, so the smallest k
    return ThresholdCurve(technique=technique, points=tuple(points), best_k=best.k)


def threshold_curve_to_csv(curve: ThresholdCurve) -> str:
    return csv_text(
        ["k", "precision", "recall", "f_measure"],
        ([p.k, p.precision, p.recall, p.f_measure] for p in curve.points),
    )
