"""Shared evaluation: stratified folds and the one held-out precision/recall/F scorer."""

from __future__ import annotations

import numpy as np

from .errors import InvalidCount, TooFewSamples


def check_folds(folds: int) -> None:
    """Raise InvalidCount unless there are at least two folds."""
    if folds < 2:
        raise InvalidCount(f"folds must be >= 2, got {folds}")


def stratified_folds(labels, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Split sample indices into seeded, label-stratified folds.

    Indices of each class are shuffled and dealt round-robin, so per-fold
    class counts differ from a proportional split by at most one sample.
    Returns one sorted index array per fold. The classes are taken in
    sorted order without ``np.unique``, which imports ``numpy.ma`` in
    numpy 2.4.
    """
    labels = np.asarray(labels)
    n = len(labels)
    check_folds(folds)
    if n < folds:
        raise TooFewSamples(f"{n} samples cannot fill {folds} folds")
    rng = np.random.default_rng(seed)
    assignment: list[list[int]] = [[] for _ in range(folds)]
    for value in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == value)
        rng.shuffle(idx)
        for position, sample in enumerate(idx):
            assignment[position % folds].append(int(sample))
    return [np.array(sorted(fold), dtype=int) for fold in assignment]


def prf(predicted: np.ndarray, actual: np.ndarray) -> tuple[float, float, float]:
    """Precision, recall and F-measure of boolean predictions against
    boolean labels, True being the expert class. Both families of
    techniques are scored here. A metric with an empty denominator is 0."""
    tp = int((predicted & actual).sum())
    positives, experts = int(predicted.sum()), int(actual.sum())
    precision = tp / positives if positives else 0.0
    recall = tp / experts if experts else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def fold_prf(predicted: np.ndarray, actual: np.ndarray, fold_indices):
    """``(per_fold, means)``: ``prf`` on each fold's positions of the aligned
    predictions and labels, and the mean of each metric, summed in fold order."""
    per_fold = tuple(prf(predicted[idx], actual[idx]) for idx in fold_indices)
    means = tuple(sum(metrics[i] for metrics in per_fold) / len(per_fold) for i in range(3))
    return per_fold, means
