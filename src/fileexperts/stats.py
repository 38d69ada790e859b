"""Rank correlation between development variables and declared knowledge.

Spearman's rho is the Pearson correlation of average ranks. P-values use
the t-statistic approximation t = rho * sqrt((n-2) / (1-rho^2)) against a
t-distribution with n-2 degrees of freedom, two-sided; an exact permutation
test is available for small samples and serves as an independent check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConstantInput, LengthMismatch, TooFewSamples
from .features import FEATURE_NAMES, FeatureTable

KNOWLEDGE = "knowledge"


@dataclass(frozen=True)
class CorrelationResult:
    variable: str
    rho: float
    p_value: float
    n: int


@dataclass(frozen=True)
class CorrelationMatrix:
    variables: tuple[str, ...]
    cells: dict[tuple[str, str], CorrelationResult]
    errors: dict[tuple[str, str], str]

    def cell(self, a: str, b: str) -> CorrelationResult | None:
        return self.cells.get((a, b))


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their positions."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    start = 0
    while start < len(values):
        end = start
        while end + 1 < len(values) and values[order[end + 1]] == values[order[start]]:
            end += 1
        ranks[order[start : end + 1]] = (start + end) / 2.0 + 1.0
        start = end + 1
    return ranks


def _rank_correlation(rx: np.ndarray, ry: np.ndarray) -> float:
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    denom = np.sqrt((cx @ cx) * (cy @ cy))
    return float(np.clip((cx @ cy) / denom, -1.0, 1.0))


def _validate(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise LengthMismatch(f"|x|={len(x)} but |y|={len(y)}")
    if len(x) < 3:
        raise TooFewSamples(f"need at least 3 samples, got {len(x)}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ConstantInput("rho is undefined for a constant input")
    return x, y


def spearman(x: Sequence[float], y: Sequence[float], name: str = "") -> CorrelationResult:
    """Spearman rank correlation with a two-sided t-approximation p-value."""
    # scipy takes about a second to import; only this function needs it
    from scipy.stats import t as t_distribution

    x, y = _validate(x, y)
    n = len(x)
    rho = _rank_correlation(average_ranks(x), average_ranks(y))
    if 1.0 - rho * rho < 1e-15:
        p = 0.0
    else:
        t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
        p = float(2.0 * t_distribution.sf(abs(t), n - 2))
    return CorrelationResult(variable=name, rho=rho, p_value=min(p, 1.0), n=n)


def spearman_permutation_p(
    x: Sequence[float],
    y: Sequence[float],
    exact_limit: int = 8,
    samples: int = 20000,
    seed: int = 0,
) -> float:
    """Permutation-test p-value for Spearman's rho.

    Exact enumeration for n <= exact_limit, otherwise a seeded Monte Carlo
    estimate with the add-one correction.
    """
    x, y = _validate(x, y)
    rx, ry = average_ranks(x), average_ranks(y)
    observed = abs(_rank_correlation(rx, ry))
    n = len(x)
    if n <= exact_limit:
        perms = np.array(list(itertools.permutations(ry)))
        cx = rx - rx.mean()
        cp = perms - perms.mean(axis=1, keepdims=True)
        denom = np.sqrt((cx @ cx) * (cp * cp).sum(axis=1))
        rhos = np.abs(cp @ cx / denom)
        return int((rhos >= observed - 1e-12).sum()) / len(perms)
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(samples):
        permuted = rng.permutation(ry)
        if abs(_rank_correlation(rx, permuted)) >= observed - 1e-12:
            count += 1
    return (count + 1) / (samples + 1)


def knowledge_correlations(
    table: FeatureTable,
    knowledge: Mapping[tuple[str, str], float],
    permutation_p: bool = False,
    seed: int = 0,
) -> tuple[list[CorrelationResult], dict[str, str]]:
    """Correlate each development variable with declared knowledge.

    Only pairs present in both the table and the knowledge map contribute.
    Returns results sorted by rho ascending plus a map of variables whose
    correlation was undefined. ``permutation_p`` swaps the t-approximation
    p-values for permutation-test ones (exact at small n, seeded Monte
    Carlo beyond).
    """
    rows = [
        (row.features, knowledge[(row.developer.canonical_key, row.file)])
        for row in table.rows
        if (row.developer.canonical_key, row.file) in knowledge
    ]
    if len(rows) < 3:
        raise TooFewSamples(f"only {len(rows)} labeled pairs joined the feature table")
    know = [k for _f, k in rows]
    results = []
    errors: dict[str, str] = {}
    for name in FEATURE_NAMES:
        values = [getattr(f, name) for f, _k in rows]
        try:
            result = spearman(values, know, name=name)
            if permutation_p:
                p = spearman_permutation_p(values, know, seed=seed)
                result = CorrelationResult(name, result.rho, p, result.n)
            results.append(result)
        except ConstantInput as exc:
            errors[name] = str(exc)
    results.sort(key=lambda r: (r.rho, r.variable))
    return results, errors


def correlation_matrix(
    table: FeatureTable, knowledge: Mapping[tuple[str, str], float] | None = None
) -> CorrelationMatrix:
    """Pairwise Spearman matrix over the development variables.

    When a knowledge map is given, it joins as an extra variable and only
    labeled pairs contribute rows. Cells with a constant input are recorded
    in ``errors`` instead of fabricating a coefficient.
    """
    if knowledge is None:
        rows = [(row.features, None) for row in table.rows]
    else:
        rows = [
            (row.features, knowledge[(row.developer.canonical_key, row.file)])
            for row in table.rows
            if (row.developer.canonical_key, row.file) in knowledge
        ]
    if len(rows) < 3:
        raise TooFewSamples(f"need at least 3 rows, got {len(rows)}")
    columns: dict[str, list[float]] = {
        name: [getattr(f, name) for f, _k in rows] for name in FEATURE_NAMES
    }
    if knowledge is not None:
        columns[KNOWLEDGE] = [k for _f, k in rows]
    variables = tuple(columns)
    cells: dict[tuple[str, str], CorrelationResult] = {}
    errors: dict[tuple[str, str], str] = {}
    for i, a in enumerate(variables):
        for b in variables[i:]:
            try:
                result = spearman(columns[a], columns[b])
            except ConstantInput as exc:
                errors[(a, b)] = str(exc)
                errors[(b, a)] = str(exc)
                continue
            cells[(a, b)] = CorrelationResult(f"{a}|{b}", result.rho, result.p_value, result.n)
            cells[(b, a)] = CorrelationResult(f"{b}|{a}", result.rho, result.p_value, result.n)
    return CorrelationMatrix(variables=variables, cells=cells, errors=errors)
