"""Rank correlation between development variables and declared knowledge.

Spearman's rho is the Pearson correlation of average ranks. P-values use
the t-statistic approximation t = rho * sqrt((n-2) / (1-rho^2)) against a
t-distribution with n-2 degrees of freedom, two-sided, through
``scipy.special.stdtr`` alone; scipy is imported only on that path, so
permutation p-values load no scipy. A permutation test serves as an
independent check: exact enumeration for small samples, seeded Monte Carlo
beyond. It permutes the centred ranks of y once for any number of x columns
and scores each block of permutations with one matrix product. Average
ranks are multiples of 0.5 with mean (n+1)/2, so every centred product and
sum is exact in float64 (for n below about 10^5) and the result does not
depend on the order of summation.
"""

from __future__ import annotations

import itertools
import math
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


def _spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    x, y = _validate(x, y)
    return _rank_correlation(average_ranks(x), average_ranks(y))


def _t_approximation_p(rho: float, n: int) -> float:
    """Two-sided p-value of rho over n pairs by the t approximation."""
    # scipy.special imports in a third of the time scipy.stats takes;
    # stdtr(df, -t) is what scipy.stats.t.sf(t, df) evaluates
    from scipy.special import stdtr

    if 1.0 - rho * rho < 1e-15:
        return 0.0
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return min(float(2.0 * stdtr(n - 2, -abs(t))), 1.0)


def spearman(x: Sequence[float], y: Sequence[float], name: str = "") -> CorrelationResult:
    """Spearman rank correlation with a two-sided t-approximation p-value."""
    rho = _spearman_rho(x, y)
    return CorrelationResult(variable=name, rho=rho, p_value=_t_approximation_p(rho, len(x)),
                             n=len(x))


def _centred_ranks(values: np.ndarray) -> np.ndarray:
    ranks = average_ranks(values)
    return ranks - ranks.mean()


def _count_extreme(rows, cxs: np.ndarray, cy: np.ndarray, observed: np.ndarray):
    """Per column of ``cxs``, how many permutations of ``cy`` drawn from
    ``rows`` give |rho| >= observed.

    Rows are scored in blocks of about 2**20 values, one matrix product
    each; ``cy @ cy`` is the same for every permutation of ``cy``.
    """
    block = max(1, 2**20 // len(cy))
    denom = np.sqrt((cxs * cxs).sum(axis=1) * (cy @ cy))
    counts = np.zeros(len(cxs), dtype=np.int64)
    while chunk := list(itertools.islice(rows, block)):
        rhos = np.abs(np.array(chunk) @ cxs.T) / denom
        counts += (rhos >= observed - 1e-12).sum(axis=0)
    return counts


def spearman_permutation_p(
    x: Sequence[float] | Sequence[Sequence[float]],
    y: Sequence[float],
    exact_limit: int = 8,
    samples: int = 20000,
    seed: int = 0,
) -> float | list[float]:
    """Permutation-test p-value for Spearman's rho.

    ``x`` is one column of n values, giving one float, or a stack of k
    columns of shape (k, n), giving a list of k floats; every column is
    tested against the same permutations of ``y``. Exact enumeration for
    n <= exact_limit, otherwise a seeded Monte Carlo estimate with the
    add-one correction.
    """
    columns = np.asarray(x, dtype=float)
    stack = columns if columns.ndim == 2 else columns[np.newaxis]
    for column in stack:
        _validate(column, y)
    cy = _centred_ranks(np.asarray(y, dtype=float))
    cxs = np.array([_centred_ranks(column) for column in stack])
    observed = np.array([abs(_rank_correlation(cx, cy)) for cx in cxs])
    n = len(cy)
    if n <= exact_limit:
        counts = _count_extreme(itertools.permutations(cy.tolist()), cxs, cy, observed)
        p_values = counts / math.factorial(n)
    else:
        rng = np.random.default_rng(seed)
        rows = (rng.permutation(cy) for _ in range(samples))
        p_values = (_count_extreme(rows, cxs, cy, observed) + 1) / (samples + 1)
    return p_values.tolist() if columns.ndim == 2 else float(p_values[0])


def knowledge_correlations(
    table: FeatureTable,
    knowledge: Mapping[tuple[str, str], float],
    permutation_p: bool = False,
    seed: int = 0,
) -> tuple[list[CorrelationResult], dict[str, str]]:
    """Correlate each development variable with declared knowledge.

    Only pairs present in both the table and the knowledge map contribute.
    Returns results sorted by rho ascending plus a map of variables whose
    correlation was undefined. ``permutation_p`` takes permutation-test
    p-values (exact at small n, seeded Monte Carlo beyond) instead of the
    t-approximation ones, and then scipy is not loaded.
    """
    rows = [
        (row.features, knowledge[(row.developer.canonical_key, row.file)])
        for row in table.rows
        if (row.developer.canonical_key, row.file) in knowledge
    ]
    if len(rows) < 3:
        raise TooFewSamples(f"only {len(rows)} labeled pairs joined the feature table")
    know = [k for _f, k in rows]
    columns = {name: [getattr(f, name) for f, _k in rows] for name in FEATURE_NAMES}
    rhos: dict[str, float] = {}
    errors: dict[str, str] = {}
    for name, values in columns.items():
        try:
            rhos[name] = _spearman_rho(values, know)
        except ConstantInput as exc:
            errors[name] = str(exc)
    n = len(know)
    if permutation_p and rhos:
        p_values = spearman_permutation_p([columns[name] for name in rhos], know, seed=seed)
    else:
        p_values = [_t_approximation_p(rho, n) for rho in rhos.values()]
    results = [
        CorrelationResult(variable=name, rho=rho, p_value=p, n=n)
        for (name, rho), p in zip(rhos.items(), p_values)
    ]
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
