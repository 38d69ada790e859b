"""Rank correlation between development variables and declared knowledge.

Spearman's rho is the Pearson correlation of average ranks. P-values use
the t-statistic approximation t = rho * sqrt((n-2) / (1-rho^2)) against a
t-distribution with n-2 degrees of freedom, two-sided: the tail
I_{1-rho^2}((n-2)/2, 1/2), evaluated for the float rho in stdlib ``decimal``
at 40 digits and rounded to float once, so the p-values are the same bits
on every host. A permutation test serves as an independent check: exact
enumeration for small samples, seeded Monte Carlo beyond. It permutes the
centred ranks of y once for any number of x columns and scores each block
of permutations with one matrix product. Average ranks are multiples of
0.5 with mean (n+1)/2, so every centred product and sum is exact in float64
(for n below about 10^5) and the result does not depend on the order of
summation. Every statistic ranks each column once, through ``_ranked``,
which also checks the columns' lengths and marks the constant ones, for
which rho is undefined.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from typing import Mapping, Sequence

import numpy as np

from .errors import ConstantInput, LengthMismatch, TooFewSamples
from .features import FEATURE_NAMES, FeatureTable

KNOWLEDGE = "knowledge"
_UNDEFINED = "rho is undefined for a constant input"
# The permutation test enumerates every ordering up to this many pairs
# (8! = 40,320) and samples orderings beyond it.
_EXACT_LIMIT = 8


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
    _, group, counts = np.unique(
        np.asarray(values, dtype=float), return_inverse=True, return_counts=True
    )
    last = np.cumsum(counts)  # the 1-based position of each tie group's last value
    return ((last - counts + 1 + last) / 2.0)[group]


def _ranked(columns: Sequence[Sequence[float]]) -> list[np.ndarray | None]:
    """Each column's average ranks, or None for a constant column, once the
    columns are checked to share one length of at least 3."""
    columns = [np.asarray(column, dtype=float) for column in columns]
    n = len(columns[-1])
    for column in columns:
        if len(column) != n:
            raise LengthMismatch(f"|x|={len(column)} but |y|={n}")
    if n < 3:
        raise TooFewSamples(f"need at least 3 samples, got {n}")
    return [None if np.all(column == column[0]) else average_ranks(column) for column in columns]


def _rank_correlation(rx: np.ndarray, ry: np.ndarray) -> float:
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    denom = np.sqrt((cx @ cx) * (cy @ cy))
    return float(np.clip((cx @ cy) / denom, -1.0, 1.0))


# The working precision of the Student-t tail, in decimal digits; the
# continued fraction stops once a step changes it by less than 10**-35.
_DIGITS = 40
_CONVERGED = Decimal("1e-35")
_TINY = Decimal("1e-80")  # stands in for a zero denominator (modified Lentz)
_HALF = Decimal("0.5")
_PI = Decimal("3.14159265358979323846264338327950288419716939937511")


@functools.lru_cache(maxsize=32)
def _beta_half(df: int) -> Decimal:
    """B(df/2, 1/2) = sqrt(pi) Gamma(df/2) / Gamma((df+1)/2), once per df,
    as one exact product: from B(1/2, 1/2) = pi or B(1, 1/2) = 2 by the
    factors B(k/2, 1/2) = B(k/2 - 1, 1/2) (k-2)/(k-1)."""
    beta = _PI if df % 2 else Decimal(2)
    for k in range(4 - df % 2, df + 1, 2):
        beta = beta * (k - 2) / (k - 1)
    return beta


def _beta_fraction(a: Decimal, b: Decimal, x: Decimal) -> Decimal:
    """The continued fraction of I_x(a, b) by the modified Lentz method
    (Press et al., *Numerical Recipes*, 3rd ed., section 6.4), which
    converges for x < (a+1)/(a+b+2)."""
    c = Decimal(1)
    d = 1 / ((1 - (a + b) * x / (a + 1)) or _TINY)
    fraction = d
    for m in itertools.count(1):
        for term in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 / ((1 + term * d) or _TINY)
            c = (1 + term / c) or _TINY
            fraction *= d * c
        if abs(d * c - 1) < _CONVERGED:
            return fraction


def _t_approximation_p(rho: float, n: int) -> float:
    """Two-sided p-value of rho over n pairs by the t approximation: the
    Student-t tail I_x(df/2, 1/2), with df = n-2 and x = df/(df+t^2) =
    1-rho^2, through its continued fraction on whichever side of
    (a+1)/(a+b+2) it converges."""
    if 1.0 - rho * rho < 1e-15:
        return 0.0
    with localcontext(Context(prec=_DIGITS)):
        x = 1 - Decimal(rho) ** 2
        a, b = Decimal(n - 2) / 2, _HALF
        front = x ** a * (1 - x).sqrt() / _beta_half(n - 2)
        if x < (a + 1) / (a + b + 2):
            return float(front * _beta_fraction(a, b, x) / a)
        return float(1 - front * _beta_fraction(b, a, 1 - x) / b)


def spearman(x: Sequence[float], y: Sequence[float], name: str = "") -> CorrelationResult:
    """Spearman rank correlation with a two-sided t-approximation p-value."""
    rx, ry = _ranked([x, y])
    if rx is None or ry is None:
        raise ConstantInput(_UNDEFINED)
    rho = _rank_correlation(rx, ry)
    return CorrelationResult(variable=name, rho=rho, p_value=_t_approximation_p(rho, len(rx)),
                             n=len(rx))


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
    samples: int = 20000,
    seed: int = 0,
) -> float | list[float]:
    """Permutation-test p-value for Spearman's rho.

    ``x`` is one column of n values, giving one float, or a stack of k
    columns of shape (k, n), giving a list of k floats; every column is
    tested against the same permutations of ``y``. Exact enumeration of
    all n! orderings for n <= _EXACT_LIMIT, otherwise a seeded Monte Carlo estimate with the
    add-one correction.
    """
    columns = np.asarray(x, dtype=float)
    stack = columns if columns.ndim == 2 else columns[np.newaxis]
    ranks = _ranked([*stack, y])
    if any(r is None for r in ranks):
        raise ConstantInput(_UNDEFINED)
    cxs = np.array([r - r.mean() for r in ranks[:-1]])
    cy = ranks[-1] - ranks[-1].mean()
    observed = np.array([abs(_rank_correlation(cx, cy)) for cx in cxs])
    n = len(cy)
    if n <= _EXACT_LIMIT:
        counts = _count_extreme(itertools.permutations(cy.tolist()), cxs, cy, observed)
        p_values = counts / math.factorial(n)
    else:
        rng = np.random.default_rng(seed)
        rows = (rng.permutation(cy) for _ in range(samples))
        p_values = (_count_extreme(rows, cxs, cy, observed) + 1) / (samples + 1)
    return p_values.tolist() if columns.ndim == 2 else float(p_values[0])


def _columns(
    table: FeatureTable, knowledge: Mapping[tuple[str, str], float] | None
) -> dict[str, list[float]]:
    """Each development variable's values in table order, over the rows
    ``knowledge`` labels (every row without it), then the answers as the
    last column, ``knowledge``."""
    rows = [
        row for row in table.rows
        if knowledge is None or (row.developer, row.file) in knowledge
    ]
    columns = {name: [getattr(row.features, name) for row in rows] for name in FEATURE_NAMES}
    if knowledge is not None:
        columns[KNOWLEDGE] = [knowledge[(row.developer, row.file)] for row in rows]
    return columns


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
    t-approximation ones.
    """
    columns = _columns(table, knowledge)
    know = columns.pop(KNOWLEDGE)
    n = len(know)
    if n < 3:
        raise TooFewSamples(f"only {n} labeled pairs joined the feature table")
    *ranks, known = _ranked([*columns.values(), know])
    rhos = {
        name: _rank_correlation(r, known)
        for name, r in zip(columns, ranks)
        if r is not None and known is not None
    }
    errors = {name: _UNDEFINED for name in columns if name not in rhos}
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
    labeled pairs contribute rows. Each variable is ranked once. A cell with
    a constant input, the constant variable's diagonal among them, is
    recorded in ``errors`` instead of fabricating a coefficient.
    """
    columns = _columns(table, knowledge)
    variables = tuple(columns)
    n = len(columns[variables[0]])
    if n < 3:
        raise TooFewSamples(f"need at least 3 rows, got {n}")
    ranks = dict(zip(variables, _ranked(list(columns.values()))))
    cells: dict[tuple[str, str], CorrelationResult] = {}
    errors: dict[tuple[str, str], str] = {}
    for i, a in enumerate(variables):
        for b in variables[i:]:
            if ranks[a] is None or ranks[b] is None:
                errors[(a, b)] = errors[(b, a)] = _UNDEFINED
                continue
            rho = _rank_correlation(ranks[a], ranks[b])
            p_value = _t_approximation_p(rho, n)
            cells[(a, b)] = CorrelationResult(f"{a}|{b}", rho, p_value, n)
            cells[(b, a)] = CorrelationResult(f"{b}|{a}", rho, p_value, n)
    return CorrelationMatrix(variables=variables, cells=cells, errors=errors)
