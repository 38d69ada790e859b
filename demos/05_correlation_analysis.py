"""Rank-correlate development variables with declared knowledge.

Synthesizes survey-style knowledge answers (1..5) where recency erodes
knowledge and added lines build it, then prints each variable's Spearman
rho sorted ascending, the way a study report tabulates them. Also shows a
corner of the inter-variable matrix and the exact permutation p-value as
an independent check of the t-approximation.

Run:  python demos/05_correlation_analysis.py
"""

import numpy as np

from fileexperts.features import FeatureRow, FeatureTable, FeatureVector
from fileexperts.stats import (
    correlation_matrix,
    knowledge_correlations,
    spearman,
    spearman_permutation_p,
)
from datetime import datetime, timezone

rng = np.random.default_rng(7)
rows, knowledge = [], {}
for i in range(60):
    k = int(rng.integers(1, 6))
    adds = int(8 * k + rng.integers(0, 12))
    num_days = int(420 - 70 * k + rng.integers(0, 60))
    vector = FeatureVector(
        adds=adds,
        dels=int(rng.integers(0, 25)),
        mods=int(rng.integers(0, 12)),
        conds=int(adds * 0.2),
        amount=adds + int(rng.integers(0, 25)),
        fa=int(k >= 4 and rng.random() < 0.8),
        blame=int(adds * rng.uniform(0.3, 1.0)),
        num_commits=int(rng.integers(1, 3 * k + 2)),
        num_days=num_days,
        num_mod_devs=int(rng.integers(0, 8 - k)),
        size=int(rng.integers(40, 900)),
        avg_days_commits=float(rng.uniform(0, 40)),
    )
    dev, file = f"dev{i}@example.com", f"src/mod_{i}.py"
    rows.append(FeatureRow(dev, file, vector))
    knowledge[(dev, file)] = k

table = FeatureTable(rows=tuple(rows), reference_time=datetime(2021, 6, 1, tzinfo=timezone.utc))

results, undefined = knowledge_correlations(table, knowledge)
print("correlation of each variable with declared knowledge (rho ascending):")
print(f"  {'variable':16} {'rho':>7}  {'p-value':>9}")
for r in results:
    significance = "significant" if r.p_value < 0.05 else ""
    print(f"  {r.variable:16} {r.rho:7.2f}  {r.p_value:9.2e}  {significance}")
if undefined:
    print(f"  (undefined for constant variables: {sorted(undefined)})")

matrix = correlation_matrix(table, knowledge)
print("\ninter-variable corner (adds / amount / num_commits / knowledge):")
subset = ("adds", "amount", "num_commits", "knowledge")
print("  " + "".join(f"{name:>13}" for name in subset))
for a in subset:
    cells = [matrix.cell(a, b) for b in subset]
    print(f"  {a:12}" + "".join(f"{c.rho:13.2f}" if c else f"{'n/a':>13}" for c in cells))

x = rng.permutation(8).astype(float)
y = rng.permutation(8).astype(float)
print("\np-value check on an n=8 sample:")
print(f"  t-approximation : {spearman(x, y).p_value:.4f}")
print(f"  exact permutation: {spearman_permutation_p(x, y):.4f}")
