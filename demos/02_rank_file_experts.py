"""Score and rank the developers of one file with the three techniques.

Each technique produces a raw score per (developer, file) pair, which is
then normalized by the file's maximum so the top developer sits at 1.0.
A developer counts as an expert when the normalized score reaches the
threshold k (strictly positive when k = 0).

Run:  python demos/02_rank_file_experts.py
"""

import tempfile

from fileexperts.expertise import TECHNIQUES, classify, doa, technique_scores
from fileexperts.features import compute_all, mine_history
from fileexperts.fixtures import demo_repo

TARGET = "src/helpers.py"
K = 0.7

print("the authorship formula behind the 'doa' technique:")
print("  score = 3.293 + 1.098*FA + 0.164*DL - 0.321*ln(1 + AC)")
print(f"  creator, no other activity : {doa(1, 0, 0):.3f}")
print(f"  bystander baseline         : {doa(0, 0, 0):.3f}")
print(f"  creator, 10 own, 5 foreign : {doa(1, 10, 5):.6f}\n")

with tempfile.TemporaryDirectory() as scratch:
    table = compute_all(mine_history(demo_repo(f"{scratch}/repo"), "main"))

    for technique in TECHNIQUES:
        scores = [s for s in technique_scores(table, technique) if s.file == TARGET]
        experts = classify(scores, K)
        print(f"{technique} ranking for {TARGET} (k = {K}):")
        for s in sorted(scores, key=lambda s: -s.normalized):
            marker = "expert" if (s.developer, s.file) in experts else ""
            print(f"  {s.developer:26} raw={s.raw:8.3f} normalized={s.normalized:.3f} {marker}")
        print()
