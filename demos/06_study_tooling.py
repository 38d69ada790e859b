"""Study support: corpus filtering, bulk-import detection, survey sampling.

Three independent pieces of machinery that prepare a repository corpus and
a survey sample:

  * quartile_filter drops repositories in the first quartile of commits,
    files, or developers (any-metric rule);
  * detect_bulk_import flags repositories whose files mostly arrived in
    outlier commits (history developed elsewhere);
  * generate_sample draws (developer, file) pairs from the feature table
    so that no developer is asked about more than file_limit files and
    every sampled file carries all of its developers.

Run:  python demos/06_study_tooling.py
"""

import tempfile

from fileexperts.features import compute_all, mine_history
from fileexperts.fixtures import RepoBuilder, demo_repo
from fileexperts.gitlog import extract_history
from fileexperts.study import RepoMetrics, detect_bulk_import, generate_sample, quartile_filter

corpus = [
    RepoMetrics("tiny-tool", commits=120, files=40, developers=6),
    RepoMetrics("steady-lib", commits=900, files=210, developers=48),
    RepoMetrics("big-app", commits=2400, files=700, developers=130),
    RepoMetrics("hot-fork", commits=1500, files=90, developers=210),
    RepoMetrics("doc-heavy", commits=400, files=800, developers=22),
]
included = quartile_filter(corpus)
print("corpus filter (first-quartile rule on commits, files, developers):")
for repo in corpus:
    print(f"  {repo.repo:12} {'kept' if repo.repo in included else 'removed'}")

with tempfile.TemporaryDirectory() as scratch:
    organic = demo_repo(f"{scratch}/organic")
    history = extract_history(organic, "main")
    flag, outliers = detect_bulk_import(history)
    print(f"\norganic repository flagged as bulk import: {flag}")

    builder = RepoBuilder(f"{scratch}/imported")
    builder.commit(
        "Importer",
        "importer@x.com",
        1_600_000_000,
        writes={f"src/f{i}.py": f"x{i} = {i}\n" for i in range(40)},
    )
    builder.commit("Dev", "dev@x.com", 1_600_100_000, writes={"src/extra.py": "y = 1\n"})
    builder.commit("Dev", "dev@x.com", 1_600_200_000, writes={"src/more.py": "z = 2\n"})
    imported = builder.finish()
    flag, outliers = detect_bulk_import(extract_history(imported, "main"))
    print(f"40-files-in-one-commit repository flagged: {flag} ({len(outliers)} outlier commit)")

    table = compute_all(mine_history(organic, "main"))
    print("\nsurvey sample (file_limit=2, two seeds):")
    for seed in (0, 1):
        pairs = generate_sample(table, file_limit=2, seed=seed)
        print(f"  seed {seed}:")
        for developer, file in sorted(pairs):
            print(f"    {developer:26} {file}")
