"""Mine a repository into a clean history and the per-pair feature table.

Builds a small throwaway git repository (three developers, one of them
committing under two aliases, a file rename, and a mix of light and heavy
edits), then walks the full pipeline:

    extract -> filter to source files -> unify aliases -> compute features

``features.mine_history`` runs the first three stages in one call, as the
CLI does, and reads no blob of a file the source filter drops.

Run:  python demos/01_mine_a_repository.py
"""

import tempfile

from fileexperts.features import compute_all
from fileexperts.fixtures import demo_repo
from fileexperts.gitlog import extract_history, filter_source_files
from fileexperts.identities import canonicalize_history

with tempfile.TemporaryDirectory() as scratch:
    repo = demo_repo(f"{scratch}/repo")
    print(f"built demo repository at {repo}\n")

    history = extract_history(repo, "main")
    print(f"extracted {len(history.commits)} non-merge commits from branch {history.branch!r}")
    print(f"files at the reference version: {sorted(history.present_paths)}\n")

    print("raw commit stream:")
    for commit in history.commits:
        changes = ", ".join(
            f"{ev.change_kind} {ev.path}" + (f" (from {ev.old_path})" if ev.old_path else "")
            for ev in commit.changes
        )
        print(f"  {commit.id[:8]}  {commit.author.email:24}  {changes}")

    history = filter_source_files(history)
    print(f"\nafter the source filter: {sorted(history.present_paths)}")

    history = canonicalize_history(history)
    identities = history.metadata["identities"]
    print("\ncanonical identities (aliases merged):")
    for key, entry in sorted(identities.items()):
        print(f"  {key:26} {entry['display_name']:16} emails={entry['emails']}")

    table = compute_all(history)
    # each row names its developer by canonical key; the table holds the
    # record of each such developer once
    print(f"\nfeature table: {len(table.rows)} (developer, file) pairs")
    print(f"{'developer':16} {'file':16} adds dels mods conds fa blame size num_days")
    for row in table.rows:
        f = row.features
        print(
            f"{table.developers[row.developer].display_name:16} {row.file:16} "
            f"{f.adds:4} {f.dels:4} {f.mods:4} {f.conds:5} {f.fa:2} {f.blame:5} "
            f"{f.size:4} {f.num_days:8}"
        )

    print("\nevery variable is defined at the reference version:", table.reference_time)
