"""Merge developer aliases into canonical identities.

A developer often commits under several (name, email) pairs. Unification
runs in two stages: identities sharing an email (case-insensitive) are
merged first, then groups whose normalized names are within an edit-distance
budget of 30% of the longer name are merged transitively through a
union-find structure. The edit distance is ``diffs.levenshtein``, the one
the modification rule uses.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, replace

from .diffs import levenshtein
from .errors import InvalidThreshold
from .gitlog import CommitHistory, RawIdentity

DEFAULT_ALIAS_THRESHOLD = 0.30


@dataclass(frozen=True)
class DeveloperId:
    """Canonical identity for one developer within a history.

    ``canonical_key`` is the lexicographically smallest lowercased email in
    the merged group, which makes keys stable across runs and input order.
    """

    canonical_key: str
    display_name: str
    emails: frozenset[str]
    names: frozenset[str]


def normalize_name(name: str) -> str:
    """Lowercase, strip accents and punctuation, collapse whitespace."""
    decomposed = unicodedata.normalize("NFKD", name.lower())
    kept = []
    for ch in decomposed:
        category = unicodedata.category(ch)
        if category.startswith("M") or category.startswith("P"):
            continue
        kept.append(ch)
    return " ".join("".join(kept).split())


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _names_similar(a: str, b: str, threshold: float) -> bool:
    if not a or not b:
        return False  # empty normalized names carry no signal
    # integer d <= x exactly when d <= floor(x); levenshtein answers past
    # the budget at once when the lengths differ by more than it
    budget = math.floor(threshold * max(len(a), len(b)))
    return levenshtein(a, b, budget) <= budget


def check_alias_threshold(threshold: float) -> None:
    """Raise InvalidThreshold unless the alias threshold lies in [0, 1]; NaN
    lies nowhere."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidThreshold(f"alias threshold {threshold} outside [0, 1]")


def resolve_identities(
    identities: list[RawIdentity],
    threshold: float = DEFAULT_ALIAS_THRESHOLD,
    manual_aliases: list[tuple[str, str]] | None = None,
) -> dict[RawIdentity, DeveloperId]:
    """Partition raw identities into developers.

    Stage 1 merges identities with equal emails (plus any manual email
    pairs). Stage 2 merges groups whose normalized names are within
    ``threshold`` of the longer name's length, transitively. Every input
    identity maps to exactly one DeveloperId; the partition is independent
    of input order. A ``threshold`` outside [0, 1] raises InvalidThreshold.
    """
    check_alias_threshold(threshold)
    unique = sorted(set(identities), key=lambda ident: (ident.key(), ident.name))
    if not unique:
        return {}
    uf = _UnionFind(len(unique))

    email_index: dict[str, int] = {}
    for i, ident in enumerate(unique):
        email_index.setdefault(ident.key(), i)
        uf.union(email_index[ident.key()], i)
    for email_a, email_b in manual_aliases or []:
        ka, kb = email_a.strip().lower(), email_b.strip().lower()
        if ka in email_index and kb in email_index:
            uf.union(email_index[ka], email_index[kb])

    # normalized names per current group
    groups: dict[int, set[str]] = {}
    for i, ident in enumerate(unique):
        name = normalize_name(ident.name)
        if name:
            groups.setdefault(uf.find(i), set()).add(name)
    roots = sorted(groups)
    for gi in range(len(roots)):
        for gj in range(gi + 1, len(roots)):
            a_root, b_root = roots[gi], roots[gj]
            if uf.find(a_root) == uf.find(b_root):
                continue
            if any(
                _names_similar(na, nb, threshold)
                for na in groups[a_root]
                for nb in groups[b_root]
            ):
                uf.union(a_root, b_root)

    members: dict[int, list[RawIdentity]] = {}
    for i, ident in enumerate(unique):
        members.setdefault(uf.find(i), []).append(ident)

    result: dict[RawIdentity, DeveloperId] = {}
    for group in members.values():
        emails = frozenset(ident.key() for ident in group)
        names = frozenset(ident.name for ident in group if ident.name)
        display = max(names, key=lambda n: (len(n), n)) if names else min(emails)
        dev = DeveloperId(
            canonical_key=min(emails),
            display_name=display,
            emails=emails,
            names=names,
        )
        for ident in group:
            result[ident] = dev
    return result


def canonicalize_history(
    history: CommitHistory,
    threshold: float = DEFAULT_ALIAS_THRESHOLD,
    manual_aliases: list[tuple[str, str]] | None = None,
) -> CommitHistory:
    """Rewrite every commit author to its canonical identity, one
    ``RawIdentity`` (display name, canonical key) per developer, which all
    of that developer's commits share.

    Commit order and change events are untouched. The mapping from
    canonical key to display name and member emails is recorded in the
    history metadata under ``"identities"``.
    """
    mapping = resolve_identities(
        [c.author for c in history.commits], threshold=threshold, manual_aliases=manual_aliases
    )
    authors = {
        dev.canonical_key: RawIdentity(dev.display_name, dev.canonical_key)
        for dev in mapping.values()
    }
    commits = tuple(
        replace(commit, author=authors[mapping[commit.author].canonical_key])
        for commit in history.commits
    )
    identity_meta = {
        dev.canonical_key: {
            "display_name": dev.display_name,
            "emails": sorted(dev.emails),
            "names": sorted(dev.names),
        }
        for dev in mapping.values()
    }
    return replace(
        history, commits=commits, metadata={**history.metadata, "identities": identity_meta}
    )
