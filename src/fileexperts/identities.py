"""Merge developer aliases into canonical identities.

A developer often commits under several (name, email) pairs. The
developers are the connected components, kept in a union-find structure,
of three relations: the same e-mail (case-insensitive), a manual alias
pair, and normalized names within an edit distance of 30% of the longer
name, by ``diffs.levenshtein``, the one the modification rule uses. Each
pair of distinct normalized names is compared once. This module alone
builds ``DeveloperId`` records.
"""

from __future__ import annotations

import itertools
import math
import unicodedata
from collections.abc import Mapping
from dataclasses import dataclass, replace

from .diffs import levenshtein
from .errors import CorruptHistory, InvalidThreshold
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

    Identities merge, transitively, when their emails are equal, when a
    manual pair names their emails, or when their normalized names, if not
    empty, are within ``threshold`` of the longer name's length; each pair
    of distinct normalized names is compared once. Every input identity
    maps to exactly one DeveloperId; the partition is independent of input
    order. A ``threshold`` outside [0, 1] raises InvalidThreshold.
    """
    check_alias_threshold(threshold)
    unique = sorted(set(identities), key=lambda ident: (ident.key(), ident.name))
    uf = _UnionFind(len(unique))

    # each e-mail key, and each normalized name, to the first identity that holds it
    by_email: dict[str, int] = {}
    by_name: dict[str, int] = {}
    for i, ident in enumerate(unique):
        uf.union(by_email.setdefault(ident.key(), i), i)
        name = normalize_name(ident.name)
        if name:  # an empty normalized name carries no signal
            uf.union(by_name.setdefault(name, i), i)
    for email_a, email_b in manual_aliases or []:
        ka, kb = email_a.strip().lower(), email_b.strip().lower()
        if ka in by_email and kb in by_email:
            uf.union(by_email[ka], by_email[kb])
    for a, b in itertools.combinations(sorted(by_name), 2):
        if _names_similar(a, b, threshold):
            uf.union(by_name[a], by_name[b])

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
    history metadata under ``"identities"``, which ``developer_ids`` reads.
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


def _identity_fault(entry: object) -> str | None:
    """What keeps an ``identities`` entry from being one that
    ``canonicalize_history`` writes, or None when nothing does."""
    if not isinstance(entry, Mapping):
        return f"a {type(entry).__name__}, not an object"
    if not isinstance(entry.get("display_name"), str):
        return "its display_name is not a string"
    for name in ("emails", "names"):
        value = entry.get(name)
        if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
            return f"its {name} are not a list of strings"
    return None


def developer_ids(history: CommitHistory) -> dict[str, DeveloperId]:
    """The developer record of each canonical key that a canonicalized
    history's ``identities`` metadata holds; a raw history has none.

    Metadata read back from a file may hold anything, so CorruptHistory is
    raised unless it is an object whose ``identities``, when present, is an
    object of entries as ``canonicalize_history`` writes them: each a string
    ``display_name`` and lists of strings ``emails`` and ``names``.
    """
    metadata = history.metadata
    if not isinstance(metadata, Mapping):
        raise CorruptHistory(f"the history metadata is a {type(metadata).__name__}, not an object")
    records = metadata.get("identities", {})
    if not isinstance(records, Mapping):
        raise CorruptHistory(f"the history's identities are a {type(records).__name__}, "
                             "not an object")
    for key, entry in records.items():
        fault = _identity_fault(entry)
        if fault:
            raise CorruptHistory(f"the history's identity {key!r} is malformed: {fault}")
    return {
        key: DeveloperId(key, entry["display_name"], frozenset(entry["emails"]),
                         frozenset(entry["names"]))
        for key, entry in records.items()
    }
