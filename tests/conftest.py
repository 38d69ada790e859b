"""Shared fixtures: real git repositories and synthetic histories."""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from fileexperts.features import _replay, mine_history
from fileexperts.fixtures import demo_repo
from fileexperts.gitlog import (
    BlobReader, CommitHistory, CommitRecord, FileChangeEvent, RawIdentity, resolve_lineages,
)

BASE_TIME = datetime(2021, 1, 1, tzinfo=timezone.utc)


def make_history(
    commits: list[tuple[str, float, list[tuple]]],
    present: set[str] | None = None,
    branch: str = "main",
) -> CommitHistory:
    """Build a CommitHistory directly, without git.

    ``commits`` holds (author_email, day_offset, events) where each event
    is (kind, path, old_path, before_content, after_content). The reference
    time is the last commit's timestamp; present paths default to every
    path that ever appears.
    """
    records = []
    seen_paths = set()
    for index, (email, day, events) in enumerate(commits):
        changes = []
        for kind, path, old_path, before, after in events:
            changes.append(
                FileChangeEvent(
                    path=path,
                    change_kind=kind,
                    old_path=old_path,
                    before_content=before,
                    after_content=after,
                )
            )
            seen_paths.add(path)
        records.append(
            CommitRecord(
                id=f"c{index:04d}",
                author=RawIdentity(name=email.split("@")[0], email=email),
                timestamp=BASE_TIME + timedelta(days=day),
                changes=tuple(changes),
            )
        )
    reference = max((r.timestamp for r in records), default=BASE_TIME)
    return CommitHistory(
        commits=tuple(records),
        branch=branch,
        reference_time=reference,
        present_paths=frozenset(present if present is not None else seen_paths),
    )


def blame_authors(history: CommitHistory, path: str) -> list[str]:
    """The author of each line of ``path`` at the reference version, as the
    feature replay attributes them. Raises KeyError when the path has no
    lineage there."""
    with BlobReader(history.repository) as blobs:
        return _replay(resolve_lineages(history)[path], blobs)[1]


def inline_contents(history: CommitHistory) -> CommitHistory:
    """The history with each event's versions inline, read through the blob
    source, and no blob ids or repository: what loading it back gives."""
    with BlobReader(history.repository) as blobs:
        commits = tuple(
            replace(commit, changes=tuple(
                replace(event, before_content=before, after_content=after,
                        before_blob=None, after_blob=None)
                for event, (before, after) in zip(commit.changes, blobs.versions(commit.changes))
            ))
            for commit in history.commits
        )
    return replace(history, commits=commits, repository=None)


def _first_identity(metadata, change):
    """``metadata`` with its first identity entry passed through ``change``."""
    identities = metadata["identities"]
    key = min(identities)
    return {**metadata, "identities": {**identities, key: change(identities[key])}}


# Changes that leave a canonicalized history's metadata valid JSON but not
# what canonicalize_history writes, as a cache entry's meta line may be.
MALFORMED_IDENTITIES = {
    "entry-not-an-object": lambda metadata: _first_identity(metadata, lambda entry: ["x"]),
    "metadata-not-an-object": lambda metadata: "x",
    "identities-not-an-object": lambda metadata: {**metadata, "identities": "x"},
    "emails-not-a-list": lambda metadata: _first_identity(
        metadata, lambda entry: {**entry, "emails": "a@x"}),
    "names-not-strings": lambda metadata: _first_identity(
        metadata, lambda entry: {**entry, "names": [1]}),
    "display-name-missing": lambda metadata: _first_identity(
        metadata, lambda entry: {k: v for k, v in entry.items() if k != "display_name"}),
}


def add(path: str, content: str) -> tuple:
    return ("addition", path, None, None, content)


def mod(path: str, before: str, after: str) -> tuple:
    return ("modification", path, None, before, after)


def ren(path: str, old: str, before: str, after: str) -> tuple:
    return ("rename", path, old, before, after)


@pytest.fixture(scope="session")
def demo_repo_path(tmp_path_factory):
    return demo_repo(tmp_path_factory.mktemp("demo") / "repo")


@pytest.fixture(scope="session")
def demo_history(demo_repo_path):
    return mine_history(demo_repo_path, "main")
