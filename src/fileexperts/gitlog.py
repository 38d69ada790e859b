"""Mine a clean, rename-aware commit history from a local git repository.

Extraction walks the non-merge commits reachable from a branch tip in
parent-before-child order and records, for every touched file, the kind of
change (addition, modification, rename) together with the file content
before and after the change. Merge commits are excluded entirely, so the
replayed view of a file is the no-merge approximation of its history.

Only git plumbing commands are used (rev-list, diff-tree, cat-file,
ls-tree), each invoked once per extraction, so large histories do not pay
per-commit process overhead.
"""

from __future__ import annotations

import fnmatch
import json
import logging
import subprocess
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import BranchNotFound, CorruptHistory, FileNotInHistory, RepositoryNotFound
from .fileio import atomic_write_text
from .languages import DEFAULT_VENDOR_GLOBS, LanguageConfig, default_language_config

logger = logging.getLogger(__name__)

ADDITION = "addition"
MODIFICATION = "modification"
RENAME = "rename"

# git's default similarity threshold for --find-renames
RENAME_THRESHOLD = 0.5

_NULL_SHA = "0" * 40
_GITLINK_MODE = "160000"


@dataclass(frozen=True)
class RawIdentity:
    """Author (name, email) pair exactly as recorded on a commit.

    Emails are compared case-insensitively via :meth:`key`. Commits with an
    empty email get a per-name sentinel so each stays distinguishable.
    """

    name: str
    email: str

    def key(self) -> str:
        return self.email.strip().lower()


@dataclass(frozen=True)
class FileChangeEvent:
    path: str
    change_kind: str  # addition | modification | rename
    old_path: str | None = None  # set iff change_kind == rename
    before_content: str | None = None  # absent for additions
    after_content: str | None = None


@dataclass(frozen=True)
class CommitRecord:
    id: str
    author: RawIdentity
    timestamp: datetime  # UTC
    changes: tuple[FileChangeEvent, ...]


@dataclass(frozen=True)
class CommitHistory:
    """Ordered non-merge commits plus the file set at the reference version.

    ``reference_time`` is the branch tip's commit timestamp (raised to the
    maximum commit timestamp when the repository has clock skew) so that
    recency features are reproducible across runs. ``present_paths`` holds
    the files in the tip tree; None means the tree was not captured (a
    synthetic history), in which case every lineage counts as present.
    Immutable and safe to share across threads.
    """

    commits: tuple[CommitRecord, ...]
    branch: str
    reference_time: datetime
    present_paths: frozenset[str] | None = None
    metadata: Mapping[str, object] = field(default_factory=dict)


@dataclass
class Lineage:
    """One file identity across renames: ordered events plus the path chain."""

    path: str  # current path (final path at the reference version)
    events: list[tuple[CommitRecord, FileChangeEvent]] = field(default_factory=list)
    path_chain: list[str] = field(default_factory=list)


def _run_git(repo: Path, *args: str, stdin: bytes | None = None) -> bytes:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        input=stdin,
        capture_output=True,
    )
    if proc.returncode != 0:
        raise CorruptHistory(
            f"git {args[0]} failed: {proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    return proc.stdout


def _parse_rev_list(out: bytes) -> list[tuple[str, str, str, int]]:
    """Parse `rev-list --format=%H%x01%an%x01%ae%x01%at` into commit tuples."""
    commits = []
    for line in out.decode("utf-8", "replace").splitlines():
        if line.startswith("commit ") or not line:
            continue
        sha, name, email, at = line.split("\x01")
        commits.append((sha, name, email, int(at)))
    return commits


def _parse_diff_tree(out: bytes) -> dict[str, list[tuple[str, str, str, str | None, str]]]:
    """Parse `diff-tree --stdin -r -M --raw -z --format=%H` output.

    Returns sha -> list of (status, old_blob, new_blob, old_path, path).
    The stream is a sequence of NUL-separated chunks: a bare commit sha, or
    an entry header ':oldmode newmode oldsha newsha status' followed by one
    path chunk (two for renames/copies). Commits with no changes emit
    nothing and are simply absent from the result.
    """
    text = out.decode("utf-8", "replace")
    chunks = text.split("\0")
    per_commit: dict[str, list] = {}
    current: list | None = None
    i = 0
    while i < len(chunks):
        chunk = chunks[i].lstrip("\n")
        if not chunk:
            i += 1
            continue
        if not chunk.startswith(":"):
            current = per_commit.setdefault(chunk, [])
            i += 1
            continue
        old_mode, new_mode, old_sha, new_sha, status = chunk[1:].split(" ")
        if status.startswith(("R", "C")):
            old_path, path = chunks[i + 1], chunks[i + 2]
            i += 3
        else:
            old_path, path = None, chunks[i + 1]
            i += 2
        if _GITLINK_MODE in (old_mode, new_mode):
            continue  # submodule pointers are not files
        if current is None:
            raise CorruptHistory("diff entry before any commit header")
        current.append((status, old_sha, new_sha, old_path, path))
    return per_commit


def _fetch_blobs(repo: Path, shas: Iterable[str]) -> dict[str, str]:
    """Read blob contents in one `cat-file --batch` call, decoded as UTF-8
    (invalid bytes replaced, so binary blobs stay harmless)."""
    wanted = sorted({s for s in shas if s and s != _NULL_SHA})
    if not wanted:
        return {}
    out = _run_git(repo, "cat-file", "--batch", stdin=("\n".join(wanted) + "\n").encode())
    contents: dict[str, str] = {}
    pos = 0
    for sha in wanted:
        nl = out.index(b"\n", pos)
        header = out[pos:nl].decode("utf-8", "replace").split(" ")
        if len(header) < 3:
            raise CorruptHistory(f"object {header[0]} is unreadable ({header[-1]})")
        size = int(header[2])
        body = out[nl + 1 : nl + 1 + size]
        contents[sha] = body.decode("utf-8", "replace")
        pos = nl + 1 + size + 1  # skip trailing newline
    return contents


def _rev_parse(repo: Path, *args: str) -> list[str] | None:
    """The lines ``git rev-parse --git-dir *args`` prints after the git
    directory, or None when an argument does not resolve. The git directory
    comes first whether or not the rest resolves, so one call also tells a
    repository from anything else."""
    proc = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--git-dir", *args], capture_output=True
    )
    lines = proc.stdout.decode().splitlines()
    if not lines:
        raise RepositoryNotFound(f"{repo} is not a git repository")
    return lines[1:] if proc.returncode == 0 else None


def branch_tip(repo_path: str | Path, branch: str | None = "master") -> tuple[str, str]:
    """Resolve (branch name, tip commit sha).

    ``branch=None`` means the repository's HEAD; the default "master"
    falls back to HEAD when no such branch exists. A branch, or HEAD, takes
    one ``git rev-parse`` call, which also checks the repository; only the
    fallback takes a second.
    """
    repo = Path(repo_path)
    if not repo.is_dir():
        raise RepositoryNotFound(f"{repo_path} is not a git repository")
    if branch is not None:
        found = _rev_parse(repo, "--verify", "--quiet", f"refs/heads/{branch}")
        if found is not None:
            return branch, found[0]
        if branch != "master":
            raise BranchNotFound(f"branch {branch!r} not found in {repo}")
    # "--" makes HEAD a revision, never a file of that name
    head = _rev_parse(repo, "HEAD", "--abbrev-ref", "HEAD", "--")
    if head is None:
        raise BranchNotFound(f"repository at {repo} has no commits on HEAD")
    tip, name = head[:2]
    return name or "HEAD", tip


def extract_history(repo_path: str | Path, branch: str | None = "master") -> CommitHistory:
    """Extract the non-merge history reachable from a branch tip.

    Commits come back in parent-before-child (topological) order with
    renames detected at git's default 50% similarity. ``branch=None`` uses
    the repository's current HEAD; the default "master" falls back to HEAD
    when no such branch exists.
    """
    repo = Path(repo_path)
    branch_name, tip = branch_tip(repo, branch)

    rev_out = _run_git(
        repo,
        "rev-list",
        "--topo-order",
        "--reverse",
        "--no-merges",
        "--format=%H%x01%an%x01%ae%x01%at",
        tip,
    )
    meta = _parse_rev_list(rev_out)
    logger.info("extracted %d non-merge commits from %s@%s", len(meta), repo, branch_name)

    diff_out = _run_git(
        repo,
        "diff-tree",
        "--stdin",
        "--root",
        "-r",
        "-M",
        "--raw",
        "-z",
        "--format=%H",
        stdin=("\n".join(sha for sha, *_ in meta) + "\n").encode(),
    )
    raw_changes = _parse_diff_tree(diff_out)

    needed: set[str] = set()
    for entries in raw_changes.values():
        for status, old_sha, new_sha, _old_path, _path in entries:
            if status != "D":
                needed.add(old_sha)
                needed.add(new_sha)
    blobs = _fetch_blobs(repo, needed)

    commits = []
    for sha, name, email, at in meta:
        author_email = email.strip() or f"no-email:{name.strip().lower()}"
        author = RawIdentity(name=name.strip(), email=author_email)
        changes = []
        for status, old_sha, new_sha, old_path, path in raw_changes.get(sha, []):
            before = blobs.get(old_sha)
            after = blobs.get(new_sha)
            if status == "A":
                changes.append(FileChangeEvent(path, ADDITION, after_content=after))
            elif status.startswith("R"):
                changes.append(
                    FileChangeEvent(
                        path, RENAME, old_path=old_path, before_content=before, after_content=after
                    )
                )
            elif status.startswith("C"):
                # copies only appear if a caller re-runs with -C; the new
                # path starts a fresh lineage
                changes.append(FileChangeEvent(path, ADDITION, after_content=after))
            elif status in ("M", "T"):
                changes.append(
                    FileChangeEvent(path, MODIFICATION, before_content=before, after_content=after)
                )
            # deletions terminate a file's life and carry no expertise signal
        commits.append(
            CommitRecord(
                id=sha,
                author=author,
                timestamp=datetime.fromtimestamp(at, tz=timezone.utc),
                changes=tuple(changes),
            )
        )

    ls_out = _run_git(repo, "ls-tree", "-r", "-z", "--name-only", tip)
    present = frozenset(p for p in ls_out.decode("utf-8", "replace").split("\0") if p)

    # the tip itself may be a merge commit and hence absent from the list
    tip_time = next((c.timestamp for c in reversed(commits) if c.id == tip), None)
    if tip_time is None:
        tip_time = datetime.fromtimestamp(0, tz=timezone.utc)
    reference_time = max([tip_time] + [c.timestamp for c in commits])

    return CommitHistory(
        commits=tuple(commits),
        branch=branch_name,
        reference_time=reference_time,
        present_paths=present,
        metadata={"tip": tip, "rename_threshold": RENAME_THRESHOLD},
    )


def filter_source_files(
    history: CommitHistory,
    config: LanguageConfig | None = None,
    vendor_globs: Iterable[str] = DEFAULT_VENDOR_GLOBS,
) -> CommitHistory:
    """Keep only change events on recognized source files.

    An event survives when its path extension maps to a configured language
    and the path matches none of the vendor globs; commits left with zero
    changes are dropped. The reference-version file set is filtered with the
    same predicate so downstream stages stay consistent.
    """
    config = config or default_language_config()
    patterns = [g.replace("**", "*") for g in vendor_globs]

    def keep(path: str) -> bool:
        if config.language_of(path) is None:
            return False
        return not any(fnmatch.fnmatch(path, pat) for pat in patterns)

    commits = []
    for commit in history.commits:
        kept = tuple(ev for ev in commit.changes if keep(ev.path))
        if kept:
            commits.append(replace(commit, changes=kept))
    present = history.present_paths
    if present is not None:
        present = frozenset(p for p in present if keep(p))
    return CommitHistory(
        commits=tuple(commits),
        branch=history.branch,
        reference_time=history.reference_time,
        present_paths=present,
        metadata=dict(history.metadata),
    )


def resolve_lineages(history: CommitHistory) -> dict[str, Lineage]:
    """Group change events into file lineages keyed by their current path.

    Replaying the commit stream, a rename moves the lineage to its new path
    and an addition on a path with no live lineage starts one. A file
    re-added after deletion therefore continues the lineage of its path.
    """
    live: dict[str, Lineage] = {}
    for commit in history.commits:
        for event in commit.changes:
            if event.change_kind == RENAME and event.old_path is not None:
                lineage = live.pop(event.old_path, None)
                if lineage is None:
                    lineage = Lineage(path=event.old_path, path_chain=[event.old_path])
            else:
                lineage = live.get(event.path)
                if lineage is None:
                    lineage = Lineage(path=event.path, path_chain=[event.path])
            lineage.events.append((commit, event))
            if event.path != lineage.path:
                lineage.path_chain.append(event.path)
            lineage.path = event.path
            live[event.path] = lineage
    return live


def lineage_at_reference(history: CommitHistory, file: str) -> Lineage:
    """The lineage of a file present at the reference version; raises
    FileNotInHistory for any other path."""
    lineage = resolve_lineages(history).get(file)
    if lineage is None or (
        history.present_paths is not None and file not in history.present_paths
    ):
        raise FileNotInHistory(f"{file!r} does not exist at the reference version")
    return lineage


# -- newline-delimited JSON interchange (schema v1) ---------------------------

def history_ndjson_lines(history: CommitHistory) -> Iterator[str]:
    """A history as NDJSON lines, each ending in a newline: a meta line,
    then one commit per line.

    The meta line must stay first: a warm CLI run reads only that line.
    """
    yield json.dumps(
        {
            "v": 1,
            "meta": {
                "branch": history.branch,
                "reference_time": history.reference_time.isoformat(),
                "present_paths": (
                    sorted(history.present_paths) if history.present_paths is not None else None
                ),
                "metadata": dict(history.metadata),
            },
        },
        sort_keys=True,
    ) + "\n"
    for commit in history.commits:
        yield json.dumps(
            {
                "v": 1,
                "id": commit.id,
                "author": {"name": commit.author.name, "email": commit.author.email},
                "timestamp": commit.timestamp.isoformat(),
                "changes": [
                    {
                        "path": ev.path,
                        "change_kind": ev.change_kind,
                        "old_path": ev.old_path,
                        "before_content": ev.before_content,
                        "after_content": ev.after_content,
                    }
                    for ev in commit.changes
                ],
            },
            sort_keys=True,
        ) + "\n"


def history_to_ndjson(history: CommitHistory) -> str:
    """Serialize a history as NDJSON (see ``history_ndjson_lines``)."""
    return "".join(history_ndjson_lines(history))


def history_from_ndjson(text: str) -> CommitHistory:
    """Parse a history written by ``history_to_ndjson``.

    Raises ``CorruptHistory`` naming the 1-based line of the first line
    that is not a well-formed meta or commit record.
    """
    commits = []
    branch = ""
    reference_time: datetime | None = None
    present: frozenset[str] | None = None
    metadata: dict = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"a JSON {type(obj).__name__}, not an object")
            if obj.get("v") != 1:
                raise ValueError(f"unsupported history schema version {obj.get('v')!r}")
            if "meta" in obj:
                meta = obj["meta"]
                branch = meta["branch"]
                reference_time = datetime.fromisoformat(meta["reference_time"])
                raw_present = meta.get("present_paths")
                present = frozenset(raw_present) if raw_present is not None else None
                metadata = meta.get("metadata", {})
                continue
            commits.append(
                CommitRecord(
                    id=obj["id"],
                    author=RawIdentity(obj["author"]["name"], obj["author"]["email"]),
                    timestamp=datetime.fromisoformat(obj["timestamp"]),
                    changes=tuple(
                        FileChangeEvent(
                            path=ch["path"],
                            change_kind=ch["change_kind"],
                            old_path=ch.get("old_path"),
                            before_content=ch.get("before_content"),
                            after_content=ch.get("after_content"),
                        )
                        for ch in obj["changes"]
                    ),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise CorruptHistory(f"history line {number} is malformed: {reason}") from exc
    if reference_time is None:
        reference_time = max(
            (c.timestamp for c in commits), default=datetime.fromtimestamp(0, tz=timezone.utc)
        )
    return CommitHistory(
        commits=tuple(commits),
        branch=branch,
        reference_time=reference_time,
        present_paths=present,
        metadata=metadata,
    )


def save_history(history: CommitHistory, path: str | Path) -> None:
    """Write a history's NDJSON line by line, never holding the whole text."""
    atomic_write_text(path, history_ndjson_lines(history))


def load_history(path: str | Path) -> CommitHistory:
    return history_from_ndjson(Path(path).read_text("utf-8"))
