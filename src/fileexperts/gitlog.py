"""Mine a clean, rename-aware commit history from a local git repository.

Extraction walks the non-merge commits reachable from a branch tip in
parent-before-child order and records, for every touched file, the kind of
change (addition, modification, rename) together with the ids of the blobs
before and after the change; it reads no file content. Merge commits are
excluded entirely, so the replayed view of a file is the no-merge
approximation of its history.

``resolve_lineages`` alone decides which lineages exist: one immutable
lineage per file at the reference version, followed across renames.
``features`` replays them.

Only git plumbing commands are used (rev-parse, rev-list, diff-tree,
ls-tree, cat-file). Extraction runs one process per command, so large
histories do not pay per-commit process overhead, each through one runner,
``_git``, which parses its output as it streams: rev-list's commit ids
line by line, diff-tree and ls-tree in blocks. diff-tree heads each
commit's changes with its author and time, in UTF-8 whatever the host's
config, so each commit is built as soon as its changes end. No command's
whole output is held at once, only the entries kept from it.
``extract_history(..., keep=source_predicate(...))`` keeps no diff-tree
entry of a path the source filter drops, so no blob of it is ever read.
What git writes to stderr while exiting 0 becomes a ``GitWarning``. A
shallow repository, whose lineages are cut at its boundary, is refused
(``ShallowRepository``). Every git process runs in one environment,
``_git_environment``: the caller's repository variables (``GIT_DIR`` and
its kind) are dropped, so the repository path alone names the repository,
and no graft file is read, so the real parents are mined.

File contents are read only where they are used, through a
``BlobReader``: an event's version is its inline text, or else its blob,
read from the reader's one ``git cat-file --batch`` process, which it
starts on first use. The history carries the repository its blobs come
from. ``features`` holds one reader per process that replays lineages,
and each lineage's versions only while it replays them.

This module alone reads and writes the history NDJSON, in which each record
is its own fields and the meta record always holds the reference version's
file list. ``history_ndjson_lines`` is its one writer: ``save_history``
streams it line by line, each commit with its file contents read as it is
written. ``_parse_history`` is its one reader: ``load_history`` reads the
file back with the contents inline, and ``load_history_meta`` reads only
its first line, the meta record a warm CLI run needs. ``save_history(...,
contents=False)`` writes the change records without their file contents,
as the CLI's cache does, and reads no blob; ``load_history`` refuses such a
file, naming the first missing field.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import os
import select
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import (
    BranchNotFound, CorruptHistory, GitWarning, RepositoryNotFound, ShallowRepository,
)
from .fileio import atomic_write_text, decode_utf8
from .languages import DEFAULT_VENDOR_GLOBS, LanguageConfig, default_language_config

ADDITION = "addition"
MODIFICATION = "modification"
RENAME = "rename"

# git's default similarity threshold for --find-renames
RENAME_THRESHOLD = 0.5
# git's default cap on the files compared for inexact renames, passed as -l
# so the host's diff.renameLimit cannot change what is mined
RENAME_LIMIT = 1000

_GITLINK_MODE = "160000"
_BLOCK = 1 << 16  # the most bytes of git's stdout parsed at a time
# cat-file requests written before their answers are read: as many as fit a
# pipe's minimum capacity whatever the object format (64 hex digits and a
# newline for SHA-256), so the write never waits on a cat-file that is
# itself waiting for its answers to be read
_REQUESTS = select.PIPE_BUF // 65

T = TypeVar("T")


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
    """One file's change in one commit. Each side's version is its inline
    content or, when that is None, the blob it names (see ``BlobReader``):
    extraction names blobs, and a loaded or hand-built history holds text."""

    path: str
    change_kind: str  # addition | modification | rename
    old_path: str | None = None  # set iff change_kind == rename
    before_content: str | None = None  # absent for additions
    after_content: str | None = None
    before_blob: str | None = None
    after_blob: str | None = None


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
    the files in the tip tree, the ones that have a lineage.
    ``repository`` is where the blobs its events name are read; it is None
    for a synthetic or loaded history, whose events hold their text, and
    takes no part in equality, since a blob id names its content.
    Immutable and safe to share across threads.
    """

    commits: tuple[CommitRecord, ...]
    branch: str
    reference_time: datetime
    present_paths: frozenset[str]
    metadata: Mapping[str, object] = field(default_factory=dict)
    repository: Path | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Lineage:
    """One file identity across renames: its path at the reference version
    and its (commit, event) pairs in replay order."""

    path: str
    events: tuple[tuple[CommitRecord, FileChangeEvent], ...]


def _text(data: bytes) -> str:
    """Bytes from git as text, invalid UTF-8 replaced, so a non-UTF-8 path or
    a binary blob stays harmless."""
    return data.decode("utf-8", "replace")


def _warn_stderr(command: str, message: str) -> None:
    """What a git call wrote to stderr while exiting 0, as one warning, so a
    setting that changed git's answer (a rename limit, say) is reported."""
    if message:
        warnings.warn(f"git {command}: {message}", GitWarning, stacklevel=3)


def _git_failure(command: str, failure: object, message: str) -> CorruptHistory:
    """The error of a git command that failed, by a ``failure`` met reading
    its output or by its exit status, with what it wrote to stderr."""
    error = f"git {command} failed: {failure}"
    return CorruptHistory(f"{error}; {message}" if message else error)


def _git_command(repo: Path, *args: str) -> list[str]:
    """The command line of ``git args`` run in ``repo``. Replace refs
    (``git replace``) are ignored, so they cannot change what is mined;
    ``_git_environment`` keeps grafts out too."""
    return ["git", "--no-replace-objects", "-C", str(repo), *args]


# Variables that point git at another repository, object store, index,
# shallow list or graft file than the one ``-C`` finds: what ``git rev-parse
# --local-env-vars`` prints (git 2.39), plus GIT_NAMESPACE, less the
# GIT_CONFIG* variables, which carry the host's config.
_REPOSITORY_VARIABLES = frozenset({
    "GIT_ALTERNATE_OBJECT_DIRECTORIES", "GIT_COMMON_DIR", "GIT_DIR", "GIT_GRAFT_FILE",
    "GIT_IMPLICIT_WORK_TREE", "GIT_INDEX_FILE", "GIT_INTERNAL_SUPER_PREFIX", "GIT_NAMESPACE",
    "GIT_NO_REPLACE_OBJECTS", "GIT_OBJECT_DIRECTORY", "GIT_PREFIX", "GIT_REPLACE_REF_BASE",
    "GIT_SHALLOW_FILE", "GIT_WORK_TREE",
})


def _git_environment() -> dict[str, str]:
    """The environment of every git process: this process's, less the
    repository variables, so the repository path alone names the repository,
    and with a graft file that cannot exist, so git reads none and mines the
    real parents, as a clone of the repository would. Built at each launch,
    since the environment may change between launches."""
    env = {name: value for name, value in os.environ.items()
           if name not in _REPOSITORY_VARIABLES}
    env["GIT_GRAFT_FILE"] = os.devnull + "/grafts"
    return env


def _git(
    repo: Path,
    args: Sequence[str],
    read: Callable[[IO[bytes]], T],
    requests: Iterable[str] = (),
) -> T:
    """``read(stdout)`` of one git plumbing command run in ``repo``.

    ``requests`` are written one a line to a temporary file that is git's
    stdin, and git's stderr goes to another, so neither side waits on a full
    pipe and no feeder thread is needed; ``read`` parses stdout as it
    streams. The process is waited for on every path. A nonzero exit, or a
    ``CorruptHistory`` from ``read``, raises ``CorruptHistory`` carrying
    git's stderr; what git writes there while exiting 0 becomes a
    ``GitWarning``.
    """
    with tempfile.TemporaryFile() as stdin, tempfile.TemporaryFile() as stderr:
        stdin.writelines(f"{line}\n".encode() for line in requests)
        stdin.seek(0)
        failure = None
        # leaving the block closes stdout, which stops a git still writing,
        # and waits for it
        with subprocess.Popen(
            _git_command(repo, *args), stdin=stdin, stdout=subprocess.PIPE, stderr=stderr,
            env=_git_environment(),
        ) as proc:
            try:
                result = read(proc.stdout)
            except CorruptHistory as exc:
                failure = exc
        stderr.seek(0)
        message = _text(stderr.read()).strip()
    if failure is None and proc.returncode == 0:
        _warn_stderr(args[0], message)
        return result
    raise _git_failure(args[0], failure or f"exit status {proc.returncode}", message)


def _blocks(out: IO[bytes]) -> Iterator[bytes]:
    """A stream's bytes as they arrive, at most ``_BLOCK`` at a time."""
    return iter(functools.partial(out.read1, _BLOCK), b"")


def _nul_fields(blocks: Iterable[bytes]) -> Iterator[bytes]:
    """The NUL-terminated fields of a ``-z`` stream that arrives in blocks of
    any size. Only newlines may follow the last NUL; anything else means
    the stream was cut inside a record."""
    tail = b""
    for block in blocks:
        *whole, tail = (tail + block).split(b"\0")
        yield from whole
    if tail.strip(b"\n"):
        raise CorruptHistory("the output ends inside a record")


def _read_commits(
    blocks: Iterable[bytes], keep: Callable[[str], bool] | None = None
) -> Iterator[CommitRecord]:
    """Parse ``diff-tree --stdin --always -r -M --raw -z
    --format=%H%x00%an%x00%ae%x00%at`` output as its blocks arrive, handing
    on each commit as soon as its entries end.

    The stream is a sequence of NUL-terminated fields: a commit's sha
    followed by its author's name, e-mail and time fields, any of which may
    be empty, or an entry header '\\n:oldmode newmode oldsha newsha status'
    followed by one path field (two for renames). A commit holds only the
    entries whose path ``keep`` accepts and no deletion, since a deletion
    ends a file's life and carries no expertise signal; a commit left with
    none is still handed on. An author with an empty e-mail gets a per-name
    sentinel, so each stays distinguishable, and an empty time, which git
    prints for one before 1970, reads as the epoch. Paths, blob ids, names
    and e-mails are interned, one string per distinct value, so a blob that
    is one change's after-version and the next one's before-version is one
    string.
    """
    tokens = _nul_fields(blocks)
    header = None
    for token in tokens:
        token = token.lstrip(b"\n")
        if not token:
            continue
        if not token.startswith(b":"):
            if header is not None:
                yield CommitRecord(*header, changes=tuple(changes))
            fields = [next(tokens, None) for _ in range(3)]
            if None in fields:
                raise CorruptHistory("the output ends inside a record")
            name, email, at = (_text(value).strip() for value in fields)
            try:
                at = int(at or 0)
            except ValueError:
                raise CorruptHistory(f"malformed diff-tree header: time {at!r}") from None
            email = email or f"no-email:{name.lower()}"
            author = RawIdentity(sys.intern(name), sys.intern(email))
            header, changes = (_text(token), author, datetime.fromtimestamp(at, timezone.utc)), []
            continue
        try:
            old_mode, new_mode, old_sha, new_sha, status = _text(token[1:]).split(" ")
        except ValueError:
            raise CorruptHistory(f"malformed diff-tree entry {token!r}") from None
        paths = [next(tokens, None) for _ in range(2 if status.startswith("R") else 1)]
        if None in paths:
            raise CorruptHistory("the output ends inside a record")
        if _GITLINK_MODE in (old_mode, new_mode) or status == "D":
            continue  # submodule pointers are not files; deletions make no event
        path = sys.intern(_text(paths[-1]))
        if keep is not None and not keep(path):
            continue
        if header is None:
            raise CorruptHistory("diff entry before any commit header")
        old_sha, new_sha = sys.intern(old_sha), sys.intern(new_sha)
        # diff-tree -M reports no copies, even under diff.renames=copies:
        # a copied file is an addition
        if status == "A":
            changes.append(FileChangeEvent(path, ADDITION, after_blob=new_sha))
        elif status.startswith("R"):
            changes.append(FileChangeEvent(
                path, RENAME, old_path=sys.intern(_text(paths[0])), before_blob=old_sha,
                after_blob=new_sha,
            ))
        elif status in ("M", "T"):
            changes.append(
                FileChangeEvent(path, MODIFICATION, before_blob=old_sha, after_blob=new_sha)
            )
    if header is not None:
        yield CommitRecord(*header, changes=tuple(changes))


def _read_blob(out: IO[bytes], sha: str) -> str:
    """The next object of a ``cat-file --batch`` stream: a header line
    ``<sha> <type> <size>``, the body, then a newline."""
    header = _text(out.readline()).split()
    if len(header) != 3 or header[0] != sha:
        reason = " ".join(header[1:]) if header else "no output"
        raise CorruptHistory(f"object {sha} is unreadable ({reason})")
    size = int(header[2])
    body = out.read(size)
    if len(body) != size or out.read(1) != b"\n":
        raise CorruptHistory(f"object {sha} is truncated")
    return _text(body)


class BlobReader:
    """The file versions of change events: an event's inline content, or
    else its blob, read from one ``git cat-file --batch`` of ``repository``.

    The process starts on first use and belongs to the process that started
    it: a forked child that inherits a started reader starts its own, and
    never writes to or reads from its parent's pipes. ``close``, or leaving
    a ``with`` block, ends it and waits for it. What git writes to stderr
    becomes a ``GitWarning``, or part of the ``CorruptHistory`` that a
    failed read raises after closing the process.
    """

    def __init__(self, repository: Path | None):
        self.repository = repository
        self._proc: subprocess.Popen | None = None
        self._inherited: subprocess.Popen | None = None  # a parent's, after a fork
        self._stderr: IO[bytes] | None = None
        self._pid = 0  # the process that started ``_proc``
        self._reported = 0  # bytes of git's stderr already reported

    def __enter__(self) -> "BlobReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def versions(self, events: Iterable[FileChangeEvent]) -> list[tuple[str | None, str | None]]:
        """Each event's (before, after) text. The blobs the events name are
        requested together, each once, and a blob named twice is one
        string."""
        events = list(events)
        sides = [((e.before_content, e.before_blob), (e.after_content, e.after_blob))
                 for e in events]
        texts = self._read(
            {blob for pair in sides for content, blob in pair if content is None and blob}
        )
        return [
            tuple(content if content is not None or blob is None else texts[blob]
                  for content, blob in pair)
            for pair in sides
        ]

    def _read(self, blobs: set[str]) -> dict[str, str]:
        """The text of each blob, requested in batches that fit a pipe and
        read back one blob at a time."""
        if not blobs:
            return {}
        if self.repository is None:
            raise CorruptHistory("the history names blobs but no repository to read them from")
        proc = self._start()
        texts = {}
        wanted = sorted(blobs)
        try:
            for start in range(0, len(wanted), _REQUESTS):
                batch = wanted[start : start + _REQUESTS]
                proc.stdin.write("".join(f"{sha}\n" for sha in batch).encode())
                proc.stdin.flush()
                for sha in batch:
                    texts[sha] = _read_blob(proc.stdout, sha)
        except (CorruptHistory, BrokenPipeError) as exc:
            # a broken pipe means cat-file has exited, and its status says why
            returncode, message = self._stop()
            failure = exc if isinstance(exc, CorruptHistory) else f"exit status {returncode}"
            raise _git_failure("cat-file", failure, message) from None
        except BaseException:
            self._stop()
            raise
        _warn_stderr("cat-file", self._new_stderr())
        return texts

    def _start(self) -> subprocess.Popen:
        if self._proc is not None and self._pid != os.getpid():
            # inherited across a fork: close this process's copies of the
            # parent's pipes and files. Only the parent can wait for its
            # child, so the object is kept, never collected as unwaited here.
            self._proc.stdin.close()
            self._proc.stdout.close()
            self._stderr.close()
            self._inherited, self._proc = self._proc, None
        if self._proc is None:
            self._stderr = tempfile.TemporaryFile()
            self._reported = 0
            try:
                self._proc = subprocess.Popen(
                    _git_command(self.repository, "cat-file", "--batch"),
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
                    env=_git_environment(),
                )
            except BaseException:
                self._stderr.close()
                raise
            self._pid = os.getpid()
        return self._proc

    def _new_stderr(self) -> str:
        """What git wrote to stderr since last asked, read without moving
        the file offset it writes at."""
        fd = self._stderr.fileno()
        data = os.pread(fd, os.fstat(fd).st_size - self._reported, self._reported)
        self._reported += len(data)
        return _text(data).strip()

    def _stop(self) -> tuple[int, str]:
        """End the process and wait for it: closing stdout stops a cat-file
        still writing, closing stdin ends one waiting for requests. Returns
        its exit status and what it wrote to stderr that was not yet
        reported. Interrupted, it leaves the process to the next call."""
        proc = self._proc
        try:
            proc.stdout.close()
            proc.stdin.close()  # flushes what a broken pipe left unwritten
        except BrokenPipeError:
            pass
        finally:
            proc.wait()
        self._proc = None
        message = self._new_stderr()
        self._stderr.close()
        return proc.returncode, message

    def close(self) -> None:
        """End this process's cat-file, if it started one, and wait for it;
        a nonzero exit raises ``CorruptHistory``."""
        if self._proc is None or self._pid != os.getpid():
            return
        returncode, message = self._stop()
        if returncode != 0:
            raise _git_failure("cat-file", f"exit status {returncode}", message)
        _warn_stderr("cat-file", message)


def _rev_parse(repo: Path, *args: str) -> list[str] | None:
    """The lines ``git rev-parse --is-shallow-repository *args`` prints for
    ``args``, or None when an argument does not resolve. The shallow flag
    comes first whether or not the rest resolves, and only in a repository,
    so one call also tells a repository from anything else, and refuses a
    shallow one."""
    proc = subprocess.run(
        _git_command(repo, "rev-parse", "--is-shallow-repository", *args),
        capture_output=True, env=_git_environment(),
    )
    lines = [_text(line) for line in proc.stdout.splitlines()]
    if not lines:
        raise RepositoryNotFound(f"{repo} is not a git repository")
    if lines[0] == "true":
        raise ShallowRepository(
            f"{repo} is a shallow clone, so every lineage is cut at its boundary; "
            "fetch its full history (git fetch --unshallow) to mine it"
        )
    if proc.returncode != 0:
        return None
    _warn_stderr("rev-parse", _text(proc.stderr).strip())
    return lines[1:]


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


def extract_history(
    repo_path: str | Path,
    branch: str | None = "master",
    keep: Callable[[str], bool] | None = None,
) -> CommitHistory:
    """Extract the non-merge history reachable from a branch tip.

    Commits come back in parent-before-child (topological) order with
    renames detected at git's default 50% similarity and rename limit,
    whatever the host's ``diff.renameLimit``. ``branch=None`` uses
    the repository's current HEAD; the default "master" falls back to HEAD
    when no such branch exists.

    Each change names its blobs and holds no content; the history's
    ``repository`` is where a ``BlobReader`` reads them. Authors are read
    in UTF-8 whatever the host's git config. A shallow repository raises
    ``ShallowRepository``.

    ``keep``, a path predicate such as ``source_predicate(...)``, drops
    every change whose path it rejects, so none of its blobs is ever read,
    and the commits left with no change; ``present_paths`` holds only the
    paths it accepts. The reference time is still taken over every non-merge
    commit, so the result equals ``filter_source_files`` applied to the
    unfiltered history with the same predicate.
    """
    repo = Path(repo_path)
    branch_name, tip = branch_tip(repo, branch)

    shas = _git(
        repo,
        ["rev-list", "--topo-order", "--reverse", "--no-merges", tip],
        lambda out: [_text(line).rstrip("\n") for line in out],
    )

    def read(out: IO[bytes]) -> tuple[list[CommitRecord], datetime]:
        # the reference time is the newest of every non-merge commit, kept
        # or not; git prints no time before the epoch, which is the floor
        # when the tip itself is a merge, absent from shas
        newest = datetime.fromtimestamp(0, timezone.utc)
        commits, answered = [], 0
        for answered, commit in enumerate(_read_commits(_blocks(out), keep), 1):
            newest = max(newest, commit.timestamp)
            if keep is None or commit.changes:
                commits.append(commit)
        if answered != len(shas):
            raise CorruptHistory(f"it answered {answered} of {len(shas)} commits")
        return commits, newest

    commits, newest = _git(
        repo,
        ["diff-tree", "--stdin", "--always", "--root", "-r", "-M", f"-l{RENAME_LIMIT}", "--raw",
         "-z", "--encoding=UTF-8", "--format=%H%x00%an%x00%ae%x00%at"],
        read,
        requests=shas,
    )

    # --full-tree lists every path even when repo is a subdirectory of the
    # work tree, as rev-list and diff-tree do
    paths = _git(
        repo,
        ["ls-tree", "-r", "--full-tree", "-z", "--name-only", tip],
        lambda out: [sys.intern(_text(path)) for path in _nul_fields(_blocks(out))],
    )
    present = frozenset(filter(keep, paths) if keep is not None else paths)

    return CommitHistory(
        commits=tuple(commits),
        branch=branch_name,
        reference_time=newest,
        present_paths=present,
        metadata={"tip": tip, "rename_threshold": RENAME_THRESHOLD},
        repository=repo,
    )


def source_predicate(
    config: LanguageConfig | None = None,
    vendor_globs: Iterable[str] = DEFAULT_VENDOR_GLOBS,
) -> Callable[[str], bool]:
    """The source filter's path predicate: true when the path's extension
    maps to a configured language and the path matches none of the vendor
    globs (``**`` read as ``*``). Each predicate caches its answers, since
    events far outnumber distinct paths."""
    config = config or default_language_config()
    patterns = [g.replace("**", "*") for g in vendor_globs]

    @functools.cache
    def keep(path: str) -> bool:
        if config.language_of(path) is None:
            return False
        return not any(fnmatch.fnmatch(path, pat) for pat in patterns)

    return keep


def filter_source_files(
    history: CommitHistory,
    config: LanguageConfig | None = None,
    vendor_globs: Iterable[str] = DEFAULT_VENDOR_GLOBS,
) -> CommitHistory:
    """Keep only change events on recognized source files.

    An event survives when ``source_predicate`` accepts its path; commits
    left with zero changes are dropped. The reference-version file set is
    filtered with the same predicate so downstream stages stay consistent.
    """
    keep = source_predicate(config, vendor_globs)
    commits = []
    for commit in history.commits:
        kept = tuple(ev for ev in commit.changes if keep(ev.path))
        if kept:
            commits.append(replace(commit, changes=kept))
    present = frozenset(filter(keep, history.present_paths))
    return replace(history, commits=tuple(commits), present_paths=present)


def resolve_lineages(history: CommitHistory) -> dict[str, Lineage]:
    """The lineages of the files in ``present_paths``, keyed by their path
    at the reference version.

    Replaying the commit stream, a rename moves the lineage to its new path
    and an addition on a path with no live lineage starts one. A file
    re-added after deletion therefore continues the lineage of its path.
    """
    live: dict[str, list[tuple[CommitRecord, FileChangeEvent]]] = {}
    for commit in history.commits:
        for event in commit.changes:
            if event.change_kind == RENAME and event.old_path is not None:
                events = live.pop(event.old_path, [])
            else:
                events = live.get(event.path, [])
            events.append((commit, event))
            live[event.path] = events
    return {
        path: Lineage(path, tuple(events))
        for path, events in live.items()
        if path in history.present_paths
    }


# -- newline-delimited JSON interchange (schema v1) ---------------------------

def _fields(value: object) -> object:
    """The ``json.dumps`` hook of the history records: a nested record as
    its fields, a time in ISO 8601, the file set as a sorted list."""
    if isinstance(value, RawIdentity):
        return vars(value)
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, frozenset):
        return sorted(value)
    raise TypeError(f"a {type(value).__name__} has no history JSON")


_encode = json.JSONEncoder(sort_keys=True, default=_fields).encode

# a change record's fields; blob ids are where contents are read, never written
_CHANGE_FIELDS = ("path", "change_kind", "old_path", "before_content", "after_content")


def history_ndjson_lines(history: CommitHistory, contents: bool = True) -> Iterator[str]:
    """A history as NDJSON lines, each ending in a newline: a meta line
    holding the ``CommitHistory`` fields but its commits and repository,
    then one commit per line. Every record is its own fields under their
    own names, a change record its path, kind, old path and the texts
    before and after: each commit's versions are read through one
    ``BlobReader`` as its line is made, so no more than one commit's
    contents are held at a time.

    ``contents=False`` writes each change record without its
    ``before_content`` and ``after_content``, and reads no blob;
    ``load_history`` refuses such a file, so it can never replay as empty
    files. Every other record and field is written as before.

    The meta line must stay first: ``load_history_meta`` reads only that
    line.
    """
    meta = {
        name: value for name, value in vars(history).items()
        if name not in ("commits", "repository")
    }
    yield _encode({"v": 1, "meta": meta}) + "\n"
    with BlobReader(history.repository) as blobs:
        for commit in history.commits:
            texts = blobs.versions(commit.changes) if contents else [()] * len(commit.changes)
            # without texts, zip stops at the first three fields
            changes = [
                dict(zip(_CHANGE_FIELDS, (event.path, event.change_kind, event.old_path, *pair)))
                for event, pair in zip(commit.changes, texts)
            ]
            yield _encode({"v": 1, **vars(commit), "changes": changes}) + "\n"


def _change_event(record: dict) -> FileChangeEvent:
    """A change record read back. The writer writes every field, so each is
    required here, even those the dataclass defaults: a modification that
    lost its ``before_content`` would otherwise replay as an addition. Each
    must also be a value extraction writes: one of the three kinds, a
    string path, an old path that is a string for a rename and null
    otherwise, and contents that are strings or null."""
    for name in _CHANGE_FIELDS:
        if name not in record:
            raise KeyError(name)
    for name in record:
        if name not in _CHANGE_FIELDS:
            raise TypeError(f"a change record has no field {name!r}")
    kind, old_path = record["change_kind"], record["old_path"]
    if kind not in (ADDITION, MODIFICATION, RENAME):
        raise ValueError(f"change_kind {kind!r} is not one of the three kinds")
    if not isinstance(record["path"], str):
        raise TypeError(f"path {record['path']!r} is not a string")
    if not (isinstance(old_path, str) if kind == RENAME else old_path is None):
        raise TypeError(f"old_path {old_path!r} does not fit change_kind {kind!r}")
    for name in ("before_content", "after_content"):
        if not isinstance(record[name], (str, type(None))):
            raise TypeError(f"{name} {record[name]!r} is neither a string nor null")
    return FileChangeEvent(**record)


def _parse_history(text: str, source: str) -> CommitHistory:
    """The history whose NDJSON ``history_ndjson_lines`` wrote as ``text``.

    Raises ``CorruptHistory``, naming the history ``source`` and the 1-based
    line of the first line that is not a well-formed meta or commit record,
    the meta line coming first and once; a record that lacks a field its
    type requires (a meta record its file list), a change record that lacks
    any of its five fields, and a record that holds a field its type does
    not have are not. A text with no record raises too.
    """
    commits = []
    head: CommitHistory | None = None
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"a JSON {type(obj).__name__}, not an object")
            version = obj.pop("v", None)
            if version != 1:
                raise ValueError(f"unsupported history schema version {version!r}")
            if ("meta" in obj) == (head is not None):
                raise ValueError("a second meta line" if head else "a commit before the meta line")
            if head is None:
                meta = obj["meta"]
                paths = meta["present_paths"]
                if not isinstance(meta["branch"], str):
                    raise TypeError(f"branch {meta['branch']!r} is not a string")
                if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
                    raise TypeError(f"present_paths {paths!r} is not a list of strings")
                meta["reference_time"] = datetime.fromisoformat(meta["reference_time"])
                meta["present_paths"] = frozenset(paths)
                head = CommitHistory(commits=(), **meta)
                continue
            obj["author"] = RawIdentity(**obj["author"])
            obj["timestamp"] = datetime.fromisoformat(obj["timestamp"])
            obj["changes"] = tuple(_change_event(change) for change in obj["changes"])
            commits.append(CommitRecord(**obj))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise CorruptHistory(f"{source} line {number} is malformed: {reason}") from exc
    if head is None:
        raise CorruptHistory(f"{source} has no meta line")
    return replace(head, commits=tuple(commits))


def save_history(history: CommitHistory, path: str | Path, contents: bool = True) -> None:
    """Write a history's NDJSON line by line, never holding the whole text;
    ``contents=False`` leaves the file contents out (see
    ``history_ndjson_lines``)."""
    atomic_write_text(path, history_ndjson_lines(history, contents))


def load_history(path: str | Path) -> CommitHistory:
    data = Path(path).read_bytes()
    return _parse_history(decode_utf8(data, "history", path, CorruptHistory), f"history {path}")


def load_history_meta(path: str | Path) -> CommitHistory:
    """The history saved at ``path`` without its commits, read from its
    first line alone, which must be the meta line."""
    with Path(path).open("rb") as handle:
        line = decode_utf8(handle.readline(), "history", path, CorruptHistory)
    return _parse_history(line, f"history {path}")
