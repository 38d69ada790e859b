"""History extraction against real repositories built with fast-import."""

import contextlib
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from datetime import datetime, timezone
from pathlib import PurePosixPath
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_filter_source_files

from fileexperts import gitlog
from fileexperts.errors import BranchNotFound, CorruptHistory, RepositoryNotFound
from fileexperts.features import mine_history
from fileexperts.fixtures import RepoBuilder, perf_repo, random_repo
from fileexperts.gitlog import (
    BlobReader,
    CommitHistory,
    CommitRecord,
    FileChangeEvent,
    RawIdentity,
    extract_history,
    filter_source_files,
    history_ndjson_lines,
    load_history,
    load_history_meta,
    resolve_lineages,
    save_history,
    source_predicate,
)
from fileexperts.identities import developer_ids
from fileexperts.languages import DEFAULT_VENDOR_GLOBS, default_language_config

from conftest import inline_contents


def _versions(history, event):
    """An extracted event's (before, after) texts, read through the blob source."""
    with BlobReader(history.repository) as blobs:
        (pair,) = blobs.versions([event])
    return pair


def _linear_repo(path):
    repo = RepoBuilder(path)
    repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"a.py": "x = 1\n"})
    repo.commit("Ana", "ana@x.com", 1_600_100_000, writes={"a.py": "x = 1\ny = 2\n"})
    repo.commit("Bo", "bo@y.com", 1_600_200_000, writes={"b.py": "z = 3\n"})
    return repo.finish()


def test_linear_extraction(tmp_path):
    repo = _linear_repo(tmp_path / "repo")
    history = extract_history(repo, "main")
    assert len(history.commits) == 3
    assert [c.author.email for c in history.commits] == ["ana@x.com", "ana@x.com", "bo@y.com"]
    # oldest first, reference time is the tip's timestamp
    stamps = [c.timestamp for c in history.commits]
    assert stamps == sorted(stamps)
    assert history.reference_time == stamps[-1]
    assert history.present_paths == {"a.py", "b.py"}
    kinds = [(e.change_kind, e.path) for c in history.commits for e in c.changes]
    assert kinds == [("addition", "a.py"), ("modification", "a.py"), ("addition", "b.py")]


def test_merge_commits_excluded(tmp_path):
    repo = RepoBuilder(tmp_path / "repo")
    c1 = repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"a.py": "x = 1\n"}, parents=[])
    c2 = repo.commit("Ana", "ana@x.com", 1_600_100_000, writes={"a.py": "x = 2\n"}, parents=[c1])
    c3 = repo.commit("Bo", "bo@y.com", 1_600_150_000, writes={"b.py": "y = 1\n"}, parents=[c1])
    repo.commit("Bo", "bo@y.com", 1_600_200_000, writes={}, parents=[c2, c3])
    path = repo.finish()

    history = extract_history(path, "main")
    assert len(history.commits) == 3

    # parent-count oracle straight from git
    out = subprocess.run(
        ["git", "-C", str(path), "rev-list", "--parents", "--all"],
        capture_output=True,
        text=True,
    ).stdout
    parent_counts = {}
    for line in out.splitlines():
        sha, *parents = line.split()
        parent_counts[sha] = len(parents)
    for commit in history.commits:
        assert parent_counts[commit.id] <= 1


def test_rename_chain_preserves_lineage(tmp_path):
    repo = RepoBuilder(tmp_path / "repo")
    content1 = "alpha = 1\nbeta = 2\n"
    content2 = "alpha = 1\nbeta = 2\ngamma = 3\n"
    repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"a.py": content1})
    repo.commit("Ana", "ana@x.com", 1_600_100_000, deletes=("a.py",), writes={"b.py": content1})
    repo.commit("Bo", "bo@y.com", 1_600_200_000, writes={"b.py": content2})
    repo.commit("Bo", "bo@y.com", 1_600_300_000, deletes=("b.py",), writes={"c.py": content2})
    path = repo.finish()

    history = extract_history(path, "main")
    events = [(e.change_kind, e.path, e.old_path) for c in history.commits for e in c.changes]
    assert events == [
        ("addition", "a.py", None),
        ("rename", "b.py", "a.py"),
        ("modification", "b.py", None),
        ("rename", "c.py", "b.py"),
    ]
    lineages = resolve_lineages(history)
    assert set(lineages) == {"c.py"}
    lineage = lineages["c.py"]
    # chain is connected: each rename's old path is the previous path
    renames = [e for _c, e in lineage.events if e.change_kind == "rename"]
    assert [r.old_path for r in renames] == ["a.py", "b.py"]
    # total events equal the per-segment sums
    assert len(lineage.events) == 4


def test_lineages_are_the_files_at_the_reference_version():
    def commit(index, *changes):
        return CommitRecord(
            id=f"c{index}",
            author=RawIdentity("Ana", "ana@x.com"),
            timestamp=datetime(2021, 1, 1 + index, tzinfo=timezone.utc),
            changes=changes,
        )

    commits = (
        commit(0, FileChangeEvent("a.py", "addition", after_content="x\n"),
               FileChangeEvent("gone.py", "addition", after_content="g\n"),
               FileChangeEvent("c.py", "addition", after_content="c\n")),
        commit(1, FileChangeEvent("b.py", "rename", "a.py", "x\n", "x\n")),
        # c.py deleted in between, then added again
        commit(2, FileChangeEvent("c.py", "addition", after_content="c2\n")),
    )
    history = CommitHistory(
        commits=commits,
        branch="main",
        reference_time=commits[-1].timestamp,
        present_paths=frozenset({"b.py", "c.py"}),
    )
    lineages = resolve_lineages(history)
    # gone.py was deleted before the reference version, so it has no lineage
    assert set(lineages) == {"b.py", "c.py"}
    assert lineages["b.py"].path == "b.py"
    assert [c.id for c, _e in lineages["b.py"].events] == ["c0", "c1"]
    assert [c.id for c, _e in lineages["c.py"].events] == ["c0", "c2"]

    lineage = lineages["b.py"]
    with pytest.raises(FrozenInstanceError):
        lineage.path = "other.py"
    with pytest.raises(FrozenInstanceError):
        lineage.events = ()
    assert isinstance(lineage.events, tuple)


def test_copied_file_is_an_addition_even_when_git_reports_copies(tmp_path):
    repo = RepoBuilder(tmp_path / "repo")
    content = "alpha = 1\nbeta = 2\ngamma = 3\n"
    repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"a.py": content})
    repo.commit("Bo", "bo@y.com", 1_600_100_000, writes={"a.py": content + "delta = 4\n",
                                                          "b.py": content})
    path = repo.finish()
    subprocess.run(["git", "-C", str(path), "config", "diff.renames", "copies"], check=True)
    log = subprocess.run(["git", "-C", str(path), "log", "--raw", "--format="],
                         capture_output=True, text=True, check=True).stdout
    assert " C100\ta.py\tb.py\n" in log  # git log does report the copy

    history = extract_history(path, "main")
    events = [(e.change_kind, e.path, e.old_path) for c in history.commits for e in c.changes]
    assert events == [
        ("addition", "a.py", None),
        ("modification", "a.py", None),
        ("addition", "b.py", None),
    ]
    assert _versions(history, history.commits[1].changes[1])[1] == content


def _retained_by_extraction(repo):
    """The bytes ``extract_history`` allocates and its history keeps."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        history = extract_history(repo, "main")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert history.commits
    return retained


def test_extraction_holds_no_file_contents(tmp_path):
    """Two repositories with the same commits, one with lines 100 times
    longer, over 1 MB more content: extraction keeps blob ids alone, so the
    histories it returns take the same memory."""
    written = {}

    def build(path, scale):
        repo = RepoBuilder(path)
        written[scale] = 0
        for step in range(12):
            writes = {
                f"src/mod_{index}.py": "".join(
                    f"{'value' * scale}_{index}_{line} = {step}\n" for line in range(60)
                )
                for index in range(3)
            }
            written[scale] += sum(map(len, writes.values()))
            repo.commit("Ana", "ana@x.com", 1_600_000_000 + step * 3_600, writes=writes)
        return repo.finish()

    short, long = build(tmp_path / "short", 1), build(tmp_path / "long", 100)
    assert written[100] - written[1] > 1_000_000
    _retained_by_extraction(short)  # imports and first-call caches, outside the measure
    retained = [_retained_by_extraction(repo) for repo in (short, long)]
    assert abs(retained[1] - retained[0]) < 64 * 1024, retained


def test_authors_are_read_as_utf_8_whatever_the_log_output_encoding(tmp_path, monkeypatch):
    """A commit recorded in ISO-8859-1 is mined with its author in UTF-8,
    also when git config asks for log output in ISO-8859-1."""
    repo = tmp_path / "repo"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    ident = "Jos\xe9 Mar\xeda <jose@x.com> 1600000000 +0000".encode("latin-1")
    stream = b"".join([
        b"commit refs/heads/main\n",
        b"author " + ident + b"\ncommitter " + ident + b"\n",
        b"encoding ISO-8859-1\n",
        b"data 4\nhola\n",
        b"M 100644 inline a.py\ndata 6\nx = 1\n\n",
    ])
    subprocess.run(["git", "-C", str(repo), "fast-import", "--quiet"], input=stream, check=True)
    author = RawIdentity("Jos\xe9 Mar\xeda", "jose@x.com")
    assert [c.author for c in extract_history(repo, "main").commits] == [author]
    monkeypatch.setenv("GIT_CONFIG_COUNT", "1")
    monkeypatch.setenv("GIT_CONFIG_KEY_0", "i18n.logOutputEncoding")
    monkeypatch.setenv("GIT_CONFIG_VALUE_0", "ISO-8859-1")
    assert [c.author for c in extract_history(repo, "main").commits] == [author]


def test_authors_with_no_e_mail_are_told_apart_by_name(tmp_path):
    """An empty e-mail becomes a sentinel of the lower-cased name, so two
    developers without one stay apart and one name in two cases is one."""
    repo = RepoBuilder(tmp_path / "repo")
    repo.commit("Ann One", "", 1_600_000_000, writes={"a.py": "x = 1\n"})
    repo.commit("Bob Two", "", 1_600_100_000, writes={"a.py": "x = 2\n"})
    repo.commit("ann one", "", 1_600_200_000, writes={"b.py": "y = 1\n"})
    repo = repo.finish()
    assert [c.author for c in extract_history(repo, "main").commits] == [
        RawIdentity("Ann One", "no-email:ann one"),
        RawIdentity("Bob Two", "no-email:bob two"),
        RawIdentity("ann one", "no-email:ann one"),
    ]
    assert sorted(developer_ids(mine_history(repo, "main"))) == [
        "no-email:ann one", "no-email:bob two",
    ]


def test_author_fields_may_hold_any_byte_but_nul(tmp_path):
    """The author's name, e-mail and time are NUL-separated fields, so a
    name holding \\x01 is mined as it is written."""
    repo = RepoBuilder(tmp_path / "repo")
    repo.commit("An\x01na", "a@x.com", 1_600_000_000, writes={"a.py": "x = 1\n"})
    (commit,) = extract_history(repo.finish(), "main").commits
    assert commit.author == RawIdentity("An\x01na", "a@x.com")


def test_a_commit_before_1970_reads_as_the_epoch(tmp_path):
    """git prints an empty author time for a commit dated before 1970, which
    reads as the epoch, the floor of the reference time."""
    repo = RepoBuilder(tmp_path / "repo")
    repo.commit("Ana", "a@x.com", -100, writes={"a.py": "x = 1\n"})
    history = extract_history(repo.finish(), "main")
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    assert [c.timestamp for c in history.commits] == [epoch]
    assert history.reference_time == epoch


def test_extraction_is_deterministic(tmp_path):
    repo = _linear_repo(tmp_path / "repo")
    assert extract_history(repo, "main") == extract_history(repo, "main")


def test_branch_handling(tmp_path):
    repo = _linear_repo(tmp_path / "repo")
    with pytest.raises(BranchNotFound):
        extract_history(repo, "nope")
    # default 'master' falls back to the repository default branch
    history = extract_history(repo)
    assert history.branch == "main"
    with pytest.raises(RepositoryNotFound):
        extract_history(tmp_path / "missing")


def test_filter_source_files(tmp_path):
    repo = RepoBuilder(tmp_path / "repo")
    repo.commit(
        "Ana",
        "ana@x.com",
        1_600_000_000,
        writes={
            "main.py": "x = 1\n",
            "logo.png": "binary-ish\n",
            "README.md": "docs\n",
            "vendor/lib.js": "var x = 1;\n",
        },
    )
    repo.commit("Bo", "bo@y.com", 1_600_100_000, writes={"README.md": "more docs\n"})
    path = repo.finish()

    history = extract_history(path, "main")
    filtered = filter_source_files(history)
    paths = [e.path for c in filtered.commits for e in c.changes]
    assert paths == ["main.py"]
    # the docs-only commit disappears entirely
    assert len(filtered.commits) == 1
    assert filtered.present_paths == {"main.py"}


# each distinct path of a mined history moves to one of these, so the filter
# meets vendored, unknown-extension and look-alike paths as well as sources
_PATH_REWRITES = (
    lambda p: p,
    lambda p: f"vendor/{p}",
    lambda p: f"node_modules/pkg/{p}",
    lambda p: f"third_party/{p}",
    lambda p: f"lib/vendor/{p}",  # vendor not at the root: kept
    lambda p: str(PurePosixPath(p).with_suffix(".txt")),
    lambda p: str(PurePosixPath(p).with_suffix(PurePosixPath(p).suffix.upper())),
    lambda p: f"{p}.orig",
)


@pytest.fixture(scope="module")
def random_histories(tmp_path_factory):
    root = tmp_path_factory.mktemp("filter")
    return [extract_history(random_repo(root / f"repo{seed}", seed=seed), "main")
            for seed in (1, 3, 8)]  # each with renames


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_filter_matches_the_per_event_predicate(random_histories, data):
    history = data.draw(st.sampled_from(random_histories))
    paths = sorted({e.path for c in history.commits for e in c.changes}
                   | {e.old_path for c in history.commits for e in c.changes if e.old_path}
                   | history.present_paths)
    moved = {p: data.draw(st.sampled_from(_PATH_REWRITES))(p) for p in paths}
    history = replace(
        history,
        commits=tuple(
            replace(commit, changes=tuple(
                replace(e, path=moved[e.path], old_path=e.old_path and moved[e.old_path])
                for e in commit.changes
            ))
            for commit in history.commits
        ),
        present_paths=frozenset(moved[p] for p in history.present_paths),
    )
    extensions = set(default_language_config().by_extension)
    expected = naive_filter_source_files(history, extensions, DEFAULT_VENDOR_GLOBS)
    assert filter_source_files(history) == expected


def test_filter_to_empty_history(tmp_path):
    repo = RepoBuilder(tmp_path / "repo")
    repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"notes.txt": "hello\n"})
    path = repo.finish()
    filtered = filter_source_files(extract_history(path, "main"))
    assert filtered.commits == ()
    assert filtered.present_paths == frozenset()


# the source filter meets each kind of path here; the upper-case
# extensions are sources, since extensions are compared lower-cased
_MIXED_PATHS = (
    "src/app.py", "src/util.js", "Main.PY", "lib/Tool.JAVA", "lib/vendor/keep.py",
    "notes.txt", "src/app.py.orig", "docs/guide.md", "vendor/dep.py",
    "node_modules/pkg/index.js",
)


def _text(rng, tag):
    return "".join(f"{tag}_{i} = {rng.randrange(1000)}\n" for i in range(12))


def _mixed_repo(path, seed):
    """Source paths beside .txt, .orig, .md, vendor/ and node_modules/ ones,
    renames both ways across the source boundary, deletions, and a tip
    commit that touches only README.md."""
    rng = random.Random(seed)
    authors = [("Ana", "ana@x.com"), ("Bo", "bo@y.com"), ("Cy", "cy@z.com")]
    repo = RepoBuilder(path)
    when = 1_600_000_000
    files = {"a.txt": _text(rng, "a"), "b.py": _text(rng, "b")}
    repo.commit(*authors[0], when, writes=dict(files))
    when += 3_600
    files["a.py"], files["b.txt"] = files.pop("a.txt"), files.pop("b.py")
    repo.commit(*authors[1], when, deletes=("a.txt", "b.py"),
                writes={"a.py": files["a.py"], "b.txt": files["b.txt"]})
    for _ in range(rng.randint(3, 10)):
        when += rng.randint(1, 86_400)
        op = rng.random()
        if files and op < 0.2:
            gone = rng.choice(sorted(files))
            del files[gone]
            repo.commit(*rng.choice(authors), when, deletes=(gone,))
        elif files and op < 0.4:  # a rename with one line edited, to any free path
            old = rng.choice(sorted(files))
            new = rng.choice([p for p in _MIXED_PATHS + ("a.txt", "b.py") if p not in files])
            lines = files.pop(old).splitlines(keepends=True)
            lines[rng.randrange(len(lines))] = f"edited = {rng.randrange(1000)}\n"
            files[new] = "".join(lines)
            repo.commit(*rng.choice(authors), when, deletes=(old,), writes={new: files[new]})
        else:
            writes = {path: _text(rng, f"w{when}") for path in
                      rng.sample(_MIXED_PATHS, rng.randint(1, 3))}
            files.update(writes)
            repo.commit(*rng.choice(authors), when, writes=writes)
    repo.commit(*authors[2], when + 86_400, writes={"README.md": f"docs {seed}\n"})
    return repo.finish()


def _blob_sha(text):
    data = text.encode()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def _content_blobs(history):
    """The blob id of every version the history's events hold, each read
    through the blob source."""
    with BlobReader(history.repository) as blobs:
        return {_blob_sha(content) for commit in history.commits
                for pair in blobs.versions(commit.changes) for content in pair
                if content is not None}


class _RecordedStdin:
    """A cat-file's stdin that records each sha written to it."""

    def __init__(self, stdin, shas):
        self._stdin, self._shas = stdin, shas

    def write(self, data):
        self._shas.extend(data.decode().split())
        return self._stdin.write(data)

    def __getattr__(self, name):
        return getattr(self._stdin, name)


@contextlib.contextmanager
def _cat_file_calls():
    """Each ``cat-file`` process started inside the block, with the shas
    requested of it."""
    calls = []
    popen = subprocess.Popen

    def spy(args, **kwargs):
        proc = popen(args, **kwargs)
        if "cat-file" in args:
            calls.append((proc, []))
            proc.stdin = _RecordedStdin(proc.stdin, calls[-1][1])
        return proc

    with mock.patch.object(gitlog.subprocess, "Popen", spy):
        yield calls


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    globs=st.sampled_from([DEFAULT_VENDOR_GLOBS, (), ("vendor/**",), ("src/**", "lib/**")]),
)
def test_filtering_during_extraction_changes_nothing(tmp_path_factory, seed, globs):
    repo = _mixed_repo(tmp_path_factory.mktemp("mixed") / "repo", seed)
    config = default_language_config()
    everything = extract_history(repo, "main")
    with _cat_file_calls() as calls:
        kept = extract_history(repo, "main", keep=source_predicate(config, globs))
        assert not calls  # extraction reads no blob
        kept_blobs = _content_blobs(kept)
    requested = {sha for _proc, shas in calls for sha in shas}
    assert kept == filter_source_files(everything, config, globs)
    assert kept == naive_filter_source_files(everything, set(config.by_extension), globs)
    # the README-only tip is dropped, yet still sets the reference time
    tip = everything.commits[-1]
    assert tip.id == kept.metadata["tip"] and tip.id not in {c.id for c in kept.commits}
    assert kept.reference_time == tip.timestamp
    # cat-file is asked for the kept changes' blobs, and for no other
    dropped = _content_blobs(everything) - kept_blobs
    assert requested == kept_blobs
    assert dropped and not dropped & requested


def _hash_objects(repo, blobs):
    return [
        subprocess.run(["git", "-C", str(repo), "hash-object", "-w", "--stdin"], input=data,
                       capture_output=True, check=True).stdout.decode().strip()
        for data in blobs
    ]


_BLOBS = {
    "empty": b"",
    "no-trailing-newline": b"x = 1\ny = 2",
    "header-shaped-line": b"x = 1\n0123456789abcdef0123456789abcdef01234567 blob 12\ny = 2\n",
    "invalid-utf-8": b"caf\xe9 = 1\n\xff\xfe\x00\n",
}


@pytest.mark.parametrize("name", _BLOBS)
def test_streamed_blob_equals_cat_file(tmp_path, name):
    repo = RepoBuilder(tmp_path / "repo").path
    shas = dict(zip(_BLOBS, _hash_objects(repo, _BLOBS.values())))
    with BlobReader(repo) as blobs:  # one stream holds them all
        fetched = blobs.versions(
            FileChangeEvent(key, "addition", after_blob=sha) for key, sha in shas.items()
        )
    shown = subprocess.run(["git", "-C", str(repo), "cat-file", "-p", shas[name]],
                           capture_output=True, check=True).stdout
    assert fetched[list(shas).index(name)] == (None, shown.decode("utf-8", "replace"))


@pytest.mark.parametrize("case", ["missing-sha", "not-a-repository"])
def test_unreadable_blob_raises_and_waits_for_cat_file(tmp_path, case):
    repo = RepoBuilder(tmp_path / "repo").path
    # more than a pipe holds, so git is still writing when the read stops
    (big,) = _hash_objects(repo, [b"x = 1\n" * 200_000])
    missing = "0" * 39 + "1"  # requested before the big blob
    if case == "not-a-repository":
        repo = tmp_path / "plain"
        repo.mkdir()
    named = missing if case == "missing-sha" else "not a git repository"
    event = FileChangeEvent("a.py", "modification", before_blob=missing, after_blob=big)
    with _cat_file_calls() as calls, pytest.raises(CorruptHistory, match=named):
        with BlobReader(repo) as blobs:
            blobs.versions([event])
    ((proc, _shas),) = calls
    assert proc.returncode is not None


_NULL = "0" * 40
_COMMITS = [digit * 40 for digit in "1234"]
_AUTHORS = ["Ana Lima\0ana@x.com", " Bo Reis \0", "Ana Lima\0ana@x.com", "Cy\0cy@z.org"]
# `diff-tree --stdin --always --root -r -M --raw -z
# --format=%H%x00%an%x00%ae%x00%at` output for four commits, each header
# followed by its entries as git prints them, the first after a newline:
# the first commit adds a file, a gitlink and a non-UTF-8 path; the second,
# by an author with no e-mail, renames the file and edits README.md, which
# keep drops; the third touches README.md and deletes the non-UTF-8 path;
# the fourth deletes the renamed file and adds one whose path starts with a
# newline. Deletions make no change.
_DIFF_TREE = "".join([
    f"{_COMMITS[0]}\x00{_AUTHORS[0]}\x001600000000\0",
    f"\n:000000 100644 {_NULL} {'a' * 40} A\0src/a.py\0",
    f":000000 160000 {_NULL} {'b' * 40} A\0src/sub.py\0",
    f":000000 100644 {_NULL} {'c' * 40} A\0caf\xe9.py\0",
    f"{_COMMITS[1]}\x00{_AUTHORS[1]}\x001600000100\0",
    f"\n:100644 100644 {'a' * 40} {'b' * 40} R087\0src/a.py\0src/b.py\0",
    f":100644 100644 {'c' * 40} {'a' * 40} M\0README.md\0",
    f"{_COMMITS[2]}\x00{_AUTHORS[2]}\x001600000200\0",
    f"\n:100644 100644 {'a' * 40} {'c' * 40} M\0README.md\0",
    f":100644 000000 {'c' * 40} {_NULL} D\0caf\xe9.py\0",
    f"{_COMMITS[3]}\x00{_AUTHORS[3]}\x001600000300\0",
    f"\n:100644 000000 {'b' * 40} {_NULL} D\0src/b.py\0",
    f":000000 100644 {_NULL} {'a' * 40} A\0\nlib.py\0",
]).encode("latin-1")  # so caf\xe9.py is the one path that is not UTF-8
_ANA = RawIdentity("Ana Lima", "ana@x.com")
_DIFF_TREE_COMMITS = [
    CommitRecord(_COMMITS[0], _ANA, datetime(2020, 9, 13, 12, 26, 40, tzinfo=timezone.utc), (
        FileChangeEvent("src/a.py", "addition", after_blob="a" * 40),
        FileChangeEvent("caf\ufffd.py", "addition", after_blob="c" * 40),
    )),
    CommitRecord(
        _COMMITS[1], RawIdentity("Bo Reis", "no-email:bo reis"),
        datetime(2020, 9, 13, 12, 28, 20, tzinfo=timezone.utc),
        (FileChangeEvent("src/b.py", "rename", old_path="src/a.py", before_blob="a" * 40,
                         after_blob="b" * 40),),
    ),
    CommitRecord(_COMMITS[2], _ANA, datetime(2020, 9, 13, 12, 30, tzinfo=timezone.utc), ()),
    CommitRecord(
        _COMMITS[3], RawIdentity("Cy", "cy@z.org"),
        datetime(2020, 9, 13, 12, 31, 40, tzinfo=timezone.utc),
        (FileChangeEvent("\nlib.py", "addition", after_blob="a" * 40),),
    ),
]


def _is_python(path):
    return path.endswith(".py")


def test_streamed_diff_tree_parses_alike_in_blocks_of_every_size():
    """Every split of the stream into blocks parses to the same commits:
    the gitlink, the deletions and the README.md edits are dropped, the
    commit left with none is handed on with none, and each distinct path,
    blob id, author name and e-mail is one string."""
    for size in range(1, len(_DIFF_TREE) + 1):
        blocks = [_DIFF_TREE[i:i + size] for i in range(0, len(_DIFF_TREE), size)]
        assert list(gitlog._read_commits(blocks, _is_python)) == _DIFF_TREE_COMMITS, size
    parsed = list(gitlog._read_commits([_DIFF_TREE], _is_python))
    added, renamed = parsed[0].changes[0], parsed[1].changes[0]
    assert added.path is renamed.old_path  # both "src/a.py"
    assert added.after_blob is renamed.before_blob
    assert parsed[0].author.name is parsed[2].author.name
    assert parsed[0].author.email is parsed[2].author.email
    unfiltered = list(gitlog._read_commits([_DIFF_TREE]))
    assert [change.path for change in unfiltered[2].changes] == ["README.md"]


@contextlib.contextmanager
def _fake_diff_tree(tmp_path, monkeypatch, stdout, code):
    """Put a ``git`` on PATH that answers ``diff-tree`` with ``stdout``,
    writes "fatal: simulated" to stderr and exits with ``code``, and runs
    the real git for every other command. Yields each process started."""
    real_git = shutil.which("git")
    fake = tmp_path / "bin" / "git"
    fake.parent.mkdir()
    fake.write_text(
        f"#!{sys.executable}\n"
        "import os, sys\n"
        "if 'diff-tree' not in sys.argv:\n"
        f"    os.execv({real_git!r}, sys.argv)\n"
        "sys.stdin.buffer.read()\n"
        f"sys.stdout.buffer.write({stdout!r})\n"
        "sys.stderr.write('fatal: simulated\\n')\n"
        f"sys.exit({code})\n"
    )
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", f"{fake.parent}{os.pathsep}{os.environ['PATH']}")
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    with mock.patch.object(gitlog.subprocess, "Popen", spy):
        yield started


@pytest.mark.parametrize(
    "stdout, code, failure",
    [
        (_DIFF_TREE[:10], 0, "the output ends inside a record"),
        (_DIFF_TREE[:_DIFF_TREE.index(b"Ana Lima") + 3], 0, "the output ends inside a record"),
        (_DIFF_TREE[:_DIFF_TREE.index(b":000000") + 10], 0, "the output ends inside a record"),
        (_DIFF_TREE[:_DIFF_TREE.index(b"src/a.py")], 0, "the output ends inside a record"),
        (_DIFF_TREE[:_DIFF_TREE.index(b"src/b.py")], 0, "the output ends inside a record"),
        (_DIFF_TREE[:-3], 0, "the output ends inside a record"),
        (_DIFF_TREE[:_DIFF_TREE.index(_COMMITS[2].encode())], 0, "it answered 2 of 3 commits"),
        (_DIFF_TREE.replace(b"\0ana@x.com", b"", 1), 0, "malformed diff-tree header"),
        (_DIFF_TREE[:_DIFF_TREE.index(_COMMITS[3].encode())], 128, "exit status 128"),
    ],
    ids=["in-commit-sha", "in-commit-header", "in-entry-header", "before-path",
         "between-rename-paths", "in-last-path", "between-commits", "header-missing-field",
         "exit-128"],
)
def test_cut_or_failed_diff_tree_raises_with_git_stderr(tmp_path, monkeypatch, stdout, code,
                                                        failure):
    repo = _linear_repo(tmp_path / "repo")
    with _fake_diff_tree(tmp_path, monkeypatch, stdout, code) as started, pytest.raises(
        CorruptHistory, match=f"git diff-tree failed: {failure}.*; fatal: simulated"
    ):
        extract_history(repo, "main")
    assert started and all(proc.returncode is not None for proc in started)


def test_ndjson_roundtrip(demo_history):
    import json

    text = "".join(history_ndjson_lines(demo_history))
    for line in text.splitlines():
        assert json.loads(line)["v"] == 1
    assert gitlog._parse_history(text, "history") == inline_contents(demo_history)


def test_history_ndjson_bytes_are_pinned(demo_repo_path):
    """The demo repository's history NDJSON, unfiltered and as the CLI
    mines it, down to the byte."""
    raw = extract_history(demo_repo_path, "main")
    mined = mine_history(demo_repo_path, "main")
    assert [hashlib.sha256("".join(history_ndjson_lines(h)).encode()).hexdigest()
            for h in (raw, mined)] == [
        "ba2e30e6c706dad002a3fd08179b3dc0cc952b22cf5136857315fcbe1b658bd6",
        "ed6a5f9e8e7bd413248eb47c78fea9743fb42e15b7f8b672e0a435a263195f8e",
    ]


def test_save_history_streams_its_lines(tmp_path):
    import tracemalloc
    from datetime import datetime, timezone

    body = "".join(f"value_{i} = {i}  # padding to make each commit a few KB\n" for i in range(60))
    history = CommitHistory(
        commits=tuple(
            CommitRecord(
                id=f"{i:040x}",
                author=RawIdentity("Ana", "ana@x.com"),
                timestamp=datetime.fromtimestamp(1_600_000_000 + i, tz=timezone.utc),
                changes=(
                    FileChangeEvent(f"f{i}.py", "modification", before_content=body,
                                    after_content=body + f"tail = {i}\n"),
                ),
            )
            for i in range(1000)
        ),
        branch="main",
        reference_time=datetime.fromtimestamp(1_600_001_000, tz=timezone.utc),
        present_paths=frozenset(f"f{i}.py" for i in range(1000)),
    )
    path = tmp_path / "history.ndjson"
    tracemalloc.start()
    try:
        save_history(history, path)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size / 4
    assert path.read_text() == "".join(history_ndjson_lines(history))


def test_lines_without_contents_are_the_full_lines_less_two_keys(random_histories, tmp_path):
    for history in random_histories:
        assert any(e.change_kind == "rename" for c in history.commits for e in c.changes)
        records = [json.loads(line) for line in history_ndjson_lines(history)]
        for record in records[1:]:
            for change in record["changes"]:
                del change["before_content"], change["after_content"]
        bare = list(history_ndjson_lines(history, contents=False))
        assert bare == [json.dumps(record, sort_keys=True) + "\n" for record in records]
        path = tmp_path / "bare.ndjson"
        save_history(history, path, contents=False)
        assert path.read_text() == "".join(bare)
        # never read back as files with no contents
        missing = "line 2 is malformed: missing key 'before_content'"
        with pytest.raises(CorruptHistory, match=missing):
            load_history(path)
        assert load_history_meta(path) == replace(history, commits=())


_META = ('{"v": 1, "meta": {"branch": "main", "present_paths": [], '
         '"reference_time": "2020-09-13T12:26:40+00:00"}}')
_COMMIT = {"v": 1, "id": "c1", "author": {"name": "Ana", "email": "ana@x.com"},
           "timestamp": "2020-09-13T12:26:40+00:00",
           "changes": [{"path": "a.py", "change_kind": "addition", "old_path": None,
                        "before_content": None, "after_content": "x = 1\n"}]}


_MALFORMED = {
    "cut-short": '{"v": 1, "meta": {"branch": "main"',
    "not-an-object": "[1, 2]",
    "unknown-schema": '{"v": 2, "meta": {}}',
    "meta-without-branch": '{"v": 1, "meta": {"reference_time": "2020-09-13T12:26:40+00:00"}}',
    "meta-not-an-object": '{"v": 1, "meta": ["main"]}',
    "bad-timestamp": json.dumps({**_COMMIT, "timestamp": "yesterday"}),
    "numeric-timestamp": json.dumps({**_COMMIT, "timestamp": 1600000000}),
    "no-changes": json.dumps({k: v for k, v in _COMMIT.items() if k != "changes"}),
    "author-not-an-object": json.dumps({**_COMMIT, "author": ["Ana", "ana@x.com"]}),
    "change-without-path": json.dumps({**_COMMIT, "changes": [{"change_kind": "addition"}]}),
    "change-not-an-object": json.dumps({**_COMMIT, "changes": ["a.py"]}),
    # the writer writes every change field, null or not, so none may be missing
    **{
        f"change-without-{name}": json.dumps(
            {**_COMMIT, "changes": [{k: v for k, v in _COMMIT["changes"][0].items() if k != name}]}
        )
        for name in ("old_path", "before_content", "after_content")
    },
    "change-with-unknown-field": json.dumps(
        {**_COMMIT, "changes": [{**_COMMIT["changes"][0], "mode": "100644"}]}
    ),
    "author-with-extra-key": json.dumps(
        {**_COMMIT, "author": {**_COMMIT["author"], "login": "ana"}}
    ),
    # extraction writes only these values, so no other may load and replay
    **{
        name: json.dumps({**_COMMIT, "changes": [{**_COMMIT["changes"][0], **fields}]})
        for name, fields in {
            "deletion-kind": {"change_kind": "deletion"},
            "rename-without-old-path": {"change_kind": "rename"},
            "rename-with-numeric-old-path": {"change_kind": "rename", "old_path": 3},
            "addition-with-old-path": {"old_path": "b.py"},
            "modification-with-old-path": {"change_kind": "modification", "old_path": "b.py",
                                           "before_content": "x = 0\n"},
            "numeric-path": {"path": 7},
            "null-path": {"path": None},
            "numeric-content": {"after_content": 1},
            "list-content": {"before_content": ["x = 0\n"]},
        }.items()
    },
}


@pytest.mark.parametrize("bad", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_ndjson_line_names_its_line(bad):
    good = gitlog._parse_history(f"{_META}\n{json.dumps(_COMMIT)}\n", "history")
    assert good.commits[0].id == "c1"
    with pytest.raises(CorruptHistory, match="history line 3 is malformed"):
        gitlog._parse_history(f"{_META}\n\n{bad}\n{json.dumps(_COMMIT)}\n", "history")


def test_meta_line_without_its_file_list_is_malformed():
    """The reference version's file set decides which lineages exist, so a
    meta line must hold it."""
    meta = {k: v for k, v in json.loads(_META)["meta"].items() if k != "present_paths"}
    text = f"{json.dumps({'v': 1, 'meta': meta})}\n{json.dumps(_COMMIT)}\n"
    with pytest.raises(CorruptHistory, match=re.escape(
        "history line 1 is malformed: missing key 'present_paths'"
    )):
        gitlog._parse_history(text, "history")


_MISTYPED_META = {
    # a string would load as the set of its characters
    "paths-a-string": ("present_paths", "a.py", "present_paths 'a.py' is not a list of strings"),
    "path-a-number": ("present_paths", [1], "present_paths [1] is not a list of strings"),
    "branch-a-number": ("branch", 7, "branch 7 is not a string"),
}


@pytest.mark.parametrize("field, value, reason", _MISTYPED_META.values(), ids=_MISTYPED_META.keys())
def test_meta_field_of_the_wrong_type_is_malformed(tmp_path, field, value, reason):
    path = tmp_path / "history.ndjson"
    meta = json.loads(_META)
    path.write_text(f"{json.dumps(meta)}\n{json.dumps(_COMMIT)}\n")
    assert load_history_meta(path).branch == "main"
    meta["meta"][field] = value
    path.write_text(f"{json.dumps(meta)}\n{json.dumps(_COMMIT)}\n")
    with pytest.raises(CorruptHistory, match=re.escape(f"line 1 is malformed: {reason}")):
        load_history_meta(path)


def _meta(present_paths, reference_time):
    return json.dumps({"v": 1, "meta": {"branch": "main", "present_paths": present_paths,
                                        "reference_time": reference_time}})


@pytest.mark.parametrize(
    "text, named",
    [
        # without a meta line the branch, the file set and the metadata are unknown
        (f"\n{json.dumps(_COMMIT)}\n", "line 2 is malformed: a commit before the meta line"),
        # a later meta line would replace the file set and the reference time
        ("\n".join([_meta([], "2020-09-13T12:26:40+00:00"), json.dumps(_COMMIT),
                    _meta(None, "2030-01-01T00:00:00+00:00")]),
         "line 3 is malformed: a second meta line"),
        ("\n", "history has no meta line"),
    ],
    ids=["no-meta-line", "second-meta-line", "no-record"],
)
def test_history_starts_with_its_only_meta_line(text, named):
    with pytest.raises(CorruptHistory, match=named):
        gitlog._parse_history(text, "history")


def test_history_that_is_not_utf_8_names_its_file_and_line(tmp_path):
    path = tmp_path / "history.ndjson"
    text = f"{_META}\n{json.dumps(_COMMIT)}\n".replace("Ana", "An\xe9")
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(CorruptHistory, match=re.escape(f"history {path} line 2: 'utf-8' codec")):
        load_history(path)


def test_malformed_saved_history_names_its_file_and_line(tmp_path):
    path = tmp_path / "history.ndjson"
    path.write_text(f"{_META}\nnot a commit\n")
    with pytest.raises(CorruptHistory, match=re.escape(f"history {path} line 2 is malformed")):
        load_history(path)
    path.write_text(f"{json.dumps(_COMMIT)}\n")
    with pytest.raises(CorruptHistory, match=re.escape(f"history {path} line 1 is malformed")):
        load_history_meta(path)


def test_merge_commit_at_tip(tmp_path):
    repo = RepoBuilder(tmp_path / "repo")
    c1 = repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"a.py": "x = 1\n"}, parents=[])
    c2 = repo.commit("Ana", "ana@x.com", 1_600_100_000, writes={"a.py": "x = 2\n"}, parents=[c1])
    c3 = repo.commit("Bo", "bo@y.com", 1_600_150_000, writes={"b.py": "y = 1\n"}, parents=[c1])
    repo.commit("Bo", "bo@y.com", 1_600_300_000, writes={}, parents=[c2, c3])
    history = extract_history(repo.finish(), "main")
    # the tip itself is excluded; reference time falls back to the newest
    # non-merge commit
    assert len(history.commits) == 3
    assert history.reference_time == max(c.timestamp for c in history.commits)


def test_corrupt_object_raises(tmp_path):
    repo = _linear_repo(tmp_path / "repo")
    objects = sorted((repo / ".git" / "objects").glob("??/*"))
    for obj in objects:
        obj.write_bytes(b"garbage")
    with pytest.raises(CorruptHistory):
        extract_history(repo, "main")


def test_rename_with_edit_still_one_lineage(tmp_path):
    repo = RepoBuilder(tmp_path / "repo")
    body = "\n".join(f"line_{i} = {i}" for i in range(12)) + "\n"
    edited = body.replace("line_3 = 3", "line_3 = 33")
    repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"old.py": body})
    repo.commit("Bo", "bo@y.com", 1_600_100_000, deletes=("old.py",), writes={"new.py": edited})
    path = repo.finish()
    history = extract_history(path, "main")
    second = history.commits[1].changes[0]
    assert second.change_kind == "rename"
    assert second.old_path == "old.py"
    assert _versions(history, second) == (body, edited)


def _rev_parse(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "rev-parse", *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def test_perf_repo_head_is_pinned(tmp_path):
    """A seeded perf_repo is the same repository, commit for commit, so the
    benchmark's fixtures do not drift with changes to the generator."""
    repo = perf_repo(tmp_path / "perf", commits=200, files=30, devs=4, seed=0)
    assert _rev_parse(repo, "HEAD") == "7a4da2c789088af7ca5bc0e47864603a846ccf7b"


def test_fixtures_ignore_inherited_repository_variables(tmp_path, monkeypatch):
    """Under a GIT_DIR, GIT_WORK_TREE and GIT_INDEX_FILE naming another
    repository, as a git hook inherits them, a fixture is built in its own
    path and leaves the other repository's refs and HEAD as they were."""
    decoy = RepoBuilder(tmp_path / "decoy", branch="trunk")
    decoy.commit("Ana", "ana@x.com", 1_600_000_000, writes={"a.py": "x = 1\n"})
    decoy = decoy.finish()

    def state(repo, *args):
        return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                              check=True).stdout

    before = [state(decoy, "for-each-ref"), state(decoy, "symbolic-ref", "HEAD")]
    with monkeypatch.context() as host:
        host.setenv("GIT_DIR", str(decoy / ".git"))
        host.setenv("GIT_WORK_TREE", str(decoy))
        host.setenv("GIT_INDEX_FILE", str(decoy / ".git" / "index"))
        fixture = RepoBuilder(tmp_path / "fixture")
        fixture.commit("Bo", "bo@y.com", 1_600_100_000, writes={"b.py": "y = 1\n"})
        fixture = fixture.finish()
    assert [state(decoy, "for-each-ref"), state(decoy, "symbolic-ref", "HEAD")] == before
    assert state(fixture, "log", "--format=%an %s", "main") == "Bo change\n"
    assert state(fixture, "symbolic-ref", "HEAD") == "refs/heads/main\n"


def test_branch_tip_git_calls(tmp_path, monkeypatch):
    """Each answer and error takes one git call, the master-to-HEAD
    fallback two, and names what rev-parse names."""
    import fileexperts.gitlog as gitlog

    repo = RepoBuilder(tmp_path / "repo")
    repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"a.py": "x = 1\n"})
    repo.commit("Bo", "bo@y.com", 1_600_100_000, writes={"a.py": "x = 2\n"},
                branch="side")
    repo.commit("Ana", "ana@x.com", 1_600_200_000, writes={"a.py": "x = 3\n"})
    repo = repo.finish()
    empty = RepoBuilder(tmp_path / "empty").path
    main_tip, side_tip = _rev_parse(repo, "main"), _rev_parse(repo, "side")
    calls = []
    run = subprocess.run

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(gitlog.subprocess, "run", counted)

    def tip(path, *branch, git_calls=1):
        calls.clear()
        try:
            return gitlog.branch_tip(path, *branch)
        finally:
            assert len(calls) == git_calls

    assert tip(repo, git_calls=2) == ("main", main_tip)  # no master: HEAD's branch
    assert tip(repo, None) == ("main", main_tip)
    assert tip(repo, "side") == ("side", side_tip)
    assert tip(repo, "main~1") == ("main~1", _rev_parse(repo, "main~1"))
    with pytest.raises(BranchNotFound):
        tip(repo, "nope")
    (empty / "HEAD").write_text("a file, not a revision\n")
    with pytest.raises(BranchNotFound, match="no commits on HEAD"):
        tip(empty, git_calls=2)
    with pytest.raises(BranchNotFound, match="no commits on HEAD"):
        tip(empty, None)
    with pytest.raises(RepositoryNotFound):
        tip(tmp_path)
    with pytest.raises(RepositoryNotFound):
        tip(tmp_path / "missing", git_calls=0)
    run(["git", "-C", str(repo), "checkout", "-q", "--detach", "side"], check=True)
    assert tip(repo, git_calls=2) == ("HEAD", side_tip) == (_rev_parse(repo, "--abbrev-ref", "HEAD"),
                                                side_tip)
    run(["git", "-C", str(repo), "branch", "-q", "master", "main"], check=True)
    assert tip(repo) == ("master", main_tip)
