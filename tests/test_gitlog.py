"""History extraction against real repositories built with fast-import."""

import json
import subprocess

import pytest

from fileexperts.errors import BranchNotFound, RepositoryNotFound
from fileexperts.fixtures import RepoBuilder
from fileexperts.gitlog import (
    CommitHistory,
    CommitRecord,
    FileChangeEvent,
    RawIdentity,
    extract_history,
    filter_source_files,
    history_from_ndjson,
    history_to_ndjson,
    resolve_lineages,
    save_history,
)


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
    assert lineage.path_chain == ["a.py", "b.py", "c.py"]
    # chain is connected: each rename's old path is the previous path
    renames = [e for _c, e in lineage.events if e.change_kind == "rename"]
    assert [r.old_path for r in renames] == ["a.py", "b.py"]
    # total events equal the per-segment sums
    assert len(lineage.events) == 4


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


def test_filter_to_empty_history(tmp_path):
    repo = RepoBuilder(tmp_path / "repo")
    repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"notes.txt": "hello\n"})
    path = repo.finish()
    filtered = filter_source_files(extract_history(path, "main"))
    assert filtered.commits == ()
    assert filtered.present_paths == frozenset()


def test_ndjson_roundtrip(demo_history):
    import json

    text = history_to_ndjson(demo_history)
    for line in text.splitlines():
        assert json.loads(line)["v"] == 1
    assert history_from_ndjson(text) == demo_history


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
    assert path.read_text() == history_to_ndjson(history)


_META = '{"v": 1, "meta": {"branch": "main", "reference_time": "2020-09-13T12:26:40+00:00"}}'
_COMMIT = {"v": 1, "id": "c1", "author": {"name": "Ana", "email": "ana@x.com"},
           "timestamp": "2020-09-13T12:26:40+00:00",
           "changes": [{"path": "a.py", "change_kind": "add", "after_content": "x = 1\n"}]}


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
    "change-without-path": json.dumps({**_COMMIT, "changes": [{"change_kind": "add"}]}),
    "change-not-an-object": json.dumps({**_COMMIT, "changes": ["a.py"]}),
}


@pytest.mark.parametrize("bad", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_ndjson_line_names_its_line(bad):
    from fileexperts.errors import CorruptHistory

    assert history_from_ndjson(f"{_META}\n{json.dumps(_COMMIT)}\n").commits[0].id == "c1"
    with pytest.raises(CorruptHistory, match="history line 3 is malformed"):
        history_from_ndjson(f"{_META}\n\n{bad}\n{json.dumps(_COMMIT)}\n")


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
    from fileexperts.errors import CorruptHistory

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
    assert second.before_content == body
    assert second.after_content == edited


def _rev_parse(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "rev-parse", *args], capture_output=True,
                          text=True, check=True).stdout.strip()


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
