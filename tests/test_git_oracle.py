"""git as a second, independent oracle for the replay.

git counts the lines each commit adds and removes, and blames each line of
the tip, without any of this package's code. Over merge-free fixture
histories its answers must be the replay's: per kept source event, the
added and removed line counts (``adds + mods`` and ``dels + mods``, since a
minimal diff of any tie-break has those counts) and, where every line of
every version is distinct so that no LCS tie arises, the author of each
line at the tip. Contents always end in a newline and hold no carriage
return here: the line-ending rule, where the replay and git part, is
pinned on its own below.
"""

import itertools
import subprocess
import tempfile
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from fileexperts.diffs import classify_changes
from fileexperts.features import _replay, compute_all, mine_history
from fileexperts.fixtures import RepoBuilder
from fileexperts.gitlog import BlobReader, extract_history, resolve_lineages, source_predicate
from conftest import blame_authors

AUTHORS = (("Ana", "ana@x.com"), ("Bo", "bo@y.com"), ("Cy", "cy@z.com"))
# repeated lines, so alignments meet ties
POOL = ("x = 1", "", "if x:", "    y = 2", "return x")


@st.composite
def scripts(draw, distinct: bool):
    """A merge-free history as (author, writes, deletes) commits that
    create, edit, rename and delete ``.py`` files, and create files again
    at paths deleted before. With ``distinct`` every line written is new:
    an edit inserts fresh lines, deletes lines, or rewrites one keeping its
    name, so each version's lines are distinct and none moves past
    another. Otherwise lines are drawn from a small pool as well, and edits
    may move them."""
    serial = itertools.count()

    def fresh():
        n = next(serial)
        return f"v{n} = {draw(st.integers(0, 9))}"

    def line():
        return fresh() if distinct or draw(st.booleans()) else draw(st.sampled_from(POOL))

    def edit(lines):
        lines = list(lines)
        for _ in range(draw(st.integers(1, 4))):
            actions = ["insert", "delete", "rewrite"] if distinct else ["insert", "delete",
                                                                         "rewrite", "move"]
            action = draw(st.sampled_from(actions))
            if action == "insert" or not lines:
                lines.insert(draw(st.integers(0, len(lines))), line())
                continue
            i = draw(st.integers(0, len(lines) - 1))
            if action == "delete":
                del lines[i]
            elif action == "rewrite":
                name = lines[i].split(" = ")[0] if " = " in lines[i] else "w"
                lines[i] = f"{name} = {draw(st.integers(10, 99))}"
            else:
                lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        return lines

    names = itertools.count()
    files: dict[str, list[str]] = {}
    gone: list[str] = []  # deleted paths, which a creation may take again
    commits = []
    for _ in range(draw(st.integers(1, 7))):
        writes: dict[str, list[str]] = {}
        deletes: list[str] = []
        for _ in range(draw(st.integers(1, 2))):
            live = sorted(path for path in files if path not in writes and path not in deletes)
            action = draw(st.sampled_from(["edit", "edit", "rename", "delete", "create"]
                                          if live else ["create"]))
            if action == "create":
                again = [path for path in gone if path not in deletes]
                path = (draw(st.sampled_from(again)) if again and draw(st.booleans())
                        else f"src/f{next(names)}.py")
                gone = [other for other in gone if other != path]
                files[path] = writes[path] = [line() for _ in range(draw(st.integers(0, 8)))]
            elif action == "edit":
                path = draw(st.sampled_from(live))
                files[path] = writes[path] = edit(files[path])
            elif action == "rename":
                old = draw(st.sampled_from(live))
                new = f"src/f{next(names)}.py"
                lines = files.pop(old)
                files[new] = writes[new] = edit(lines) if draw(st.booleans()) else lines
                deletes.append(old)
                gone.append(old)
            else:
                path = draw(st.sampled_from(live))
                del files[path]
                deletes.append(path)
                gone.append(path)
        commits.append((draw(st.sampled_from(AUTHORS)), writes, deletes))
    return commits


def _build(path, script):
    repo = RepoBuilder(path)
    for when, ((name, email), writes, deletes) in enumerate(script):
        texts = {path: "".join(f"{line}\n" for line in lines) for path, lines in writes.items()}
        repo.commit(name, email, 1_600_000_000 + when * 3600, writes=texts, deletes=deletes)
    return repo.finish()


def _git(repo, *args) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, check=True,
                          text=True).stdout


def git_numstat(repo, commit: str) -> dict[str, tuple[int, int]]:
    """(added, removed) lines by path of one commit, as git counts them; a
    rename's are under its new path."""
    fields = _git(repo, "diff-tree", "--no-commit-id", "--root", "-r", "-M", "-l1000",
                  "--minimal", "--numstat", "-z", commit).split("\0")
    counts, i = {}, 0
    while i < len(fields) - 1:
        added, removed, path = fields[i].split("\t")
        if path:
            i += 1
        else:  # a rename: the old path, then the new one
            path, i = fields[i + 2], i + 3
        counts[path] = (int(added), int(removed))
    return counts


def git_blame(repo, path: str) -> list[str]:
    """The author e-mail of each line of ``path`` at HEAD, by ``git blame``."""
    return [line[len("author-mail <"):-1].lower()
            for line in _git(repo, "blame", "--line-porcelain", "HEAD", "--", path).splitlines()
            if line.startswith("author-mail ")]


def replayed_counts(history) -> dict[tuple[str, str], tuple[int, int]]:
    """(adds + mods, dels + mods) of each event, by (commit, path), from the
    lineages the features replay: every lineage, not only those at the
    reference version, so that every event is counted once."""
    every = frozenset(event.path for commit in history.commits for event in commit.changes)
    counts = {}
    with BlobReader(history.repository) as blobs:
        for lineage in resolve_lineages(replace(history, present_paths=every)).values():
            hunks, _authors = _replay(lineage, blobs)
            for (commit, event), event_hunks in zip(lineage.events, hunks):
                stats = classify_changes(event_hunks)
                counts[commit.id, event.path] = (stats.adds + stats.mods, stats.dels + stats.mods)
    return counts


@settings(max_examples=40, deadline=None)
@given(scripts(distinct=False))
def test_event_line_counts_are_git_numstat(script):
    with tempfile.TemporaryDirectory() as tmp:
        repo = _build(f"{tmp}/repo", script)
        history = extract_history(repo, "main", keep=source_predicate())
        assert replayed_counts(history) == {
            (commit.id, event.path): git_numstat(repo, commit.id)[event.path]
            for commit in history.commits for event in commit.changes
        }


@settings(max_examples=40, deadline=None)
@given(scripts(distinct=True))
def test_line_authors_at_the_tip_are_git_blame(script):
    with tempfile.TemporaryDirectory() as tmp:
        repo = _build(f"{tmp}/repo", script)
        history = extract_history(repo, "main", keep=source_predicate())
        for path in sorted(history.present_paths):
            assert blame_authors(history, path) == git_blame(repo, path), path


def test_line_ending_changes_count_no_line(tmp_path):
    """The replay's rule: a line ends at a newline, which takes one carriage
    return before it along, and a last line may lack its newline. So a
    commit that only converts LF to CRLF, or only adds a final newline,
    changes no counted line: its author gets no adds, dels or mods and no
    blame. git counts each such line as removed and added again."""
    repo = RepoBuilder(tmp_path / "repo")
    repo.commit("Ana", "ana@x.com", 1_600_000_000,
                writes={"a.py": "x = 1\nif x:\n    y = 2\n", "b.py": "z = 3\nw = 4"})
    repo.commit("Bo", "bo@y.com", 1_600_100_000,
                writes={"a.py": "x = 1\r\nif x:\r\n    y = 2\r\n", "b.py": "z = 3\nw = 4\n"})
    repo = repo.finish()
    history = mine_history(repo, "main")
    second = history.commits[1].id
    assert git_numstat(repo, second) == {"a.py": (3, 3), "b.py": (1, 1)}
    assert replayed_counts(history) == {
        (history.commits[0].id, "a.py"): (3, 0), (history.commits[0].id, "b.py"): (2, 0),
        (second, "a.py"): (0, 0), (second, "b.py"): (0, 0),
    }
    with BlobReader(repo) as blobs:
        assert all(before != after for before, after in blobs.versions(history.commits[1].changes))
    assert blame_authors(history, "a.py") == ["ana@x.com"] * 3
    assert blame_authors(history, "b.py") == ["ana@x.com"] * 2
    assert git_blame(repo, "a.py") == ["bo@y.com"] * 3
    assert git_blame(repo, "b.py") == ["ana@x.com", "bo@y.com"]
    rows = compute_all(history).pair_map()
    for path in ("a.py", "b.py"):
        bo = rows["bo@y.com", path]
        assert (bo.adds, bo.dels, bo.mods, bo.blame, bo.num_commits) == (0, 0, 0, 0, 1)
