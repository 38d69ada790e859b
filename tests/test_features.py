"""Development variables against worked examples and the naive replay oracle."""

import random
import re
import subprocess
import tempfile
from collections import Counter
from datetime import datetime
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fileexperts.diffs
import fileexperts.features
from fileexperts import cli
from fileexperts.errors import CorruptFeatureTable
from fileexperts.features import (
    CSV_HEADER,
    MiningInputs,
    compute_all,
    feature_table,
    feature_table_to_csv,
    mine_history,
    read_feature_csv,
    write_feature_csv,
)
from fileexperts.fixtures import RepoBuilder, random_repo
from fileexperts.gitlog import BlobReader, _parse_history, extract_history, history_ndjson_lines
from fileexperts.identities import developer_ids
from conftest import add, blame_authors, make_history, mod
from oracles import naive_feature_table


def test_creation_only_pair():
    content = "\n".join(f"row_{i} = {i}" for i in range(10)) + "\n"
    history = make_history([("d1@x.com", 0, [add("a.py", content)])])
    vector = compute_all(history).pair_map()[("d1@x.com", "a.py")]
    assert vector.adds == 10
    assert vector.dels == 0
    assert vector.mods == 0
    assert vector.amount == 10
    assert vector.fa == 1
    assert vector.blame == 10
    assert vector.num_commits == 1
    assert vector.num_days == 0
    assert vector.num_mod_devs == 0
    assert vector.size == 10
    assert vector.avg_days_commits == 0.0


def test_num_mod_devs_counts_developers_not_commits():
    v1 = "a = 1\n"
    v2 = "a = 2\n"
    v3 = "a = 3\n"
    history = make_history(
        [
            ("d1@x.com", 0, [add("a.py", v1)]),
            ("d2@x.com", 1, [mod("a.py", v1, v2)]),
            ("d2@x.com", 2, [mod("a.py", v2, v3)]),
        ]
    )
    pairs = compute_all(history).pair_map()
    assert pairs[("d1@x.com", "a.py")].num_mod_devs == 1
    assert pairs[("d2@x.com", "a.py")].num_mod_devs == 0


def test_avg_days_between_commits():
    versions = ["a = 0\n", "a = 0\nb = 1\n", "a = 0\nb = 1\nc = 2\n"]
    history = make_history(
        [
            ("d@x.com", 0, [add("a.py", versions[0])]),
            ("d@x.com", 2, [mod("a.py", versions[0], versions[1])]),
            ("d@x.com", 6, [mod("a.py", versions[1], versions[2])]),
        ]
    )
    vector = compute_all(history).pair_map()[("d@x.com", "a.py")]
    assert vector.avg_days_commits == pytest.approx(3.0)
    assert vector.num_days == 0
    assert vector.num_commits == 3


def test_compute_all_row_universe():
    history = make_history(
        [
            ("d1@x.com", 0, [add("a.py", "x = 1\n"), add("b.py", "y = 1\n")]),
            ("d2@x.com", 1, [mod("a.py", "x = 1\n", "x = 2\n")]),
        ]
    )
    table = compute_all(history)
    pairs = [(r.developer, r.file) for r in table.rows]
    # d2 never touched b.py, so only 3 rows; order is file then developer
    assert pairs == [("d1@x.com", "a.py"), ("d2@x.com", "a.py"), ("d1@x.com", "b.py")]


def test_compute_all_empty_history():
    assert compute_all(make_history([])).rows == ()


def test_fa_unique_and_blame_conserved(demo_history):
    table = compute_all(demo_history)
    by_file = {}
    for row in table.rows:
        by_file.setdefault(row.file, []).append(row.features)
    for file, vectors in by_file.items():
        assert sum(v.fa for v in vectors) == 1, file
        assert sum(v.blame for v in vectors) == vectors[0].size, file


def test_errors():
    """An unknown file and a pair whose developer never touched the file
    have no row."""
    history = make_history([("d1@x.com", 0, [add("a.py", "x = 1\n")])])
    table = compute_all(history)
    assert sorted({row.file for row in table.rows}) == ["a.py"]
    assert set(table.pair_map()) == {("d1@x.com", "a.py")}


def test_monotonicity_under_appended_commit():
    v1 = "a = 1\nb = 2\n"
    v2 = "a = 1\nb = 2\nc = 3\n"
    base = [("d@x.com", 0, [add("a.py", v1)])]
    before = compute_all(make_history(base)).pair_map()[("d@x.com", "a.py")]
    extended = base + [("d@x.com", 1, [mod("a.py", v1, v2)])]
    after = compute_all(make_history(extended)).pair_map()[("d@x.com", "a.py")]
    assert after.num_commits >= before.num_commits
    assert after.adds >= before.adds
    assert after.amount >= before.amount


def test_features_identical_after_ndjson_roundtrip(demo_history):
    direct = compute_all(demo_history)
    reloaded = compute_all(_parse_history("".join(history_ndjson_lines(demo_history)), "history"))
    assert direct == reloaded


def test_matches_naive_oracle_on_random_repos(tmp_path):
    for seed in (7, 8, 9, 11, 12, 13):
        history = mine_history(random_repo(tmp_path / f"repo{seed}", seed=seed), "main")
        table = compute_all(history)
        expected = naive_feature_table(history)
        actual = {
            (row.developer, row.file): dict(
                zip(CSV_HEADER[2:], row.features.as_tuple())
            )
            for row in table.rows
        }
        assert set(actual) == set(expected), f"pair universe differs for seed {seed}"
        for pair in sorted(expected):
            assert actual[pair] == expected[pair], f"seed {seed}, pair {pair}"


def test_single_file_lookups_agree_with_compute_all_on_random_repos(tmp_path):
    for seed in (11, 12, 13):
        history = mine_history(random_repo(tmp_path / f"repo{seed}", seed=seed), "main")
        table = compute_all(history)
        assert table.rows, f"seed {seed} mined no rows"
        for file in sorted({row.file for row in table.rows}):
            rows = [row for row in table.rows if row.file == file]
            blame = {row.developer: row.features.blame for row in rows}
            counts = Counter(blame_authors(history, file))
            assert counts == {dev: n for dev, n in blame.items() if n}, f"seed {seed}, {file}"


def test_feature_csv_roundtrip(demo_history, tmp_path):
    histories = [demo_history]
    for seed in (3, 4):
        histories.append(mine_history(random_repo(tmp_path / f"repo{seed}", seed=seed), "main"))
    for index, history in enumerate(histories):
        table = compute_all(history)
        path = tmp_path / f"features{index}.csv"
        write_feature_csv(table, path)
        assert path.read_text().splitlines()[0] == ",".join(CSV_HEADER)
        ids = developer_ids(history)
        assert read_feature_csv(path, history.reference_time, ids) == table
        # the meta line alone carries every developer of a canonicalized history
        head = _parse_history("".join(history_ndjson_lines(history)).split("\n", 1)[0], "history")
        assert developer_ids(head) == ids
        assert head.reference_time == table.reference_time


def test_table_holds_each_row_developer_s_record_once(tmp_path, monkeypatch):
    """Ana commits under two e-mails, merged by name; Cy's only file is
    deleted, so Cy has a record in the history but no row. The table holds
    Ana's record alone, and a cache hit gives the same table, records
    included."""
    repo = RepoBuilder(tmp_path / "repo")
    repo.commit("Ana Lima", "ana@x.com", 1_600_000_000, writes={"a.py": "x = 1\n"})
    repo.commit("Cy", "cy@z.org", 1_600_100_000, writes={"c.py": "y = 1\n"})
    repo.commit("Ana Lima", "lima@y.com", 1_600_200_000, writes={"a.py": "x = 2\n"},
                deletes=("c.py",))
    repo = repo.finish()
    cold = feature_table(repo, "main", cache_dir=tmp_path / "cache")
    assert sorted(developer_ids(mine_history(repo, "main"))) == ["ana@x.com", "cy@z.org"]
    assert {row.developer for row in cold.rows} == set(cold.developers) == {"ana@x.com"}
    assert cold.developers["ana@x.com"].emails == {"ana@x.com", "lima@y.com"}

    def refuse(*_args, **_kwargs):
        raise AssertionError("a cached table was computed again")

    monkeypatch.setattr(fileexperts.features, "mine_history", refuse)
    monkeypatch.setattr(fileexperts.features, "compute_all", refuse)
    warm = feature_table(repo, "main", cache_dir=tmp_path / "cache")
    assert warm == cold
    assert warm.developers == cold.developers


def _corrupt(lines, number, replacement):
    return lines[: number - 1] + [replacement] + lines[number:]


_CORRUPT_CSV = {
    "wrong-header": (1, "developer,file,adds", f"lacks columns {list(CSV_HEADER[3:])}"),
    "empty-file": (1, None, f"lacks columns {list(CSV_HEADER)}"),
    "repeated-column": (
        1, ",".join(CSV_HEADER + ("adds",)), "names columns ['adds'] more than once"
    ),
    "short-row": (3, "d@x.com,a.py,1,2", "line 3: "),
    "long-row": (3, "d@x.com,a.py" + ",1" * 13, "line 3: "),
    "non-numeric-count": (2, "d@x.com,a.py,1,0,0,0,1,1,1,1,many,0,1,0.0", "line 2: "),
    "non-numeric-average": (3, "d@x.com,a.py,1,0,0,0,1,1,1,1,0,0,1,soon", "line 3: "),
    "not-utf-8": (3, "d\udcff@x.com,a.py,1,0,0,0,1,1,1,1,0,0,1,0.0", "line 3: 'utf-8' codec"),
}


@pytest.mark.parametrize(
    "number, replacement, problem", _CORRUPT_CSV.values(), ids=_CORRUPT_CSV.keys()
)
def test_corrupt_feature_csv_names_its_line(demo_history, tmp_path, number, replacement,
                                            problem):
    path = tmp_path / "features.csv"
    write_feature_csv(compute_all(demo_history), path)
    lines = path.read_text().splitlines()
    assert len(lines) > 3
    text = "" if replacement is None else "\n".join(_corrupt(lines, number, replacement)) + "\n"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # \udcff is the byte 0xff
    with pytest.raises(CorruptFeatureTable, match=re.escape(f"CSV {path} {problem}")):
        read_feature_csv(path)


_paths = st.sampled_from(["a.py", "b.py", "c.js"])
_texts = st.lists(st.sampled_from(["x = 1", "y = 2", "if x:", "z = 3"]), max_size=6).map(
    lambda lines: "\n".join(lines) + "\n" if lines else ""
)
_events = st.lists(
    st.tuples(_paths, _texts, _texts),
    min_size=1,
    max_size=4,
)
_commits = st.lists(
    st.tuples(st.sampled_from(["d1@x.com", "d2@y.com", "d3@z.com"]), _events),
    min_size=1,
    max_size=10,
)


@given(_commits)
@settings(max_examples=80, deadline=None)
def test_invariants_hold_for_arbitrary_event_streams(commit_spec):
    """Feature invariants are total: they hold even for incoherent event
    streams (before-contents that do not chain), since blame replays the
    lineage against its own state, diffing it again where it diverges from
    the recorded before-content; the values match the naive oracle."""
    commits = []
    seen = set()
    for day, (email, events) in enumerate(commit_spec):
        changes = []
        for path, before, after in events:
            if any(c[1] == path for c in changes):
                continue  # one event per path per commit
            if path not in seen:
                changes.append(add(path, after))
                seen.add(path)
            else:
                changes.append(mod(path, before, after))
        commits.append((email, float(day), changes))
    history = make_history(commits)
    table = compute_all(history)
    by_file = {}
    for row in table.rows:
        f = row.features
        assert f.amount == f.adds + f.dels
        assert f.fa in (0, 1)
        assert f.blame <= f.size
        assert f.num_commits >= 1
        assert f.num_days >= 0
        if f.num_commits == 1:
            assert f.avg_days_commits == 0.0
        by_file.setdefault(row.file, []).append(f)
    for file, vectors in by_file.items():
        assert sum(v.fa for v in vectors) == 1, file
        assert sum(v.blame for v in vectors) == vectors[0].size, file
    actual = {
        (row.developer, row.file): dict(zip(CSV_HEADER[2:], row.features.as_tuple()))
        for row in table.rows
    }
    assert actual == naive_feature_table(history)


_AUTHORS = st.sampled_from([("Ana", "ana@x.com"), ("Bo", "bo@y.com"), ("Ana", "ANA@x.com")])
# seconds since the previous commit; a negative gap is clock skew
_GAPS = st.integers(-3 * 86400, 10 * 86400)
_timed_commits = st.lists(
    st.tuples(
        _AUTHORS,
        _GAPS,
        st.dictionaries(st.sampled_from(["a.py", "b.py", "c.js"]), _texts, min_size=1,
                        max_size=2),
    ),
    min_size=1,
    max_size=6,
)
# after every commit _build_repo dates: 2020-09-13 plus at most 6 base gaps
# of 10 days, then an extra commit's 10 more
_REFERENCE_TIME = "2021-01-01T00:00:00+00:00"


def _extra_commits(paths, texts):
    """Commits to slot into a ``_timed_commits`` history, each before the
    base commit its index names (at the end past the last), by the same
    authors, writing only ``paths``."""
    return st.lists(
        st.tuples(st.integers(0, 6), _AUTHORS, _GAPS,
                  st.dictionaries(st.sampled_from(paths), texts, min_size=1, max_size=2)),
        min_size=1,
        max_size=4,
    )


def _build_repo(path, commits, offset: int = 0, extra=()) -> Path:
    """The repository of ``commits``, which start at 1,600,000,000 +
    ``offset`` seconds. Each ``extra`` commit is dated by its gap from the
    base commit before it and moves no base commit's time."""
    repo = RepoBuilder(path / "repo")
    when = 1_600_000_000 + offset
    for index in range(len(commits) + 1):
        for slot, (name, email), gap, writes in extra:
            if min(slot, len(commits)) == index:
                repo.commit(name, email, when + gap, writes=writes)
        if index < len(commits):
            (name, email), gap, writes = commits[index]
            when += gap
            repo.commit(name, email, when, writes=writes)
    return repo.finish()


def _mine_csv(repo: Path, *options: str) -> bytes:
    out = repo.parent / "features.csv"
    assert cli.main(["mine", "--repo", str(repo), "--branch", "main", "--no-cache",
                     "--out", str(out), *options]) == 0
    return out.read_bytes()


@settings(max_examples=25, deadline=None)
@given(_timed_commits, st.integers(1, 2**31))
def test_a_time_shift_leaves_the_mined_csv_byte_identical(commits, offset):
    """A metamorphic relation: adding one positive offset to every commit
    time moves the reference time with it, and every variable is a count or
    a difference of times, so the feature CSV ``mine`` prints is the same."""
    with tempfile.TemporaryDirectory() as tmp:
        base, shifted = Path(tmp, "base"), Path(tmp, "shifted")
        assert _mine_csv(_build_repo(base, commits)) == _mine_csv(
            _build_repo(shifted, commits, offset)
        )


@settings(max_examples=25, deadline=None)
@given(_timed_commits, _extra_commits(["d.py"], _texts))
def test_commits_to_another_file_leave_a_files_rows_byte_identical(commits, extra):
    """A metamorphic relation, locality: every variable of a pair counts
    within the file's lineage, so commits that touch only ``d.py``, by
    authors the history already has or whose aliases resolve alike, leave
    every other file's CSV rows as they were at a fixed reference time."""

    def other_rows(csv: bytes) -> list[bytes]:
        return [line for line in csv.splitlines() if line.split(b",")[1] != b"d.py"]

    with tempfile.TemporaryDirectory() as tmp:
        base = _build_repo(Path(tmp, "base"), commits)
        grown = _build_repo(Path(tmp, "grown"), commits, extra=extra)
        options = ("--reference-time", _REFERENCE_TIME)
        assert other_rows(_mine_csv(base, *options)) == other_rows(_mine_csv(grown, *options))


# no source text starts with this line, so no kept file shares a dropped blob
_dropped_texts = _texts.map(lambda text: "# not mined\n" + text)


@settings(max_examples=25, deadline=None)
@given(_timed_commits, _extra_commits(["vendor/v.py", "notes.txt"], _dropped_texts))
def test_commits_to_dropped_paths_leave_the_mined_csv_byte_identical(commits, extra):
    """A metamorphic relation, dropped paths: a vendored file and a
    non-source file are left out before any blob is read, so commits that
    touch only those change no byte of the CSV at a fixed reference time,
    and the pipeline never asks for one of their blobs."""
    with tempfile.TemporaryDirectory() as tmp:
        base = _build_repo(Path(tmp, "base"), commits)
        grown = _build_repo(Path(tmp, "grown"), commits, extra=extra)
        expected = _mine_csv(base, "--reference-time", _REFERENCE_TIME)

        def git(*args) -> str:
            return subprocess.run(["git", "-C", str(grown), *args], capture_output=True,
                                  check=True, text=True).stdout

        dropped = {
            entry.split()[2]
            for commit in git("rev-list", "main").split()
            for entry in git("ls-tree", "-r", commit, "--", "vendor", "notes.txt").splitlines()
        }
        asked = []
        read = BlobReader._read

        def recording(self, blobs):
            asked.extend(blobs)
            return read(self, blobs)

        inputs = MiningInputs(reference_time=datetime.fromisoformat(_REFERENCE_TIME))
        with mock.patch.object(BlobReader, "_read", recording):
            table = compute_all(mine_history(grown, "main", inputs), jobs=1)
        assert feature_table_to_csv(table).encode() == expected
        assert dropped and asked and not dropped.intersection(asked)


def test_compute_all_diffs_each_event_once(monkeypatch):
    base = "\n".join(f"value_{i} = {i}" for i in range(12)) + "\n"
    versions = [base]
    for step in range(1, 6):
        versions.append(versions[-1].replace(f"value_{step} = {step}", f"value_{step} = {step}0"))
    history = make_history(
        [("d1@x.com", 0, [add("a.py", versions[0]), add("b.py", "x = 1\n")])]
        + [
            (f"d{step % 2 + 1}@x.com", step, [mod("a.py", versions[step - 1], versions[step])])
            for step in range(1, 6)
        ]
    )
    calls = []
    original = fileexperts.diffs.diff_lines

    def counting(before, after):
        calls.append(1)
        return original(before, after)

    monkeypatch.setattr(fileexperts.diffs, "diff_lines", counting)
    table = compute_all(history)
    events = sum(len(commit.changes) for commit in history.commits)
    assert len(calls) == events == 7
    assert sum(row.features.blame for row in table.rows if row.file == "a.py") == 12


def test_replay_splits_each_file_version_once(monkeypatch):
    """On a linear lineage each event's before-content is the previous
    event's after-content, whose lines are reused: n events, n splits."""
    versions = ["".join(f"line_{j} = {i}\n" for j in range(i + 1)) for i in range(6)]
    history = make_history(
        [("d1@x.com", 0, [add("a.py", versions[0])])]
        + [
            (f"d{step % 2 + 1}@x.com", step, [mod("a.py", versions[step - 1], versions[step])])
            for step in range(1, 6)
        ]
    )
    calls = []
    original = fileexperts.features.split_lines

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(fileexperts.features, "split_lines", counting)
    table = compute_all(history)
    assert calls == versions
    assert sum(row.features.blame for row in table.rows) == 6


def test_file_emptied_at_reference_has_zero_size():
    history = make_history(
        [
            ("d1@x.com", 0, [add("a.py", "x = 1\ny = 2\n")]),
            ("d2@x.com", 1, [mod("a.py", "x = 1\ny = 2\n", "")]),
        ]
    )
    pairs = compute_all(history).pair_map()
    for dev in ("d1@x.com", "d2@x.com"):
        vector = pairs[(dev, "a.py")]
        assert vector.size == 0
        assert vector.blame == 0


def test_cross_extension_rename_starts_lineage_at_rename(tmp_path):
    """A rename across the source-filter boundary (txt -> py) leaves the
    rename event as the lineage head: first authorship goes to the renamer
    and blame still covers the whole file."""
    from fileexperts.fixtures import RepoBuilder
    from fileexperts.gitlog import extract_history, filter_source_files

    repo = RepoBuilder(tmp_path / "repo")
    body = "alpha = 1\nbeta = 2\n"
    repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"notes.txt": body})
    repo.commit(
        "Bo", "bo@y.com", 1_600_100_000, deletes=("notes.txt",), writes={"notes.py": body}
    )
    repo.commit("Cy", "cy@z.com", 1_600_200_000, writes={"notes.py": body + "gamma = 3\n"})
    history = filter_source_files(extract_history(repo.finish(), "main"))

    kinds = [e.change_kind for c in history.commits for e in c.changes]
    assert kinds == ["rename", "modification"]
    table = compute_all(history)
    rows = {r.developer: r.features for r in table.rows}
    assert rows["bo@y.com"].fa == 1
    assert rows["cy@z.com"].fa == 0
    assert rows["bo@y.com"].blame + rows["cy@z.com"].blame == rows["bo@y.com"].size == 3
    expected = naive_feature_table(history)
    for row in table.rows:
        pair = (row.developer, row.file)
        assert dict(zip(CSV_HEADER[2:], row.features.as_tuple())) == expected[pair]


def test_long_line_edit_and_rewrite(tmp_path):
    """A 4,000-character line: a light edit is one modification, a full
    rewrite one delete plus one add."""
    rng = random.Random(0)

    def line():
        return "".join(rng.choice("abcdefghij") for _ in range(4000))

    created = line()
    edited = created[:1000] + "#" * 10 + created[1010:]
    repo = RepoBuilder(tmp_path / "repo")
    for day, (name, text) in enumerate((("ana", created), ("bo", edited), ("cy", line()))):
        repo.commit(name, f"{name}@x.com", 1_600_000_000 + day * 86400, writes={"data.py": text})
    table = compute_all(extract_history(repo.finish(), "main"))

    rows = {r.developer: r.features.as_tuple() for r in table.rows}
    # adds, dels, mods, conds, amount, fa, blame, num_commits, num_days,
    # num_mod_devs, size, avg_days_commits
    assert rows == {
        "ana@x.com": (1, 0, 0, 0, 1, 1, 0, 1, 2, 2, 1, 0.0),
        "bo@x.com": (0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0.0),
        "cy@x.com": (1, 1, 0, 0, 2, 0, 1, 1, 0, 0, 1, 0.0),
    }


def test_line_counts_are_git_line_counts(tmp_path):
    """size, the creator's adds and the blame sum count a file's lines as
    git does: one per newline, plus an unterminated last line. Form feeds,
    vertical tabs, \\x1c-\\x1e, U+0085, U+2028, U+2029 and a lone carriage
    return end no line, and CRLF ends one."""
    texts = {
        "a.py": "x = 1\n\x0c\ny = 2\x0bz\nif x:\n",
        "b.js": 'let s = "a\u2028b";\nlet t = 1;\n',
        "c.rb": "a = 1\r\nb = 2\r\n",
        "d.py": "a = 1\rb = 2\x1c\x1d\x1e\x85c = 3",
        "e.php": "\u2029\n\n",
        "f.py": "x = 1\r\r\ny = 2\r",
    }
    repo = RepoBuilder(tmp_path / "repo")
    for day, (path, text) in enumerate(texts.items()):
        repo.commit(f"dev{day}", f"dev{day}@x.com", 1_600_000_000 + day * 86400,
                    writes={path: text})
    path = repo.finish()
    table = compute_all(mine_history(path, "main"))

    for file in texts:
        blob = subprocess.run(["git", "-C", str(path), "cat-file", "-p", f"main:{file}"],
                              capture_output=True, check=True).stdout
        lines = blob.count(b"\n") + (not blob.endswith(b"\n"))
        (creator,) = [r.features for r in table.rows if r.file == file and r.features.fa]
        assert creator.size == creator.adds == lines, file
        assert sum(r.features.blame for r in table.rows if r.file == file) == lines, file


def test_same_instant_commits():
    v1, v2 = "a = 1\n", "a = 1\nb = 2\n"
    history = make_history(
        [
            ("d@x.com", 0.0, [add("a.py", v1)]),
            ("d@x.com", 0.0, [mod("a.py", v1, v2)]),
        ]
    )
    vector = compute_all(history).pair_map()[("d@x.com", "a.py")]
    assert vector.num_commits == 2
    assert vector.avg_days_commits == 0.0
    assert vector.num_days == 0


def test_fa_follows_rename_lineage():
    content = "x = 1\n"
    history = make_history(
        [
            ("creator@x.com", 0, [add("old.py", content)]),
            ("renamer@y.com", 1, [("rename", "new.py", "old.py", content, content)]),
            ("editor@z.com", 2, [mod("new.py", content, "x = 2\n")]),
        ]
    )
    table = compute_all(history)
    fa = {r.developer: r.features.fa for r in table.rows if r.file == "new.py"}
    assert fa == {"creator@x.com": 1, "renamer@y.com": 0, "editor@z.com": 0}
