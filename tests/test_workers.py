"""The forked worker pool, and the feature table computed on it."""

import os
import signal
import subprocess
import sys
import threading
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fileexperts
from fileexperts import workers
from fileexperts.errors import (
    CorruptHistory, InvalidCount, SingleClassData, WorkerDied, ZeroVarianceWarning,
)
from fileexperts.features import compute_all, feature_table_to_csv, mine_history
from fileexperts.fixtures import RepoBuilder, random_repo
from fileexperts.gitlog import BlobReader

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="workers fork on Linux only"
)


@linux_only
@pytest.mark.parametrize("jobs", [2, 5])
def test_units_run_in_workers_and_return_in_order(jobs):
    results = workers.map(lambda unit: (unit * unit, os.getpid()), range(7), jobs)
    assert [square for square, _pid in results] == [unit * unit for unit in range(7)]
    assert os.getpid() not in {pid for _square, pid in results}


@pytest.mark.parametrize("jobs", [1, 2, 6])
def test_warnings_then_the_first_failure_in_unit_order(jobs):
    def unit(number):
        if number in (1, 3, 5):
            warnings.warn(f"unit {number}", ZeroVarianceWarning)
        if number >= 3:
            raise SingleClassData(f"unit {number} failed")
        return number

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingleClassData, match="unit 3 failed"):
            workers.map(unit, range(6), jobs)
    assert [str(w.message) for w in caught] == ["unit 1", "unit 3"]
    assert {w.category for w in caught} == {ZeroVarianceWarning}


@linux_only
def test_warnings_from_a_script_come_back_alone(tmp_path):
    """A unit defined in a script run as ``__main__``, whose module has no
    spec, re-issues its own warnings and nothing else; Python 3.12 would
    add a DeprecationWarning to each if handed the script's globals."""
    script = tmp_path / "script.py"
    script.write_text("""
import warnings
from fileexperts import workers

def unit(number):
    warnings.warn(f"unit {number}", UserWarning)
    return number

if __name__ == "__main__":
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workers.map(unit, range(2), 2)
    for warning in caught:
        print(warning.category.__name__, warning.message)
""")
    env = dict(os.environ, PYTHONPATH=str(Path(fileexperts.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.splitlines() == ["UserWarning unit 0", "UserWarning unit 1"]


@contextmanager
def _bounded_and_clean(seconds=60):
    """Fail the test if the block runs over ``seconds``, or if it leaves a
    child process or an open file descriptor behind."""
    descriptors = len(os.listdir("/proc/self/fd"))

    def overran(signum, frame):
        raise TimeoutError(f"workers.map ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == descriptors


@linux_only
def test_results_larger_than_a_pipe_come_back_whole():
    with _bounded_and_clean():
        results = workers.map(lambda unit: bytes([unit]) * 1_000_000, range(3), 2)
    assert results == [bytes([unit]) * 1_000_000 for unit in range(3)]


@linux_only
def test_more_positions_than_the_task_pipe_holds():
    # a large queue: the task file holds 20,000 four-byte positions, and the
    # two workers read them one at a time through its shared offset
    with _bounded_and_clean():
        assert workers.map(lambda unit: -unit, range(20_000), 2) == [-u for u in range(20_000)]


@linux_only
def test_a_worker_that_dies_fails_its_unit_without_hanging():
    def unit(number):
        if number == 2:
            os._exit(3)
        return number

    with _bounded_and_clean():
        with pytest.raises(WorkerDied, match=r"unit 2; the workers exited with codes \[0, 3\]"):
            workers.map(unit, range(5), 2)


@linux_only
def test_an_unpicklable_result_raises_here():
    with _bounded_and_clean():
        with pytest.raises(TypeError, match="cannot pickle"):
            workers.map(lambda unit: threading.Lock() if unit == 1 else unit, range(4), 2)


@pytest.mark.parametrize("jobs", [0, -1])
def test_map_refuses_jobs_below_one(jobs):
    with pytest.raises(InvalidCount, match=f"jobs must be >= 1, got {jobs}"):
        workers.map(abs, range(4), jobs)
    with pytest.raises(InvalidCount):
        workers.map(abs, [], jobs)


@pytest.fixture(scope="module")
def repo_root(tmp_path_factory):
    return tmp_path_factory.mktemp("random-repos")


@pytest.fixture(scope="module")
def skewed_history(tmp_path_factory):
    """z.py edited in 30 commits, m.py in 2, and four files of one commit
    each, created in reverse path order."""
    repo = RepoBuilder(tmp_path_factory.mktemp("skewed") / "repo")
    when = 1_600_000_000
    for name in ("d.py", "c.py", "b.py", "a.py"):
        when += 3_600
        repo.commit("Ana", "ana@x.com", when, writes={name: f"{name[0]} = 1\n"})
    for step in range(30):
        when += 3_600
        author = ("Ana", "ana@x.com") if step % 3 else ("Bo", "bo@y.com")
        writes = {"z.py": "".join(f"z{line} = {step}\n" for line in range(step % 7 + 1))}
        if step in (4, 9):
            writes["m.py"] = f"if m:\n    m = {step}\n"
        repo.commit(*author, when, writes=writes)
    return mine_history(repo.finish(), "main")


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), jobs=st.integers(2, 5))
@example(seed=3, jobs=2)  # three renames, and twelve lineages on two workers
@example(seed=None, jobs=2)  # None: the skewed history, one heavy lineage
@example(seed=None, jobs=3)
@example(seed=None, jobs=4)
def test_feature_table_does_not_depend_on_jobs(repo_root, skewed_history, seed, jobs):
    if seed is None:
        history = skewed_history
    else:
        path = repo_root / f"repo{seed}"
        repo = path if path.exists() else random_repo(path, seed=seed, max_commits=40,
                                                      max_files=12)
        history = mine_history(repo, "main")
    serial = compute_all(history, jobs=1)
    pooled = compute_all(history, jobs=jobs)
    assert pooled.rows == serial.rows
    assert pooled == serial
    assert feature_table_to_csv(pooled).encode() == feature_table_to_csv(serial).encode()


def test_compute_all_maps_one_unit_per_lineage_heaviest_first(skewed_history, monkeypatch):
    calls = []

    def recording_map(fn, units, jobs, context):
        calls.append((list(units), jobs))
        with context:
            return [fn(unit) for unit in units]

    monkeypatch.setattr(workers, "map", recording_map)
    serial = compute_all(skewed_history)
    assert compute_all(skewed_history, jobs=3) == serial
    # most events first, ties by path
    order = ["z.py", "m.py", "a.py", "b.py", "c.py", "d.py"]
    assert calls == [(order, 1), (order, 3)]


class _Logged:
    """A context that appends the process id and each entry and exit to a file."""

    def __init__(self, path):
        self.path = path

    def _log(self, what):
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {what}\n")

    def __enter__(self):
        self._log("enter")

    def __exit__(self, *exc_info):
        self._log("exit")


def _entries_by_process(path):
    entries = {}
    for line in path.read_text().splitlines():
        pid, what = line.split()
        entries.setdefault(int(pid), []).append(what)
    return entries


@pytest.mark.parametrize("jobs", [1, pytest.param(3, marks=linux_only)])
def test_each_process_enters_the_context_once_around_its_units(tmp_path, jobs):
    log = tmp_path / "log"
    with _bounded_and_clean():
        results = workers.map(lambda unit: (unit, os.getpid()), range(12), jobs, _Logged(log))
    assert [unit for unit, _pid in results] == list(range(12))
    entries = _entries_by_process(log)
    assert all(logged == ["enter", "exit"] for logged in entries.values())
    if jobs == 1:
        assert set(entries) == {os.getpid()}
    else:
        assert len(entries) == jobs and os.getpid() not in entries
        assert {pid for _unit, pid in results} <= set(entries)


@linux_only
def test_a_failed_call_runs_no_further_unit_and_each_worker_exits_its_context(tmp_path):
    """Unit 0 fails while another worker may still be in unit 1: the units
    not yet taken never run, and both workers leave their contexts before
    the call raises."""
    import time

    ran = tmp_path / "ran"

    def unit(number):
        if number == 0:
            raise SingleClassData("unit 0 failed")
        time.sleep(0.5 if number == 1 else 0.01)
        with open(ran, "a", encoding="utf-8") as handle:
            handle.write(f"{number}\n")
        return number

    log = tmp_path / "log"
    with _bounded_and_clean(), pytest.raises(SingleClassData, match="unit 0 failed"):
        workers.map(unit, range(200), 2, _Logged(log))
    entries = _entries_by_process(log)
    assert len(entries) == 2
    assert all(logged == ["enter", "exit"] for logged in entries.values())
    # the running units end, and those not yet taken never start
    assert len(ran.read_text().split() if ran.exists() else []) < 100


@linux_only
def test_a_failed_unit_stops_the_later_units_at_once(tmp_path):
    """Unit 1 fails while the other worker is still in unit 0: no later unit
    starts, though unit 0 has not yet returned."""
    import time

    ran = tmp_path / "ran"

    def unit(number):
        if number == 0:
            time.sleep(1)
        elif number == 1:
            raise SingleClassData("unit 1 failed")
        with open(ran, "a", encoding="utf-8") as handle:
            handle.write(f"{number}\n")
        return number

    with _bounded_and_clean(), pytest.raises(SingleClassData, match="unit 1 failed"):
        workers.map(unit, range(200), 2)
    assert ran.read_text().split() == ["0"]


@linux_only
def test_an_interrupted_call_stops_the_units_and_reaps_its_workers(tmp_path):
    """An alarm raises in this process while both workers are busy: each
    ends the unit it has and starts no other, and none is left behind."""
    import time

    ran = tmp_path / "ran"

    def unit(number):
        time.sleep(0.2)
        with open(ran, "a", encoding="utf-8") as handle:
            handle.write(f"{number}\n")
        return number

    log = tmp_path / "log"
    with _bounded_and_clean(seconds=1), pytest.raises(TimeoutError):
        workers.map(unit, range(100), 2, _Logged(log))
    assert all(logged == ["enter", "exit"] for logged in _entries_by_process(log).values())
    assert len(ran.read_text().split()) < 30


def _cat_files_of(repo):
    """The running processes whose command line names ``cat-file`` and ``repo``."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            parts = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:  # not a process, or one that has exited
            continue
        if b"cat-file" in parts and str(repo).encode() in parts:
            found.append(parts)
    return found


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    return mine_history(random_repo(tmp_path_factory.mktemp("lifecycle") / "repo", seed=3,
                                    max_commits=40, max_files=12), "main")


@linux_only
@pytest.mark.parametrize("jobs", [1, 2])
def test_no_cat_file_outlives_compute_all(mined, jobs):
    serial = compute_all(mined, jobs=jobs)
    assert serial.rows
    assert not _cat_files_of(mined.repository)
    # the newest event of a file at the reference version names a blob that
    # is in no repository
    missing = "f" * 40
    index, commit = next((index, commit) for index, commit in reversed(
        list(enumerate(mined.commits))) if commit.changes[0].path in mined.present_paths)
    broken = replace(commit, changes=(replace(commit.changes[0], after_blob=missing),
                                      *commit.changes[1:]))
    history = replace(mined, commits=(*mined.commits[:index], broken, *mined.commits[index + 1:]))
    with pytest.raises(CorruptHistory, match=f"git cat-file failed: object {missing}"):
        compute_all(history, jobs=jobs)
    assert not _cat_files_of(mined.repository)


@linux_only
def test_a_forked_worker_reads_through_its_own_cat_file(mined):
    """A reader started here and inherited by the workers: each starts its
    own cat-file, and this process's reader still answers afterwards."""
    events = [event for commit in mined.commits for event in commit.changes]
    with BlobReader(mined.repository) as blobs:
        expected = blobs.versions(events)
        (ours,) = _cat_files_of(mined.repository)
        pooled = workers.map(lambda event: blobs.versions([event])[0], events, 2, blobs)
        assert pooled == expected
        assert _cat_files_of(mined.repository) == [ours]
        assert blobs.versions(events) == expected
    assert not _cat_files_of(mined.repository)
