"""The forked worker pool, and the feature table computed on it."""

import os
import signal
import sys
import threading
import warnings
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fileexperts import workers
from fileexperts.errors import InvalidCount, SingleClassData, WorkerDied, ZeroVarianceWarning
from fileexperts.features import _balanced_chunks, compute_all, feature_table_to_csv, mine_history
from fileexperts.fixtures import random_repo

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
    # 20,000 four-byte positions overfill a 64 KiB pipe, so they go out in
    # several blocks as the workers drain it
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


@given(st.dictionaries(st.text("abc", max_size=3), st.integers(0, 50)), st.integers(1, 9))
def test_balanced_chunks_split_every_key_once_and_evenly(weights, count):
    chunks = _balanced_chunks(weights, count)
    assert sorted(key for chunk in chunks for key in chunk) == sorted(weights)
    assert len(chunks) == min(count, len(weights))
    assert all(chunks)
    if chunks:
        # each key went to the lightest chunk, so no chunk ends heavier than
        # the lightest one by more than the heaviest key
        loads = [sum(weights[key] for key in chunk) for chunk in chunks]
        assert max(loads) - min(loads) <= max(weights.values())


@pytest.fixture(scope="module")
def repo_root(tmp_path_factory):
    return tmp_path_factory.mktemp("random-repos")


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), jobs=st.integers(2, 5))
@example(seed=3, jobs=2)  # three renames, and twelve lineages in eight chunks
def test_feature_table_does_not_depend_on_jobs(repo_root, seed, jobs):
    path = repo_root / f"repo{seed}"
    repo = path if path.exists() else random_repo(path, seed=seed, max_commits=40, max_files=12)
    history = mine_history(repo, "main")
    serial = compute_all(history, jobs=1)
    pooled = compute_all(history, jobs=jobs)
    assert pooled.rows == serial.rows
    assert pooled == serial
    assert feature_table_to_csv(pooled).encode() == feature_table_to_csv(serial).encode()


def test_compute_all_maps_lineage_chunks_over_the_pool(demo_history, monkeypatch):
    calls = []

    def recording_map(fn, units, jobs):
        calls.append((len(units), jobs))
        return [fn(unit) for unit in units]

    monkeypatch.setattr(workers, "map", recording_map)
    serial = compute_all(demo_history)
    assert compute_all(demo_history, jobs=3) == serial
    assert calls == [(1, 1), (3, 3)]  # one chunk in process; the demo's three lineages
