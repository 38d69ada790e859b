"""Map independent units of work over forked worker processes.

``map(fn, units, jobs)`` is ``[fn(unit) for unit in units]`` run on up to
``jobs`` workers forked from the caller on Linux. Results and warnings come
back in unit order and the first failing unit's exception is raised, so the
caller's output does not depend on ``jobs``. ``ml`` maps cross-validation
folds and grid combinations over it, and ``features`` maps one unit per
file lineage, heaviest first.

The pool is ``os.fork`` and temporary files. Before forking, the caller
writes every unit position to one task file and makes one results file per
worker. Each worker inherits ``fn`` and ``units``, reads the next position
from the shared task file until it is used up, and appends each unit's
outcome, pickled, to its own results file; the caller reaps the workers,
then reads their files. A ``context`` is entered once around the units of
each process that runs some, so a resource a unit opens, such as
``features``' blob reader, is closed by the process that opened it. The
module needs only the standard library and never loads ``multiprocessing``
or ``concurrent.futures``, whose imports and executor start-up cost a fresh
process about 40 ms before the first unit ran.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import re
import struct
import sys
import tempfile
import warnings
from typing import Callable, NoReturn, Sequence

from .errors import InvalidCount, WorkerDied

_POSITION = struct.Struct("<I")  # one unit position in the task file
_HEADER = struct.Struct("<IQ")  # a result frame: the unit position, the payload length


def _run_unit(fn: Callable, unit):
    """Run one unit: its outcome, (result, None) or (None, the exception it
    raised), and every warning it issued, as plain tuples."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the parent applies its own filters
        try:
            outcome = fn(unit), None
        except Exception as exc:  # raised again by the parent, in unit order
            outcome = None, exc
    return outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _serve(fn: Callable, units: Sequence, tasks: int, results: int) -> None:
    """A worker's loop: read the next unit position until the task file is
    used up, run that unit, and append one frame to ``results``: the
    position, the payload's length and the pickled outcome and warnings.

    Every worker reads ``tasks`` through one shared open file description,
    whose offset Linux 3.14 and later moves atomically on each ``read(2)``
    (see its BUGS section); workers fork on Linux only. So each read takes
    a distinct, whole position, or nothing once the file is used up. A
    failed unit truncates the file, so no worker starts a later unit."""
    while taken := os.read(tasks, _POSITION.size):
        (position,) = _POSITION.unpack(taken)
        report = _run_unit(fn, units[position])
        try:
            payload = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result: the parent raises why
            report = (None, exc), report[1]
            payload = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
        if report[0][1] is not None:
            os.ftruncate(tasks, 0)
        frame = memoryview(_HEADER.pack(position, len(payload)) + payload)
        while frame:
            frame = frame[os.write(results, frame) :]


def _work(
    fn: Callable,
    units: Sequence,
    tasks: int,
    results: int,
    context: contextlib.AbstractContextManager,
) -> NoReturn:
    """Everything a worker runs after the fork: serve inside ``context``. It
    always ends in ``os._exit``, so it never unwinds into the caller's code:
    status 0 once the task file is used up, 1 on anything else,
    ``KeyboardInterrupt`` included."""
    status = 1
    try:
        with context:
            _serve(fn, units, tasks, results)
        _flush_std_streams()
        status = 0
    finally:
        os._exit(status)


def _frames(results):
    """Each whole frame of a worker's results file, from the start: its
    unit position, and its outcome and warnings. A frame cut short, by a
    worker that died writing it, ends the file."""
    results.seek(0)
    while len(header := results.read(_HEADER.size)) == _HEADER.size:
        position, size = _HEADER.unpack(header)
        payload = results.read(size)
        if len(payload) < size:
            return
        yield position, pickle.loads(payload)


def _flush_std_streams() -> None:
    """Flush stdout and stderr: before a fork, so no worker inherits the
    caller's buffered output, and in a worker before it exits, so what its
    units printed is not lost."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _warn_again(message, category, filename: str, lineno: int) -> None:
    """Issue a worker's warning here as ``warnings.warn`` issued it there:
    from the module that raised it, so filters naming that module match and
    the module's registry shows a "default" warning once per process, as in
    a serial run. The module's globals go along only when it has a spec:
    a script run as ``__main__`` has none, and Python 3.12 would add a
    DeprecationWarning to each warning given its globals."""
    module = next(
        (m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename),
        None,
    )
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
        return
    scope = vars(module)
    warnings.warn_explicit(
        message,
        category,
        filename,
        lineno,
        module=module.__name__,
        registry=scope.setdefault("__warningregistry__", {}),
        module_globals=scope if getattr(module, "__spec__", None) is not None else None,
    )


# Python 3.12 warns when a process with threads forks. The only threads are
# numpy's BLAS pool, which shuts down across a fork, and a worker runs no
# code that waits on them, so the warning does not apply. map puts this
# filter into the list in place: ``filterwarnings`` would mark the filters
# changed, which resets every module's record of the warnings it has shown,
# so a "default" warning would show once per call instead of once per
# process.
_FORK_WITH_THREADS = (
    "ignore", re.compile(r"This process .* is multi-threaded"), DeprecationWarning, None, 0
)


def map(
    fn: Callable,
    units: Sequence,
    jobs: int,
    context: contextlib.AbstractContextManager | None = None,
) -> list:
    """``[fn(unit) for unit in units]``, on up to ``jobs`` forked workers.

    Workers are forked once per call, so they inherit ``fn`` and the data it
    closes over; only unit positions and results cross a file. A free
    worker takes the next unit, so units of uneven cost spread evenly.
    Results come back in unit order. Each unit's warnings are issued again
    here, in unit order, and the first failing unit's exception is raised
    after them, as a serial run would raise it; a unit that cannot come
    back, because its worker died or its result will not pickle, fails
    with WorkerDied or the pickling error. Once a unit fails, no worker
    starts a later one; each ends the unit it has and exits. An interrupted
    call, by an alarm or ``KeyboardInterrupt``, stops the units the same
    way. However the call ends, every worker has left its context and been
    reaped when it returns.
    Workers are forked on Linux only: on macOS ``fork`` is unsafe with the
    system frameworks. There, as with one job or one unit, the units run in
    this process.

    ``context``, when given, is entered once around the units of each
    process that runs them: each worker's copy, or the one here when the
    units run in this process.
    """
    if jobs < 1:
        raise InvalidCount(f"jobs must be >= 1, got {jobs}")
    context = contextlib.nullcontext() if context is None else context
    count = min(jobs, len(units))
    if count < 2 or not sys.platform.startswith("linux"):
        with context:
            return [fn(unit) for unit in units]
    tasks = tempfile.TemporaryFile()
    result_files = []  # one per worker
    pids = []  # each forked worker not yet reaped
    try:
        tasks.write(struct.pack(f"<{len(units)}I", *range(len(units))))
        tasks.seek(0)
        for _ in range(count):
            result_files.append(tempfile.TemporaryFile())
        _flush_std_streams()
        warnings.filters.insert(0, _FORK_WITH_THREADS)
        try:
            for results in result_files:
                pid = os.fork()
                if pid == 0:
                    _work(fn, units, tasks.fileno(), results.fileno(), context)
                pids.append(pid)
        finally:
            warnings.filters.remove(_FORK_WITH_THREADS)
        codes = []  # the exit code of each worker
        while pids:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pids[-1], 0)[1]))
            pids.pop()
        outcomes = {}  # position: (outcome, warnings)
        for results in result_files:
            outcomes.update(_frames(results))
        returned = []
        for position in range(len(units)):
            if position not in outcomes:
                raise WorkerDied(
                    f"no worker returned unit {position}; "
                    f"the workers exited with codes {sorted(codes)}"
                )
            (result, error), caught = outcomes.pop(position)
            for warning in caught:
                _warn_again(*warning)
            if error is not None:
                raise error
            returned.append(result)
        return returned
    finally:
        if pids:  # interrupted: no worker starts another unit
            os.ftruncate(tasks.fileno(), 0)
            for pid in pids:
                # the interruption may have come just after the last reap
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
        for file in (tasks, *result_files):
            file.close()
