"""Map independent units of work over forked worker processes.

``map(fn, units, jobs)`` is ``[fn(unit) for unit in units]`` run on up to
``jobs`` workers forked from the caller on Linux. Results and warnings come
back in unit order and the first failing unit's exception is raised, so the
caller's output does not depend on ``jobs``. ``ml`` maps cross-validation
folds and grid combinations over it, and ``features`` maps chunks of file
lineages.

The pool is ``os.fork`` and pipes. Each worker inherits ``fn`` and
``units``, takes the next unit position from one task pipe that all the
workers share, and writes each unit's outcome, pickled, to a result pipe of
its own; the caller reads the result pipes through ``selectors``. The module
needs only the standard library and never loads ``multiprocessing`` or
``concurrent.futures``, whose imports and executor start-up cost a fresh
process about 40 ms before the first unit ran.
"""

from __future__ import annotations

import os
import pickle
import re
import select
import selectors
import signal
import struct
import sys
import warnings
from typing import Callable, NoReturn, Sequence

from .errors import InvalidCount, WorkerDied

_POSITION = struct.Struct("<I")  # one unit position on the task pipe
# Positions go out in blocks of whole positions no longer than PIPE_BUF: such
# a write is atomic, so the pipe always holds whole positions and a worker's
# read of one position never gets part of it.
_TASK_BLOCK = select.PIPE_BUF // _POSITION.size * _POSITION.size
_HEADER = struct.Struct("<IQ")  # a result frame: the unit position, the payload length
_READ_SIZE = 1 << 16  # a pipe's default capacity


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
    """A worker's loop: take the next unit position until the task pipe is
    empty and closed, run that unit, and write one frame to ``results``: the
    position, the payload's length and the pickled outcome and warnings."""
    while taken := os.read(tasks, _POSITION.size):
        (position,) = _POSITION.unpack(taken)
        report = _run_unit(fn, units[position])
        try:
            payload = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result: the parent raises why
            payload = pickle.dumps(((None, exc), report[1]), pickle.HIGHEST_PROTOCOL)
        frame = memoryview(_HEADER.pack(position, len(payload)) + payload)
        while frame:
            frame = frame[os.write(results, frame) :]


def _work(
    fn: Callable, units: Sequence, tasks: int, results: int, inherited: set[int]
) -> NoReturn:
    """Everything a worker runs after the fork: close the ``inherited`` pipe
    ends it does not use, then serve. It always ends in ``os._exit``, so it
    never unwinds into the caller's code: status 0 once the task pipe is
    drained, 1 on anything else, ``KeyboardInterrupt`` included."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        _serve(fn, units, tasks, results)
        _flush_std_streams()
        status = 0
    finally:
        os._exit(status)


def _whole_frames(buffer: bytearray):
    """Take each whole frame off the front of ``buffer``, a result pipe's
    bytes so far: its unit position, and its outcome and warnings."""
    while len(buffer) >= _HEADER.size:
        position, size = _HEADER.unpack_from(buffer)
        end = _HEADER.size + size
        if len(buffer) < end:
            return
        yield position, pickle.loads(buffer[_HEADER.size : end])
        del buffer[:end]


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
    a serial run."""
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
        module_globals=scope,
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


def map(fn: Callable, units: Sequence, jobs: int) -> list:
    """``[fn(unit) for unit in units]``, on up to ``jobs`` forked workers.

    Workers are forked once per call, so they inherit ``fn`` and the data it
    closes over; only unit positions and results cross a pipe. A free
    worker takes the next unit, so units of uneven cost spread evenly.
    Results come back in unit order. Each unit's warnings are issued again
    here, in unit order, and the first failing unit's exception is raised
    after them, as a serial run would raise it; a unit that cannot come
    back, because its worker died or its result will not pickle, fails
    with WorkerDied or the pickling error. However the call ends, every
    worker still running is killed and every worker is reaped. Workers are
    forked on Linux only: on macOS ``fork`` is unsafe with the system
    frameworks. There, as with one job or one unit, the units run in this
    process.
    """
    if jobs < 1:
        raise InvalidCount(f"jobs must be >= 1, got {jobs}")
    count = min(jobs, len(units))
    if count < 2 or not sys.platform.startswith("linux"):
        return [fn(unit) for unit in units]
    fds: set[int] = set()  # every pipe end this call holds open
    pids: dict[int, int] = {}  # each running worker's pid, by its result pipe
    codes: list[int] = []  # the exit code of each worker reaped
    selector = None
    try:
        tasks, task_writer = os.pipe()
        fds |= {tasks, task_writer}
        _flush_std_streams()
        warnings.filters.insert(0, _FORK_WITH_THREADS)
        try:
            for _ in range(count):
                reader, writer = os.pipe()
                fds |= {reader, writer}
                pid = os.fork()
                if pid == 0:
                    _work(fn, units, tasks, writer, fds - {tasks, writer})
                pids[reader] = pid
                os.close(writer)
                fds.remove(writer)
        finally:
            warnings.filters.remove(_FORK_WITH_THREADS)
        # made after the forks, so no worker holds it
        selector = selectors.DefaultSelector()
        os.set_blocking(task_writer, False)
        selector.register(task_writer, selectors.EVENT_WRITE)
        for reader in pids:
            selector.register(reader, selectors.EVENT_READ)
        positions = memoryview(struct.pack(f"<{len(units)}I", *range(len(units))))
        frames = {reader: bytearray() for reader in pids}
        outcomes = {}  # position: (outcome, warnings), until its turn
        results = []
        while len(results) < len(units):
            if not pids:
                raise WorkerDied(
                    f"no worker returned unit {len(results)}; "
                    f"the workers exited with codes {sorted(codes)}"
                )
            for key, _events in selector.select():
                fd = key.fd
                if fd == task_writer:
                    try:
                        positions = positions[os.write(fd, positions[:_TASK_BLOCK]) :]
                    except BlockingIOError:  # no room for a whole block yet
                        continue
                    if not positions:  # closed, so a worker reading past the end stops
                        selector.unregister(fd)
                        os.close(fd)
                        fds.remove(fd)
                    continue
                chunk = os.read(fd, _READ_SIZE)
                if not chunk:  # the worker has exited
                    selector.unregister(fd)
                    os.close(fd)
                    fds.remove(fd)
                    codes.append(os.waitstatus_to_exitcode(os.waitpid(pids.pop(fd), 0)[1]))
                    continue
                frames[fd] += chunk
                outcomes.update(_whole_frames(frames[fd]))
            while len(results) in outcomes:
                (result, error), caught = outcomes.pop(len(results))
                for warning in caught:
                    _warn_again(*warning)
                if error is not None:
                    raise error
                results.append(result)
        return results
    finally:
        if selector is not None:
            selector.close()
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        for pid in pids.values():
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
