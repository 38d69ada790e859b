"""Map independent units of work over forked worker processes.

``map(fn, units, jobs)`` is ``[fn(unit) for unit in units]`` run on up to
``jobs`` workers forked from the caller on Linux. Results and warnings come
back in unit order and the first failing unit's exception is raised, so the
caller's output does not depend on ``jobs``. ``ml`` maps cross-validation
folds and grid combinations over it, and ``features`` maps chunks of file
lineages.

The module needs only the standard library, and imports ``multiprocessing``
and ``concurrent.futures`` inside ``map`` only when it forks, so a command
that runs in one process never loads them.
"""

from __future__ import annotations

import re
import sys
import warnings
from typing import Callable, Sequence

from .errors import InvalidCount

# what a forked worker runs, the unit function and the units: set by map
# before it forks, so each worker inherits it
_work: tuple[Callable, Sequence] | None = None


def _run_unit(position: int):
    """Run one unit in a worker: its outcome, (result, None) or (None, the
    exception it raised), and every warning it issued, as plain tuples."""
    fn, units = _work
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the parent applies its own filters
        try:
            outcome = fn(units[position]), None
        except Exception as exc:  # raised again by the parent, in unit order
            outcome = None, exc
    return outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]


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


# Python 3.12 warns when a process with threads forks. The workers are forked
# before the pool starts a thread of its own, and the only other threads are
# numpy's BLAS pool, which shuts down across a fork, so the warning does not
# apply. map puts this filter into the list in place: ``filterwarnings``
# would mark the filters changed, which resets every module's record of the
# warnings it has shown, so a "default" warning would show once per call
# instead of once per process.
_FORK_WITH_THREADS = (
    "ignore", re.compile(r"This process .* is multi-threaded"), DeprecationWarning, None, 0
)


def map(fn: Callable, units: Sequence, jobs: int) -> list:
    """``[fn(unit) for unit in units]``, on up to ``jobs`` forked workers.

    Workers are forked once per call, so they inherit ``fn`` and the data it
    closes over; only unit positions and results cross a pipe. Results come
    back in unit order. Each unit's warnings are issued again here, in unit
    order, and the first failing unit's exception is raised after them, as
    a serial run would raise it. Workers are forked on Linux only: on macOS
    ``fork`` is unsafe with the system frameworks (so ``spawn`` is its
    default). There, as with one job or one unit, the units run in this
    process.
    """
    global _work
    if jobs < 1:
        raise InvalidCount(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(units))
    if workers < 2 or not sys.platform.startswith("linux"):
        return [fn(unit) for unit in units]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _work = (fn, units)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    results = []
    filters = warnings.filters
    filters.insert(0, _FORK_WITH_THREADS)
    try:
        try:
            outcomes = pool.map(_run_unit, range(len(units)))
        finally:
            filters.remove(_FORK_WITH_THREADS)
        for (result, error), caught in outcomes:
            for warning in caught:
                _warn_again(*warning)
            if error is not None:
                raise error
            results.append(result)
    finally:
        pool.shutdown(cancel_futures=True)
        _work = None
    return results
