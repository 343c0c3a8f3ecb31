"""A reusable scenario farm: fan independent tasks over a process pool.

Several harnesses run grids of *independent* simulations — the topology
benchmark sweeps (topology × application) pairs, the storm campaign sweeps
(kind × storm size × topology) cells — and each previously grew its own
``multiprocessing`` plumbing or ran serially.  This module holds the one
pattern they share:

* tasks are plain picklable specs, the task function is module-level,
* results come back **in task order** (``Pool.map``), so aggregation is
  bit-identical to the serial run regardless of completion order,
* ``jobs <= 1`` short-circuits to a plain in-process loop — no pool, no
  pickling, no fork — which keeps single-job runs debuggable and makes the
  parallel path a pure opt-in.

One simulation always runs in one process; the farm is where parallelism
lives, *across* independent simulations.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Sequence, TypeVar

__all__ = ["run_tasks"]

Task = TypeVar("Task")
Result = TypeVar("Result")


def run_tasks(
    task_fn: Callable[[Task], Result],
    tasks: Sequence[Task],
    jobs: int = 1,
) -> List[Result]:
    """Run ``task_fn`` over *tasks*, optionally on a process pool.

    *task_fn* must be module-level and *tasks* picklable when ``jobs > 1``
    (the usual ``multiprocessing`` contract).  Results are returned in task
    order either way, so callers can aggregate without caring which path
    executed.  The pool is sized ``min(jobs, len(tasks))`` — never idle
    workers, never a pool for an empty grid.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [task_fn(task) for task in tasks]
    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(task_fn, tasks)
