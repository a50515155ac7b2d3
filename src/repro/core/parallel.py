"""Process-pool plumbing for the bulk-ingest parse stage.

:func:`run_tasks` fans one task per spec out to worker processes for
:mod:`repro.core.io_.bulk`, with a lifecycle hardened against hung and
dying workers:

* **no ``with`` block** around the executor — the context manager's
  exit calls ``shutdown(wait=True)``, which joins the workers and would
  stall the whole batch behind one hung task despite its timeout having
  fired;
* **per-task result timeouts**, with ``terminate()`` on the worker
  processes when any task timed out (a stuck worker cannot be
  cancelled, only killed — otherwise it outlives the batch and wedges
  interpreter shutdown's executor join);
* **BrokenProcessPool fan-out** — once the pool dies, every remaining
  future fails the same way, so they are all marked failed at once
  instead of surfacing one confusing traceback per task.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence


@dataclass
class TaskFailure:
    """Sentinel result for one failed pool task.

    ``error`` is the exception the future raised; ``timed_out`` marks a
    per-task timeout (the pool's workers were terminated afterwards).
    """

    error: BaseException
    timed_out: bool = False

    @property
    def broken_pool(self) -> bool:
        return isinstance(self.error, BrokenProcessPool)


def default_workers(n_tasks: int) -> int:
    return min(n_tasks, os.cpu_count() or 1)


def run_tasks(
    fn: Callable[..., Any],
    specs: Sequence[Any],
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> list[Any]:
    """Run ``fn(spec)`` for every spec in a fresh pool; results in spec
    order.

    A task that raised or ran past ``task_timeout`` seconds yields a
    :class:`TaskFailure` entry — the caller decides whether a failure
    dooms the batch or is retried elsewhere.  The pool is always shut
    down without joining before returning, and after any timeout its
    worker processes are terminated.
    """
    if not specs:
        return []
    if workers is None:
        workers = default_workers(len(specs))
    pool = ProcessPoolExecutor(max_workers=max(1, workers))
    results: list[Any] = [None] * len(specs)
    timed_out = False
    broken: Optional[BaseException] = None
    try:
        futures = [pool.submit(fn, spec) for spec in specs]
        for i, future in enumerate(futures):
            if broken is not None:
                results[i] = TaskFailure(broken)
                continue
            try:
                results[i] = future.result(timeout=task_timeout)
            except FutureTimeout as exc:
                future.cancel()
                timed_out = True
                results[i] = TaskFailure(exc, timed_out=True)
            except BrokenProcessPool as exc:
                # The pool is gone; every remaining future fails the
                # same way — mark them all without waiting on each.
                broken = exc
                results[i] = TaskFailure(exc)
            except BaseException as exc:
                results[i] = TaskFailure(exc)
    finally:
        # shutdown() drops the executor's process table, so take it first.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        if timed_out:
            for process in processes:
                try:
                    process.terminate()
                except OSError:
                    pass
    return results
