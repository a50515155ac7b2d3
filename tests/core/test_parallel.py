"""Unit tests for the process-pool plumbing (repro.core.parallel).

Bulk-ingest parsing leans on these semantics: spec-order results,
TaskFailure sentinels instead of raised exceptions, termination after
timeouts, and BrokenProcessPool fan-out.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.core.parallel import TaskFailure, default_workers, run_tasks


def _square(x):
    return x * x


def _raise(x):
    raise ValueError(f"task {x} failed")


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _die(x):
    os._exit(1)


class TestRunTasks:
    def test_results_in_spec_order(self):
        assert run_tasks(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_empty_specs(self):
        assert run_tasks(_square, []) == []

    def test_exception_becomes_task_failure(self):
        results = run_tasks(_raise, [7])
        assert len(results) == 1
        failure = results[0]
        assert isinstance(failure, TaskFailure)
        assert isinstance(failure.error, ValueError)
        assert "task 7 failed" in str(failure.error)
        assert not failure.timed_out
        assert not failure.broken_pool

    def test_mixed_success_and_failure(self):
        def pick(results, index):
            return results[index]

        results = run_tasks(_square, [2, 3]) + run_tasks(_raise, [0])
        assert pick(results, 0) == 4
        assert pick(results, 1) == 9
        assert isinstance(pick(results, 2), TaskFailure)

    def test_task_timeout_marks_failure(self):
        results = run_tasks(_sleep, [30.0], workers=1, task_timeout=0.5)
        assert isinstance(results[0], TaskFailure)
        assert results[0].timed_out

    def test_timeout_tears_pool_down(self):
        before = {p.pid for p in multiprocessing.active_children()}
        results = run_tasks(_sleep, [30.0], workers=1, task_timeout=0.5)
        assert results[0].timed_out
        # Terminated, not joined: the stuck worker must not outlive the
        # batch (it would sleep on for 30 s).
        deadline = time.monotonic() + 10.0
        while any(p.pid not in before for p in multiprocessing.active_children()):
            assert time.monotonic() < deadline, "timed-out worker still alive"
            time.sleep(0.05)

    def test_worker_death_is_broken_pool(self):
        results = run_tasks(_die, [1, 2], workers=1)
        assert all(isinstance(r, TaskFailure) for r in results)
        assert any(r.broken_pool for r in results)

    def test_workers_floor_is_one(self):
        assert run_tasks(_square, [6], workers=0) == [36]
        assert run_tasks(_square, [7], workers=-3) == [49]


class TestDefaultWorkers:
    def test_capped_by_task_count(self):
        assert default_workers(1) == 1
        assert default_workers(10 ** 6) == (os.cpu_count() or 1)
