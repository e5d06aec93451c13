"""The executor subsystem behind the farm and the campaign engine.

Pins the executor contract of :mod:`repro.concurrency`: results in item
order on every executor, serial execution unless ``max_workers > 1`` or an
executor name asks for worker processes, first-in-item-order exception
propagation, and — for the process executor — *clear* errors (not hangs)
when work cannot cross a process boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.concurrency import (
    EXECUTORS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.exceptions import ConfigurationError, ExecutorError


def square(value):
    """Module-level (hence picklable) work function."""
    return value * value


def square_after_reverse_delay(value):
    """Later items finish first, exposing any completion-order reliance."""
    time.sleep(0.02 * (5 - value))
    return value * value


def worker_pid(_value):
    return os.getpid()


def fail_on_even(value):
    if value % 2 == 0:
        raise ValueError(f"item {value} failed")
    return value


def fail_first_then_mark(item):
    """Item 0 fails; every other item leaves a marker file when it runs."""
    index, directory = item
    if index == 0:
        raise ValueError("item 0 failed")
    time.sleep(0.1)
    (directory / f"ran-{index}").touch()
    return index


def exit_worker(value):
    """Hard worker death: no exception, no cleanup handlers."""
    os._exit(17)


def unpicklable_first_then_mark(item):
    """Item 0 returns a result that cannot pickle; the others leave markers."""
    index, directory = item
    if index == 0:
        return threading.Lock()
    time.sleep(0.1)
    (directory / f"ran-{index}").touch()
    return index


def exit_first_then_mark(item):
    """Item 0 kills its worker; the others leave markers."""
    index, directory = item
    if index == 0:
        os._exit(17)
    time.sleep(0.1)
    (directory / f"ran-{index}").touch()
    return index


def record_thread(value):
    return threading.get_ident()


class TestResolvedExecutorContract:
    """``resolve_executor(executor, max_workers).map(...)``, as its callers use it."""

    def test_results_in_item_order_serial(self):
        assert resolve_executor(None, None).map(square, [3, 1, 2]) == [9, 1, 4]

    def test_results_in_item_order_pooled(self):
        items = list(range(5))
        assert resolve_executor(None, 2).map(square_after_reverse_delay, items) == [
            value * value for value in items
        ]

    def test_workers_above_one_select_worker_processes(self):
        """``max_workers > 1`` without an executor means the process pool."""
        pids = resolve_executor(None, 2).map(worker_pid, [1, 2])
        assert all(pid != os.getpid() for pid in pids)

    @pytest.mark.parametrize("max_workers", [None, 1])
    def test_serial_fallback_runs_in_callers_thread(self, max_workers):
        idents = resolve_executor(None, max_workers).map(record_thread, [1, 2, 3])
        assert set(idents) == {threading.get_ident()}

    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_first_exception_in_item_order(self, max_workers):
        """Items 0 and 2 both fail; item 0's error must be the one raised."""
        with pytest.raises(ValueError, match="item 0 failed"):
            resolve_executor(None, max_workers).map(fail_on_even, [0, 1, 2])

    def test_empty_items(self):
        assert resolve_executor(None, 2).map(square, []) == []

    def test_executor_selects_by_name(self):
        assert resolve_executor("process").map(square, [2, 3]) == [4, 9]


class TestExecutors:
    @pytest.mark.parametrize("executor", [SerialExecutor(), ProcessExecutor(2)])
    def test_map_in_order(self, executor):
        assert executor.map(square, [3, 1, 2]) == [9, 1, 4]

    def test_process_map_in_order(self):
        executor = ProcessExecutor(max_workers=2)
        items = list(range(5))
        assert executor.map(square_after_reverse_delay, items) == [
            value * value for value in items
        ]

    def test_process_runs_in_worker_processes(self):
        pids = ProcessExecutor(max_workers=2).map(worker_pid, [1, 2])
        assert all(pid != os.getpid() for pid in pids)

    def test_process_exception_propagates_in_item_order(self):
        with pytest.raises(ValueError, match="item 0 failed"):
            ProcessExecutor(max_workers=2).map(fail_on_even, [0, 1, 2])

    def test_process_failure_cancels_queued_items(self, tmp_path):
        # Without cancelling, leaving the pool waits for every queued item,
        # so all 19 would run before the failure surfaced.
        items = [(index, tmp_path) for index in range(20)]
        with pytest.raises(ValueError, match="item 0 failed"):
            ProcessExecutor(max_workers=1).map(fail_first_then_mark, items)
        # The items already handed to the worker may still run.
        assert len(list(tmp_path.glob("ran-*"))) <= 5

    def test_process_worker_crash_surfaces(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            ProcessExecutor(max_workers=1).map(exit_worker, list(range(5)))

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), ProcessExecutor(2)], ids=["serial", "process-2"]
    )
    def test_failure_starts_no_later_item(self, executor, tmp_path):
        items = [(index, tmp_path) for index in range(20)]
        with pytest.raises(ValueError, match="item 0 failed"):
            executor.map(fail_first_then_mark, items)
        limit = 0 if isinstance(executor, SerialExecutor) else 5
        assert len(list(tmp_path.glob("ran-*"))) <= limit

    def test_pickling_failure_cancels_queued_items(self, tmp_path):
        items = [(index, tmp_path) for index in range(20)]
        with pytest.raises(ExecutorError, match="work item 0"):
            ProcessExecutor(max_workers=1).map(unpicklable_first_then_mark, items)
        assert len(list(tmp_path.glob("ran-*"))) <= 5

    def test_worker_crash_cancels_queued_items(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        items = [(index, tmp_path) for index in range(20)]
        with pytest.raises(BrokenProcessPool):
            ProcessExecutor(max_workers=1).map(exit_first_then_mark, items)
        assert len(list(tmp_path.glob("ran-*"))) <= 5

    @pytest.mark.parametrize(
        "work, error",
        [(square, None), (fail_on_even, ValueError), (exit_worker, Exception)],
        ids=["normal", "failure", "crash"],
    )
    def test_no_worker_process_survives_a_map(self, work, error):
        executor = ProcessExecutor(max_workers=2)
        if error is None:
            executor.map(work, [0, 1, 2, 3])
        else:
            with pytest.raises(error):
                executor.map(work, [0, 1, 2, 3])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("executor", [SerialExecutor(), ProcessExecutor(2)])
    def test_empty_items_every_executor(self, executor):
        assert executor.map(square, []) == []

    def test_executor_names_match_registry(self):
        assert EXECUTORS == ("serial", "process")
        assert SerialExecutor().name == "serial"
        assert ProcessExecutor().name == "process"

    @pytest.mark.parametrize("max_workers", [0, -2])
    def test_invalid_worker_count_rejected(self, max_workers):
        with pytest.raises(ExecutorError, match="at least 1"):
            ProcessExecutor(max_workers=max_workers)

    def test_single_item_still_runs_in_a_worker(self):
        pids = ProcessExecutor(max_workers=8).map(worker_pid, [1])
        assert len(pids) == 1 and pids[0] != os.getpid()


class TestProcessPicklability:
    """Unpicklable work must fail fast with a clear error, never hang."""

    def test_unpicklable_work_function(self):
        with pytest.raises(ExecutorError, match="work function"):
            # repro: ignore[REP002] -- intentionally unpicklable work: this
            # test pins the eager, clearly-worded rejection of lambdas.
            ProcessExecutor(2).map(lambda value: value, [1, 2])

    def test_unpicklable_work_item_is_named(self):
        items = [1, threading.Lock(), 3]
        with pytest.raises(ExecutorError, match="work item 1"):
            ProcessExecutor(2).map(square, items)

    def test_error_arrives_promptly(self):
        """The rejection happens up front, not after a pool timeout."""
        started = time.perf_counter()
        with pytest.raises(ExecutorError):
            # repro: ignore[REP002] -- intentionally unpicklable work item:
            # this test pins the prompt (not pool-timeout) failure path.
            ProcessExecutor(2).map(square, [lambda: None])
        assert time.perf_counter() - started < 5.0


class TestResolveExecutor:
    def test_none_means_process_above_one_worker(self):
        assert isinstance(resolve_executor(None, None), SerialExecutor)
        for max_workers in (0, -2):  # below 1 is an error, not "serial"
            with pytest.raises(ExecutorError, match="at least 1"):
                resolve_executor(None, max_workers)
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        assert isinstance(resolve_executor(None, 2), ProcessExecutor)
        assert resolve_executor(None, 8).name == "process"

    def test_names_resolve(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("process", 3), ProcessExecutor)

    def test_worker_count_threads_through(self):
        assert resolve_executor(None, 3).max_workers == 3
        assert resolve_executor("process", 5).max_workers == 5

    def test_instance_passes_through(self):
        executor = ProcessExecutor(2)
        assert resolve_executor(executor, 99) is executor

    @pytest.mark.parametrize("name", ["gpu", "thread"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ExecutorError, match="unknown executor"):
            resolve_executor(name)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ExecutorError):
            resolve_executor("process", 0)

    def test_executor_error_is_a_configuration_error(self):
        """Existing ``except ConfigurationError`` call sites keep working."""
        assert issubclass(ExecutorError, ConfigurationError)

    def test_executor_abc_not_instantiable(self):
        with pytest.raises(TypeError):
            Executor()
