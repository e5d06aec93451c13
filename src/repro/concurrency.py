"""Executors: serial or process pool.

The farm and the campaign engine run independent work items the same way:
one :meth:`Executor.map` call per run over every item (a farm's active
servers, a campaign's pending cells), results in item order, serial
execution unless a pool is explicitly requested.  :func:`resolve_executor`
turns their ``executor=``/``max_workers`` knobs into one of two executors:

* :class:`SerialExecutor` — run in the caller's thread (the oracle);
* :class:`ProcessExecutor` — a ``ProcessPoolExecutor``; work functions,
  items and results must pickle, in exchange the per-server epoch loops of a
  farm actually occupy multiple cores.

There is no thread pool: the work is Python-heavy (per-epoch policy
search), so threads stay GIL-bound and measured slower than serial.

The executor contract (pinned by ``tests/test_concurrency.py`` and the
scenario-wide parity suite in ``tests/cluster/test_executor_parity.py``):
every executor applies the work function to each item independently and
returns results in item order; exceptions propagate, first in item order,
and the process pool starts no further item once one has failed;
switching executors changes wall-clock only, never results.

Process-executor pickling failures are reported eagerly as
:class:`~repro.exceptions.ExecutorError` naming the offending item — not as
a hang, and not as a bare ``PicklingError`` from the pool's feeder thread.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Callable, Sequence
from typing import TypeVar

from repro.exceptions import ExecutorError

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Executor names accepted by every ``executor=`` knob (farm, cluster,
#: campaigns, ``Scenario.build`` and the CLIs).
EXECUTOR_SERIAL = "serial"
EXECUTOR_PROCESS = "process"
EXECUTORS = (EXECUTOR_SERIAL, EXECUTOR_PROCESS)


def _validate_workers(max_workers: int | None) -> int | None:
    if max_workers is not None and max_workers < 1:
        raise ExecutorError(
            f"max_workers must be at least 1, got {max_workers}"
        )
    return max_workers


class Executor(abc.ABC):
    """Applies a function to independent work items, results in item order."""

    #: Name the executor answers to in reports and CLI flags.
    name: str = "executor"

    @abc.abstractmethod
    def map(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> list[ResultT]:
        """Apply *fn* to every item and return the results in item order."""

    def describe(self) -> str:
        """Human-readable description for logs and benchmark reports."""
        return self.name


class SerialExecutor(Executor):
    """Run every work item in the caller's thread, one after another."""

    name = EXECUTOR_SERIAL

    def map(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> list[ResultT]:
        return [fn(item) for item in items]


class ProcessExecutor(Executor):
    """Run work items on a process pool (true multi-core execution).

    The work function, every item and every result must pickle — they cross
    a process boundary.  An unpicklable work function is rejected up front
    (it is cheap to probe); an unpicklable item or result surfaces as the
    pool's own pickling failure, which :meth:`map` converts into an
    :class:`~repro.exceptions.ExecutorError` naming the item index — a
    clear, prompt error either way, never a wedged pool.  Items are *not*
    probe-pickled in advance: farm shards can carry megabytes of trace
    arrays, and serialising them twice would tax exactly the hot path this
    executor exists to speed up.  Worker count defaults to the machine's
    CPU count and is never larger than the number of items.

    The pool uses the ``fork`` start method where the platform offers it
    (cheap start-up, workers inherit the parent's imports); elsewhere the
    platform default applies.  Each :meth:`map` call starts one pool and
    joins it before returning, and a run makes one call, so a campaign or
    farm run starts one pool.  A worker may serve several items of that
    call, in any order: state a work function keeps in its process (the
    campaign's trace reuse slot) carries between those items, never between
    calls.
    """

    name = EXECUTOR_PROCESS

    def __init__(self, max_workers: int | None = None):
        self.max_workers = _validate_workers(max_workers)

    @staticmethod
    def _context():
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    @staticmethod
    def _is_pickling_failure(error: BaseException) -> bool:
        """Whether *error* is the pool reporting unpicklable work.

        The pool's feeder thread sets the pickler's own exception on the
        affected future: ``PicklingError`` for unpicklable functions and
        closures, ``TypeError``/``AttributeError`` with a "pickle" message
        for unpicklable objects (locks, sockets, ...).
        """
        if isinstance(error, pickle.PicklingError):
            return True
        return isinstance(error, (TypeError, AttributeError)) and (
            "pickle" in str(error).lower()
        )

    def map(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> list[ResultT]:
        if not items:
            return []
        try:
            # Probe only the function: it is small, shared by every task,
            # and by far the most common pickling mistake (a lambda or
            # locally defined closure).
            pickle.dumps(fn)
        except Exception as error:
            raise ExecutorError(
                "the process executor requires picklable work; the work "
                f"function (type {type(fn).__name__}) cannot cross a "
                f"process boundary: {error}"
            ) from error
        workers = min(self.max_workers or os.cpu_count() or 1, len(items))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=self._context()
        ) as pool:
            futures = [pool.submit(fn, item) for item in items]
            results = []
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except BaseException as error:
                    # Leaving the ``with`` block waits for every queued
                    # future; cancel the ones not yet started so the
                    # failure surfaces without running the rest.
                    pool.shutdown(cancel_futures=True)
                    if self._is_pickling_failure(error):
                        raise ExecutorError(
                            "the process executor requires picklable work; "
                            f"work item {index} (type "
                            f"{type(items[index]).__name__}) or its result "
                            f"cannot cross a process boundary: {error}"
                        ) from error
                    raise
            return results


def resolve_executor(
    executor: Executor | str | None,
    max_workers: int | None = None,
) -> Executor:
    """Turn an ``executor=`` knob value into a concrete :class:`Executor`.

    A *max_workers* below 1 is rejected whatever the executor.  ``None``
    means a process pool when ``max_workers > 1`` and serial otherwise.  A
    string selects by name (:data:`EXECUTORS`), with *max_workers* sizing
    the pool; an :class:`Executor` instance is returned unchanged (its own
    worker count wins).
    """
    _validate_workers(max_workers)
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        if max_workers is not None and max_workers > 1:
            return ProcessExecutor(max_workers)
        return SerialExecutor()
    if executor == EXECUTOR_SERIAL:
        return SerialExecutor()
    if executor == EXECUTOR_PROCESS:
        return ProcessExecutor(max_workers)
    raise ExecutorError(
        f"unknown executor {executor!r}; expected one of {EXECUTORS} "
        "or an Executor instance"
    )

