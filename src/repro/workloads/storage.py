"""Trace storage backends: in-memory and memory-mapped.

A :class:`~repro.workloads.jobs.JobTrace` is two parallel float64 arrays.
Where those arrays *live* is orthogonal to what they mean, and at farm scale
it dominates the cost of process-sharded runs: pickling each server's
dispatched sub-stream into its shard task serialises the whole trace once
per farm.  The ``trace_backend`` knob (on
:class:`~repro.cluster.farm.ServerFarm`, ``Scenario.build`` and the
``run-scenario`` CLI) picks one of two backends:

* ``"memory"`` — plain in-process ndarrays, the default.  Process shards
  carry pickled array copies.
* ``"mmap"`` — ``numpy.memmap`` over ``.npy`` files.  The farm spills the
  trace to disk, publishes its server-grouped arrays into a
  :class:`SharedTraceArena` once, and process shards carry only
  :class:`ArrayDescriptor`\\ s — ``(path, offset, length)`` tuples of
  constant size — that workers resolve with one contiguous copy.  A farm
  run still dispatches and groups the whole trace in memory, so the trace
  must fit in RAM on either backend.

The arena is an owned temporary directory: ``with SharedTraceArena() as
arena`` deletes every file it published on exit, including when a worker
crashed and the executor's ``map`` raised through the ``with`` block.

The storage backend is **result-invisible**, exactly like the executor
choice: the arrays a worker copies out of a descriptor are byte-for-byte the
arrays the memory path would have pickled, so serial and process runs stay
bit-identical on both backends (pinned by
``tests/cluster/test_trace_backend_parity.py``).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError, TraceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (jobs imports storage)
    from repro.workloads.jobs import JobTrace

#: Trace storage backends accepted by every ``trace_backend=`` knob.
TRACE_BACKEND_MEMORY = "memory"
TRACE_BACKEND_MMAP = "mmap"
TRACE_BACKENDS = (TRACE_BACKEND_MEMORY, TRACE_BACKEND_MMAP)

#: Chunk size (elements) for the streaming invariant validation, chosen so
#: validating a memory-mapped trace never materialises more than a few MB.
_VALIDATE_CHUNK = 1 << 20


def validate_trace_backend(backend: str) -> str:
    """Check *backend* names a known trace storage backend and return it."""
    if backend not in TRACE_BACKENDS:
        raise ConfigurationError(
            f"unknown trace backend {backend!r}; expected one of {TRACE_BACKENDS}"
        )
    return backend


def validate_trace_arrays(
    arrivals: np.ndarray,
    demands: np.ndarray,
    *,
    chunk: int = _VALIDATE_CHUNK,
) -> None:
    """Run the :class:`~repro.workloads.jobs.JobTrace` invariant scans chunked.

    Identical checks to the trusting-nothing constructor — finite,
    non-negative, arrivals non-decreasing — but streamed ``chunk`` elements
    at a time, so validating a memory-mapped trace stays in bounded memory
    (``np.isfinite`` over the whole array would materialise an O(n) boolean
    mask).
    """
    if arrivals.ndim != 1 or demands.ndim != 1:
        raise TraceError("arrival times and service demands must be 1-D")
    if arrivals.size != demands.size:
        raise TraceError(
            f"got {arrivals.size} arrival times but {demands.size} service demands"
        )
    previous = -np.inf
    for start in range(0, arrivals.size, chunk):
        stop = start + chunk
        arrival_chunk = np.asarray(arrivals[start:stop], dtype=float)
        demand_chunk = np.asarray(demands[start:stop], dtype=float)
        if not np.all(np.isfinite(arrival_chunk)) or not np.all(
            np.isfinite(demand_chunk)
        ):
            raise TraceError("arrival times and service demands must be finite")
        if np.any(arrival_chunk < 0) or np.any(demand_chunk < 0):
            raise TraceError(
                "arrival times and service demands must be non-negative"
            )
        if arrival_chunk.size and (
            arrival_chunk[0] < previous or np.any(np.diff(arrival_chunk) < 0)
        ):
            raise TraceError("arrival times must be non-decreasing")
        if arrival_chunk.size:
            previous = float(arrival_chunk[-1])


def is_mmap_backed(array: np.ndarray) -> bool:
    """Whether *array* is (a view of) a :class:`numpy.memmap`."""
    current: np.ndarray | None = array
    while current is not None:
        if isinstance(current, np.memmap):
            return True
        current = getattr(current, "base", None)
    return False


# ---------------------------------------------------------------------------
# Descriptors and the arena
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayDescriptor:
    """Picklable, constant-size handle to (a slice of) a published array.

    ``location`` is the ``.npy`` file the array was published to (its
    header carries the dtype); ``offset`` and ``length`` are in *elements*,
    so one published array can hand out many non-overlapping sub-range
    descriptors (the per-server ranges of a farm shard) without further
    copies.
    """

    location: str
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ConfigurationError(
                f"descriptor offset/length must be non-negative, got "
                f"offset={self.offset}, length={self.length}"
            )

    def narrow(self, start: int, length: int) -> "ArrayDescriptor":
        """A descriptor for ``[start, start + length)`` of this one's range."""
        if start < 0 or length < 0 or start + length > self.length:
            raise ConfigurationError(
                f"narrow({start}, {length}) outside descriptor of "
                f"length {self.length}"
            )
        return replace(self, offset=self.offset + start, length=length)

    def load(self) -> np.ndarray:
        """A private in-process copy of this descriptor's range.

        The memory map is dropped before returning, so nothing keeps the
        published file open once the copy exists.
        """
        data = np.load(self.location, mmap_mode="r")
        return np.array(data[self.offset : self.offset + self.length])


class SharedTraceArena:
    """An owned temporary directory of published ``.npy`` arrays.

    ``publish`` writes an array once (one copy total, not one per shard) and
    returns its :class:`ArrayDescriptor`; worker processes resolve
    descriptors with :meth:`ArrayDescriptor.load`.  ``close`` (and
    ``__exit__``, which also runs when a worker raised or the pool broke)
    deletes the directory and everything in it; it is idempotent.
    """

    def __init__(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="repro_arena_")
        self.directory = Path(self._tmp.name)
        self._counter = 0
        self._closed = False

    def publish(self, array: np.ndarray, label: str = "array") -> ArrayDescriptor:
        """Write *array* into the arena and return its descriptor."""
        if self._closed:
            raise ConfigurationError("cannot publish into a closed arena")
        data = np.ascontiguousarray(array)
        if data.ndim != 1:
            raise ConfigurationError(
                f"only 1-D arrays can be published, got ndim={data.ndim}"
            )
        self._counter += 1
        path = self.directory / f"{self._counter}_{label}.npy"
        np.save(path, data, allow_pickle=False)
        return ArrayDescriptor(location=str(path), offset=0, length=int(data.size))

    def close(self) -> None:
        """Delete every published file (idempotent)."""
        if not self._closed:
            self._closed = True
            self._tmp.cleanup()

    def __enter__(self) -> "SharedTraceArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# TraceBuffer: the on-disk (arrivals, demands) pair
# ---------------------------------------------------------------------------


class TraceBuffer:
    """A trace's two parallel arrays, in memory or memory-mapped from a file.

    The array-level substrate of :class:`~repro.workloads.jobs.JobTrace`
    persistence: :meth:`write_file` / :meth:`from_file` give the ``.npy``
    on-disk form (one ``(2, n)`` float64 array: row 0 arrivals, row 1
    demands) that memory-mapped traces are read from.
    """

    def __init__(self, arrivals: np.ndarray, demands: np.ndarray):
        if arrivals.shape != demands.shape or arrivals.ndim != 1:
            raise TraceError(
                "arrival times and service demands must be matching 1-D arrays"
            )
        self._arrivals = arrivals
        self._demands = demands

    @staticmethod
    def write_file(
        path: str | Path, arrivals: np.ndarray, demands: np.ndarray
    ) -> None:
        """Write the on-disk ``(2, n)`` float64 ``.npy`` form of a trace."""
        arrivals = np.asarray(arrivals, dtype=float)
        demands = np.asarray(demands, dtype=float)
        if arrivals.shape != demands.shape or arrivals.ndim != 1:
            raise TraceError(
                "arrival times and service demands must be matching 1-D arrays"
            )
        target = np.lib.format.open_memmap(
            str(path), mode="w+", dtype=np.float64, shape=(2, arrivals.size)
        )
        try:
            # Row-at-a-time chunked writes keep the resident set bounded
            # even when the source arrays are themselves memory-mapped.
            for row, source in ((0, arrivals), (1, demands)):
                for start in range(0, arrivals.size, _VALIDATE_CHUNK):
                    stop = start + _VALIDATE_CHUNK
                    target[row, start:stop] = source[start:stop]
            target.flush()
        finally:
            del target

    @classmethod
    def from_file(cls, path: str | Path, *, mmap: bool = True) -> "TraceBuffer":
        """Open a trace file written by :meth:`write_file`.

        With ``mmap=True`` (default) the arrays are read-only views of a
        :class:`numpy.memmap`, paged in as a farm run reads them.
        ``mmap=False`` loads eagerly.
        """
        path = Path(path)
        if not path.exists():
            raise TraceError(f"trace file {path} does not exist")
        data = np.load(str(path), mmap_mode="r" if mmap else None)
        if data.ndim != 2 or data.shape[0] != 2 or data.dtype != np.float64:
            raise TraceError(
                f"{path} is not a trace file (expected a (2, n) float64 "
                f"array, got shape {data.shape}, dtype {data.dtype})"
            )
        return cls(data[0], data[1])

    def __len__(self) -> int:
        return int(self._arrivals.size)

    def validate(self) -> "TraceBuffer":
        """Run the chunked invariant scans over the buffer; return self."""
        validate_trace_arrays(self._arrivals, self._demands)
        return self

    def as_trace(self) -> "JobTrace":
        """The :class:`~repro.workloads.jobs.JobTrace` over these arrays.

        Trusted construction — no O(n) re-validation.  Call
        :meth:`validate` first when the buffer came from an external file.
        """
        from repro.workloads.jobs import JobTrace

        return JobTrace.from_validated_arrays(self._arrivals, self._demands)
