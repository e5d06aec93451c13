"""Job and job-trace containers.

The simulator (the paper's Algorithm 1) operates on a stream of jobs, each
characterised by its arrival time and its *nominal* service demand — the
time the job would take at full frequency on a CPU-bound server.  The actual
service time at a given DVFS setting is computed by the simulator through a
:class:`~repro.simulation.service_scaling.ServiceScaling` rule, so the trace
itself is frequency-independent and can be re-evaluated under many policies.

:class:`JobTrace` stores the stream as two parallel numpy arrays (arrival
times and service demands), which keeps policy evaluation — the inner loop of
SleepScale's policy manager — cheap.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterator, Sequence

import numpy as np

from repro.exceptions import TraceError


def _validated_tenant_ids(
    tenant_ids: Sequence[int] | np.ndarray | None, num_jobs: int
) -> np.ndarray | None:
    """Normalise and validate per-job tenant labels (``None`` = unlabelled)."""
    if tenant_ids is None:
        return None
    labels = np.asarray(tenant_ids)
    if labels.ndim != 1:
        raise TraceError("tenant labels must be 1-D")
    if labels.size != num_jobs:
        raise TraceError(f"got {labels.size} tenant labels for {num_jobs} jobs")
    if not np.issubdtype(labels.dtype, np.integer):
        if labels.size and not np.array_equal(labels, labels.astype(np.int64)):
            raise TraceError("tenant labels must be integers")
    labels = labels.astype(np.int64, copy=False)
    if labels.size and labels.min() < 0:
        raise TraceError("tenant labels must be non-negative")
    return labels


@dataclass(frozen=True)
class Job:
    """A single job: arrival time and nominal (full-frequency) service demand.

    Both values are in seconds; ``index`` is the position in the originating
    trace, which keeps per-job results traceable back to their input.
    """

    index: int
    arrival_time: float
    service_demand: float

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise TraceError(f"job {self.index} has negative arrival time")
        if self.service_demand < 0:
            raise TraceError(f"job {self.index} has negative service demand")


class JobTrace:
    """An ordered stream of jobs, stored as parallel numpy arrays.

    Invariants enforced on construction:

    * arrival times are non-decreasing,
    * all arrival times and service demands are finite and non-negative,
    * the trace is non-empty — except for the explicit zero-job trace built
      by :meth:`empty`, whose supported surface is deliberately narrow (see
      that constructor's docstring).
    """

    def __init__(
        self,
        arrival_times: Sequence[float] | np.ndarray,
        service_demands: Sequence[float] | np.ndarray,
        *,
        tenant_ids: Sequence[int] | np.ndarray | None = None,
        _allow_empty: bool = False,
    ):
        arrivals = np.asarray(arrival_times, dtype=float)
        demands = np.asarray(service_demands, dtype=float)
        if arrivals.ndim != 1 or demands.ndim != 1:
            raise TraceError("arrival times and service demands must be 1-D")
        if arrivals.size == 0 and not _allow_empty:
            raise TraceError("a job trace must contain at least one job")
        if arrivals.size != demands.size:
            raise TraceError(
                f"got {arrivals.size} arrival times but {demands.size} service demands"
            )
        if not np.all(np.isfinite(arrivals)) or not np.all(np.isfinite(demands)):
            raise TraceError("arrival times and service demands must be finite")
        if np.any(arrivals < 0) or np.any(demands < 0):
            raise TraceError("arrival times and service demands must be non-negative")
        if np.any(np.diff(arrivals) < 0):
            raise TraceError("arrival times must be non-decreasing")
        self._arrivals = arrivals
        self._demands = demands
        self._tenant_ids = _validated_tenant_ids(tenant_ids, arrivals.size)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_validated_arrays(
        cls,
        arrival_times: np.ndarray,
        service_demands: np.ndarray,
        *,
        tenant_ids: np.ndarray | None = None,
    ) -> "JobTrace":
        """Wrap arrays whose invariants are already known to hold — O(1).

        Every slice, boolean mask, or sorted fancy-index of a validated
        trace's arrays still satisfies the trace invariants (finite,
        non-negative, arrivals non-decreasing), so re-running the O(n)
        ``isfinite``/``diff`` scans on them is pure overhead — at farm scale
        the dispatcher re-scanned the entire trace once per server.  This
        trusted constructor skips the scans and only normalises dtype/shape.

        Only for arrays *derived from an already-validated trace* (or
        validated externally, e.g. by
        :func:`repro.workloads.storage.validate_trace_arrays`).  Arbitrary
        input must keep going through the validating constructor.  Among the
        trusted callers are the runtime's per-epoch and log-window traces:
        they concatenate consecutive chunks that
        :meth:`repro.core.runtime.RuntimeSession.feed` already checked
        (finite, non-negative, in global arrival order).
        """
        arrivals = np.asarray(arrival_times, dtype=float)
        demands = np.asarray(service_demands, dtype=float)
        if arrivals.ndim != 1 or demands.ndim != 1:
            raise TraceError("arrival times and service demands must be 1-D")
        if arrivals.size != demands.size:
            raise TraceError(
                f"got {arrivals.size} arrival times but {demands.size} service demands"
            )
        trace = cls.__new__(cls)
        trace._arrivals = arrivals
        trace._demands = demands
        trace._tenant_ids = (
            None if tenant_ids is None else np.asarray(tenant_ids, dtype=np.int64)
        )
        if trace._tenant_ids is not None and trace._tenant_ids.size != arrivals.size:
            raise TraceError(
                f"got {trace._tenant_ids.size} tenant labels for "
                f"{arrivals.size} jobs"
            )
        return trace

    @classmethod
    def empty(cls) -> "JobTrace":
        """A trace containing no jobs at all.

        The normal constructor rejects empty inputs because most of the
        statistics a trace answers (mean demand, offered load, time span) are
        undefined without jobs.  A zero-job trace is still a legitimate
        simulation input — an epoch in which nothing arrived — so this
        explicit constructor builds one; :func:`repro.simulation.engine.simulate_trace`
        maps it to a well-defined zero-job result.

        Supported surface of the empty trace: ``len``, iteration, equality,
        ``repr``, the array views, ``mean_service_demand`` and
        ``mean_interarrival_time`` (both ``nan``), and simulation via
        ``simulate_trace``.  Time-span accessors (``start_time``,
        ``end_time``, ``duration``) and the transformation helpers are
        undefined without jobs and raise :class:`TraceError`.
        """
        return cls(np.empty(0), np.empty(0), _allow_empty=True)

    @classmethod
    def from_interarrivals(
        cls,
        interarrival_times: Sequence[float] | np.ndarray,
        service_demands: Sequence[float] | np.ndarray,
        start_time: float = 0.0,
    ) -> "JobTrace":
        """Build a trace from inter-arrival gaps instead of absolute times.

        The first job arrives at ``start_time + interarrival_times[0]``.
        """
        gaps = np.asarray(interarrival_times, dtype=float)
        if np.any(gaps < 0):
            raise TraceError("inter-arrival times must be non-negative")
        arrivals = start_time + np.cumsum(gaps)
        return cls(arrivals, service_demands)

    @classmethod
    def from_jobs(cls, jobs: Sequence[Job]) -> "JobTrace":
        """Build a trace from a sequence of :class:`Job` objects."""
        if not jobs:
            raise TraceError("a job trace must contain at least one job")
        arrivals = [job.arrival_time for job in jobs]
        demands = [job.service_demand for job in jobs]
        return cls(arrivals, demands)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return int(self._arrivals.size)

    def __iter__(self) -> Iterator[Job]:
        for index in range(len(self)):
            yield Job(index, float(self._arrivals[index]), float(self._demands[index]))

    def __getitem__(self, index: int) -> Job:
        if not -len(self) <= index < len(self):
            raise IndexError(index)
        index = index % len(self)
        return Job(index, float(self._arrivals[index]), float(self._demands[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobTrace):
            return NotImplemented
        if (self._tenant_ids is None) != (other._tenant_ids is None):
            return False
        if self._tenant_ids is not None and not np.array_equal(
            self._tenant_ids, other._tenant_ids
        ):
            return False
        return np.array_equal(self._arrivals, other._arrivals) and np.array_equal(
            self._demands, other._demands
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if len(self) == 0:
            return "JobTrace(empty)"
        return (
            f"JobTrace(n={len(self)}, span={self.duration:.4g}s, "
            f"mean_demand={self.mean_service_demand:.4g}s)"
        )

    # -- views and summary statistics -----------------------------------------

    @property
    def arrival_times(self) -> np.ndarray:
        """Absolute arrival times, seconds (read-only view)."""
        view = self._arrivals.view()
        view.flags.writeable = False
        return view

    @property
    def service_demands(self) -> np.ndarray:
        """Nominal (full-frequency) service demands, seconds (read-only view)."""
        view = self._demands.view()
        view.flags.writeable = False
        return view

    @property
    def tenant_ids(self) -> np.ndarray | None:
        """Per-job tenant labels (int64, read-only view), or ``None``.

        Labels are positional indices into a tenant table (see
        :class:`repro.cluster.tenancy.FarmQos`); an unlabelled trace is the
        single-tenant case.  Every transformation that preserves job
        identity (:meth:`shifted`, :meth:`scaled_interarrivals`,
        :meth:`slice_by_time`, :meth:`head`, :meth:`tail`,
        :meth:`concatenated`, dispatch and merge) preserves the labels.
        """
        if self._tenant_ids is None:
            return None
        view = self._tenant_ids.view()
        view.flags.writeable = False
        return view

    def with_tenant_ids(
        self, tenant_ids: Sequence[int] | np.ndarray | None
    ) -> "JobTrace":
        """A copy of this trace carrying *tenant_ids* (``None`` clears them)."""
        return JobTrace.from_validated_arrays(
            self._arrivals,
            self._demands,
            tenant_ids=_validated_tenant_ids(tenant_ids, len(self)),
        )

    @property
    def interarrival_times(self) -> np.ndarray:
        """Gaps between consecutive arrivals (first gap measured from time 0)."""
        return np.diff(self._arrivals, prepend=0.0)

    @property
    def start_time(self) -> float:
        """Arrival time of the first job."""
        if len(self) == 0:
            raise TraceError("an empty trace has no start time")
        return float(self._arrivals[0])

    @property
    def end_time(self) -> float:
        """Arrival time of the last job."""
        if len(self) == 0:
            raise TraceError("an empty trace has no end time")
        return float(self._arrivals[-1])

    @property
    def duration(self) -> float:
        """Time between the first and last arrival."""
        return self.end_time - self.start_time

    @property
    def mean_interarrival_time(self) -> float:
        """Average gap between consecutive arrivals (``nan`` for an empty trace)."""
        if len(self) == 0:
            return math.nan
        if len(self) == 1:
            return float(self._arrivals[0])
        return float(np.mean(np.diff(self._arrivals)))

    @property
    def mean_service_demand(self) -> float:
        """Average nominal service demand (``nan`` for an empty trace)."""
        if len(self) == 0:
            return math.nan
        return float(np.mean(self._demands))

    @property
    def offered_load(self) -> float:
        """Utilisation offered at full frequency: total demand / trace duration.

        For a single-job trace this falls back to demand divided by arrival
        time (or 1.0 if the job arrives at time zero).
        """
        span = self.end_time if len(self) == 1 else self.duration
        if span <= 0:
            return 1.0
        return float(np.sum(self._demands) / span)

    # -- transformations -------------------------------------------------------

    def _copied_tenant_ids(self) -> np.ndarray | None:
        return None if self._tenant_ids is None else self._tenant_ids.copy()

    def shifted(self, offset: float) -> "JobTrace":
        """Return a copy with every arrival time shifted by *offset* seconds."""
        shifted = self._arrivals + offset
        if np.any(shifted < 0):
            raise TraceError("shift would produce negative arrival times")
        return JobTrace(
            shifted, self._demands.copy(), tenant_ids=self._copied_tenant_ids()
        )

    def scaled_interarrivals(self, factor: float) -> "JobTrace":
        """Stretch or compress the arrival process by *factor*.

        Multiplying every inter-arrival gap by ``factor`` divides the arrival
        rate (and hence the utilisation) by the same factor.  This is the
        operation SleepScale uses to re-target a logged epoch at the
        predicted utilisation of the next epoch.
        """
        if factor <= 0 or not np.isfinite(factor):
            raise TraceError(f"inter-arrival scale factor must be positive, got {factor}")
        gaps = self.interarrival_times * factor
        trace = JobTrace.from_interarrivals(gaps, self._demands.copy())
        trace._tenant_ids = self._copied_tenant_ids()
        return trace

    def scaled_to_utilization(self, utilization: float) -> "JobTrace":
        """Rescale inter-arrival times so the offered load equals *utilization*."""
        if not 0.0 < utilization < 1.0:
            raise TraceError(
                f"target utilization must lie in (0, 1), got {utilization}"
            )
        current = self.offered_load
        if current <= 0:
            raise TraceError("cannot rescale a trace with zero offered load")
        return self.scaled_interarrivals(current / utilization)

    def slice_by_time(self, start: float, end: float) -> "JobTrace | None":
        """Jobs arriving in ``[start, end)``, re-based so the slice starts at 0.

        Returns ``None`` when no job arrives in the window, preserving the
        historical contract (predating :meth:`empty`) so callers keep a
        cheap, explicit is-there-anything check.
        """
        if end <= start:
            raise TraceError(f"invalid time window [{start}, {end})")
        mask = (self._arrivals >= start) & (self._arrivals < end)
        if not np.any(mask):
            return None
        # Masked views of validated arrays keep every invariant (start >= 0,
        # so the re-basing cannot go negative): trusted construction.
        return JobTrace.from_validated_arrays(
            self._arrivals[mask] - start,
            self._demands[mask],
            tenant_ids=None if self._tenant_ids is None else self._tenant_ids[mask],
        )

    def head(self, count: int) -> "JobTrace":
        """The first *count* jobs of the trace."""
        if count < 1:
            raise TraceError(f"head count must be >= 1, got {count}")
        count = min(count, len(self))
        return JobTrace.from_validated_arrays(
            self._arrivals[:count],
            self._demands[:count],
            tenant_ids=(
                None if self._tenant_ids is None else self._tenant_ids[:count]
            ),
        )

    def tail(self, count: int) -> "JobTrace":
        """The last *count* jobs of the trace, re-based to start at time 0.

        Unlike :meth:`head` — whose slice already starts near time 0 — a
        tail slice begins mid-trace, so its arrival times are shifted down
        by the slice's first arrival.  Without the re-basing, the huge
        leading gap would corrupt ``offered_load`` and every rescaling
        built on it (the policy manager rescales logged tails to the
        predicted utilisation).
        """
        if count < 1:
            raise TraceError(f"tail count must be >= 1, got {count}")
        count = min(count, len(self))
        arrivals = self._arrivals[-count:]
        return JobTrace.from_validated_arrays(
            arrivals - arrivals[0],
            self._demands[-count:],
            tenant_ids=(
                None if self._tenant_ids is None else self._tenant_ids[-count:]
            ),
        )

    def concatenated(self, other: "JobTrace", gap: float = 0.0) -> "JobTrace":
        """Append *other* after this trace, separated by *gap* seconds."""
        if gap < 0:
            raise TraceError(f"gap must be non-negative, got {gap}")
        offset = self.end_time + gap
        arrivals = np.concatenate([self._arrivals, other._arrivals + offset])
        demands = np.concatenate([self._demands, other._demands])
        if (self._tenant_ids is None) != (other._tenant_ids is None):
            raise TraceError(
                "cannot concatenate a tenant-labelled trace with an "
                "unlabelled one; label both (with_tenant_ids) or neither"
            )
        labels = (
            None
            if self._tenant_ids is None
            else np.concatenate([self._tenant_ids, other._tenant_ids])
        )
        return JobTrace(arrivals, demands, tenant_ids=labels)

    # -- persistence ------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write the trace as a two-column CSV (``arrival_s, service_demand_s``).

        This is the interchange format for replaying externally collected
        job logs through the simulator (the Section 5.2.1 workflow of
        working directly with logged arrival and service times).
        """
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["arrival_s", "service_demand_s"])
            for arrival, demand in zip(self._arrivals, self._demands, strict=True):
                writer.writerow([f"{arrival:.9f}", f"{demand:.9f}"])

    def to_file(self, path: str | Path) -> None:
        """Write the trace as a binary ``.npy`` file (lossless, mmap-able).

        The on-disk form is one ``(2, n)`` float64 array — row 0 arrival
        times, row 1 service demands — written through a memory map in
        bounded chunks, so even a trace whose arrays are themselves
        memory-mapped spills to disk without materialising.  Unlike
        :meth:`to_csv` (the human-readable interchange format, which rounds
        to nanoseconds), the round trip through :meth:`from_file` is exact.
        """
        from repro.workloads.storage import TraceBuffer

        TraceBuffer.write_file(path, self._arrivals, self._demands)

    @classmethod
    def from_file(
        cls, path: str | Path, *, mmap: bool = True, validate: bool = True
    ) -> "JobTrace":
        """Load a trace written by :meth:`to_file`.

        With ``mmap=True`` (default) the trace's arrays are read-only views
        of a :class:`numpy.memmap` (the ``"mmap"`` trace backend's form).
        Validation runs the usual trace invariants in bounded-memory chunks;
        pass ``validate=False`` only for files this process (or an equally
        trusted one) wrote from a validated trace.
        """
        from repro.workloads.storage import TraceBuffer

        buffer = TraceBuffer.from_file(path, mmap=mmap)
        if len(buffer) == 0:
            raise TraceError(f"{path} contains no jobs")
        if validate:
            buffer.validate()
        return buffer.as_trace()

    @classmethod
    def from_csv(cls, path: str | Path) -> "JobTrace":
        """Load a trace written by :meth:`to_csv` (or any compatible CSV)."""
        path = Path(path)
        arrivals: list[float] = []
        demands: list[float] = []
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise TraceError(f"{path} is empty")
            for row in reader:
                if not row:
                    continue
                arrivals.append(float(row[0]))
                demands.append(float(row[1]))
        if not arrivals:
            raise TraceError(f"{path} contains no jobs")
        return cls(arrivals, demands)
