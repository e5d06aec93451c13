"""Job dispatchers for multi-server farms.

The paper's conclusion sketches the scale-out direction: "studying SleepScale
on multi-core, multi-server systems ... SleepScale can be performed on each
core or server independently."  The substrate needed for that study is a way
to split one arrival stream across ``n`` servers; each server then runs its
own independent SleepScale instance.

Two *stateless* dispatchers model classic front-end load balancers:

* :class:`RoundRobinDispatcher` — deterministic 1-in-``n`` splitting;
* :class:`RandomDispatcher` — independent uniform (or weighted) random
  assignment, which preserves Poisson arrival statistics per server and is
  therefore the natural match for the idealised analysis.

Two *work-tracking* dispatchers model smarter front ends.  Both estimate each
server's outstanding backlog from the nominal service demands of the jobs
already routed to it (the front end cannot observe the servers' DVFS settings
or sleep states, so the estimate assumes each server runs at its *frequency
ceiling* — the best it could do — which is what a rate-aware load balancer
would provision against):

* :class:`LeastLoadedDispatcher` — join-the-least-work queue: each arriving
  job goes to the server with the smallest estimated backlog, which means an
  idle server is *always* preferred over a busy one (no idle-server
  starvation);
* :class:`PowerAwareDispatcher` — packing for energy proportionality: servers
  are ranked by power-efficiency and each job goes to the most efficient
  server whose backlog is below a threshold, so inefficient servers only wake
  up under pressure and can otherwise sit in deep sleep.

Speed-aware backlog
-------------------

On a heterogeneous farm the same nominal demand takes different wall-clock
time on different platforms.  Both work-tracking dispatchers therefore accept
``server_speeds`` — the relative rate at which each server retires nominal
demand seconds (1.0 = a full-frequency CPU-bound reference server).  A job of
nominal demand ``d`` routed to server ``s`` extends that server's estimated
finish time by ``d / server_speeds[s]``.  :class:`~repro.cluster.farm.ServerFarm`
derives the speeds from each :class:`~repro.cluster.farm.ServerSpec`'s
service-scaling rule and frequency ceiling and threads them through
``dispatch``, so heterogeneous farms route on estimated *finish times*
instead of raw demand seconds.  Omitting the speeds reproduces the old
homogeneity-blind estimate bit for bit.

Assignment engines
------------------

:class:`LeastLoadedDispatcher` has two interchangeable engines, mirroring the
simulation-backend contract:

* ``"heap"`` (default) — one O(log m) min-heap step per job, O(n log m) for
  ``n`` jobs on ``m`` servers, on uniform and mixed speeds alike;
* ``"loop"`` — the original per-job Python scan, kept as the reference
  oracle.

The two produce **byte-identical assignments** for every trace (pinned by
``tests/cluster/test_dispatch_engine.py``).  :class:`PowerAwareDispatcher`
has one engine, the ranked per-job scan, whose assignments are pinned by
per-cell golden digests and an independent reference scan in the same
suite.  Every dispatcher assigns through :meth:`JobDispatcher.assigner`: the
returned :class:`StreamAssigner` assigns one arrival-ordered trace, or one
controller regime's slice of it, in one call (the work-tracking assigners
raise :class:`~repro.exceptions.TraceError` on unordered arrivals).  The
default :meth:`JobDispatcher.assign`, the farm controller's per-regime
dispatch and the tenancy dispatchers' per-tenant routing all go through it.

All dispatchers return per-server :class:`~repro.workloads.jobs.JobTrace`
objects with absolute arrival times preserved, so the per-server runtimes
stay aligned on a common clock.
"""

from __future__ import annotations

import abc
import heapq
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError, TraceError
from repro.workloads.jobs import JobTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (farm imports dispatch)
    from repro.power.platform import ServerPowerModel

#: Engine identifiers for :class:`LeastLoadedDispatcher` (the dispatch
#: analogue of the simulation BACKENDS tuple).
ENGINE_HEAP = "heap"
ENGINE_LOOP = "loop"
DISPATCH_ENGINES = (ENGINE_HEAP, ENGINE_LOOP)


def validate_engine(engine: str) -> str:
    """Check *engine* names a known dispatch engine and return it."""
    if engine not in DISPATCH_ENGINES:
        raise ConfigurationError(
            f"unknown dispatch engine {engine!r}; expected one of {DISPATCH_ENGINES}"
        )
    return engine


def _demand_time_factors(
    num_servers: int, server_speeds: Sequence[float] | None
) -> list[float]:
    """Per-server multiplier turning nominal demand into estimated service time.

    ``None`` means a homogeneous farm: every factor is exactly 1.0, so the
    arithmetic (``demand * 1.0``) is bit-identical to the historic
    speed-blind estimate.
    """
    if server_speeds is None:
        return [1.0] * num_servers
    speeds = np.asarray(server_speeds, dtype=float)
    if speeds.ndim != 1 or speeds.size != num_servers:
        raise ConfigurationError(
            f"got {speeds.size if speeds.ndim == 1 else 'non-1-D'} server "
            f"speeds for {num_servers} servers"
        )
    if not np.all(np.isfinite(speeds)) or np.any(speeds <= 0):
        raise ConfigurationError("server speeds must be finite and positive")
    return (1.0 / speeds).tolist()


class WorkTracker:
    """Estimated per-server finish times, shared by the work-tracking engines.

    The tracker stores, for every server, the time it would finish all work
    routed to it so far, serving at its assumed speed.  ``charge`` routes one
    job and returns the server's new estimated finish time
    (``max(busy, arrival) + demand * time_factor``).  Both the least-loaded
    heap step and the power-aware ranked scan inline the same arithmetic on
    the ``busy`` value they already read.  The heap-vs-loop parity tests and
    the power-aware reference scan in ``tests/cluster/test_dispatch_engine.py``
    (exact ties included, on uniform and mixed speeds) pin them byte-identical
    to ``charge``.
    """

    __slots__ = ("busy_until", "time_factors")

    def __init__(self, num_servers: int, server_speeds: Sequence[float] | None = None):
        if num_servers < 1:
            raise ConfigurationError(
                f"a work tracker needs at least one server, got {num_servers}"
            )
        self.busy_until = [0.0] * num_servers
        self.time_factors = _demand_time_factors(num_servers, server_speeds)

    @property
    def num_servers(self) -> int:
        return len(self.busy_until)

    def charge(self, server: int, arrival: float, demand: float) -> float:
        """Route one job to *server* and return its new estimated finish time."""
        finish = (
            max(self.busy_until[server], arrival)
            + demand * self.time_factors[server]
        )
        self.busy_until[server] = finish
        return finish

    def backlog(self, server: int, now: float) -> float:
        """Outstanding estimated work of *server* at time *now*, seconds."""
        return max(self.busy_until[server] - now, 0.0)


def group_by_server(
    assignment: np.ndarray, num_servers: int, *arrays: np.ndarray
) -> tuple[tuple[np.ndarray, ...], list[slice | None]]:
    """Gather *arrays* into server-grouped order with one stable argsort.

    Returns the grouped copies of *arrays* and, per server, the slice of
    its contiguous range in them (``None`` for a server with no jobs).  The
    argsort is stable, so within each server the jobs keep their order:
    ``grouped[k][ranges[s]]`` equals ``arrays[k][assignment == s]`` bit for
    bit.  This is the only per-server split: :meth:`JobDispatcher.dispatch`
    and the farm's serial, controlled and process-sharded runs all go
    through it.
    """
    counts = np.bincount(assignment, minlength=num_servers).tolist()
    order = np.argsort(assignment, kind="stable")
    grouped = tuple(array[order] for array in arrays)
    ranges: list[slice | None] = []
    start = 0
    for count in counts:
        ranges.append(slice(start, start + count) if count else None)
        start += count
    return grouped, ranges


class StreamAssigner(abc.ABC):
    """Assignment of one arrival-ordered trace, or one regime slice, per call.

    An assigner is built for one :meth:`assign_chunk` call: the whole trace
    of a dispatch, or the slice of one controller regime.  (The names
    outlived chunked runs; ``perfbench/tracer.py`` patches ``assign_chunk``.)
    The work-tracking assigners read their arrivals through
    :meth:`_ordered_arrivals`, which rejects unordered arrays.
    """

    def __init__(self, num_servers: int):
        if num_servers < 1:
            raise ConfigurationError(
                f"a farm needs at least one server, got {num_servers}"
            )
        self.num_servers = num_servers

    @staticmethod
    def _ordered_arrivals(arrival_times: Sequence[float] | np.ndarray) -> np.ndarray:
        """The arrivals as floats, checked to be in arrival order."""
        arrivals = np.ascontiguousarray(arrival_times, dtype=float)
        if np.any(np.diff(arrivals) < 0):
            raise TraceError("dispatch requires arrival-ordered jobs")
        return arrivals

    @abc.abstractmethod
    def assign_chunk(
        self, arrival_times: np.ndarray, service_demands: np.ndarray
    ) -> np.ndarray:
        """Server index (0-based, int64) for every job handed in."""


class JobDispatcher(abc.ABC):
    """Splits one job stream into per-server streams."""

    def assigner(
        self,
        num_servers: int,
        *,
        server_speeds: Sequence[float] | None = None,
        tenant_ids: np.ndarray | None = None,
    ) -> StreamAssigner:
        """A fresh :class:`StreamAssigner` for one trace or regime slice.

        *tenant_ids* carries the labels of the jobs it will be handed
        (arrival order); tenant-blind dispatchers ignore it, the tenancy
        dispatchers check them against their tenant table here.
        """
        raise ConfigurationError(
            f"{type(self).__name__} has no assigner(); override it to "
            "enable controlled and per-tenant farm runs"
        )

    def assign(
        self,
        jobs: JobTrace,
        num_servers: int,
        *,
        server_speeds: Sequence[float] | None = None,
    ) -> np.ndarray:
        """Return the server index (0-based) for every job in *jobs*."""
        assigner = self.assigner(
            num_servers, server_speeds=server_speeds, tenant_ids=jobs.tenant_ids
        )
        return assigner.assign_chunk(jobs.arrival_times, jobs.service_demands)

    def validated_assignment(
        self,
        jobs: JobTrace,
        num_servers: int,
        *,
        server_speeds: Sequence[float] | None = None,
    ) -> np.ndarray:
        """:meth:`assign` plus the shape/range validation :meth:`dispatch` applies.

        The farm's zero-copy process path shards on raw assignments (it
        ships per-server index ranges instead of copied sub-streams), so the
        defensive checks that used to live only inside :meth:`dispatch` are
        factored here and shared by both consumers.
        """
        if num_servers < 1:
            raise ConfigurationError(
                f"a farm needs at least one server, got {num_servers}"
            )
        assignment = np.asarray(
            self.assign(jobs, num_servers, server_speeds=server_speeds)
        )
        if assignment.shape != (len(jobs),):
            raise ConfigurationError(
                "dispatcher returned an assignment of the wrong shape"
            )
        if assignment.min(initial=0) < 0 or assignment.max(initial=0) >= num_servers:
            raise ConfigurationError("dispatcher assigned a job to a non-existent server")
        return assignment

    def dispatch(
        self,
        jobs: JobTrace,
        num_servers: int,
        *,
        server_speeds: Sequence[float] | None = None,
    ) -> list[JobTrace | None]:
        """Split *jobs* into ``num_servers`` traces (``None`` for idle servers)."""
        assignment = self.validated_assignment(
            jobs, num_servers, server_speeds=server_speeds
        )
        arrays = [jobs.arrival_times, jobs.service_demands]
        if jobs.tenant_ids is not None:
            arrays.append(jobs.tenant_ids)
        grouped, ranges = group_by_server(assignment, num_servers, *arrays)
        streams: list[JobTrace | None] = []
        for bounds in ranges:
            if bounds is None:
                streams.append(None)
                continue
            arrivals, demands, *labels = (array[bounds] for array in grouped)
            # The stable grouping keeps each server's jobs in arrival order, so
            # the range of a validated trace keeps every invariant: trusted ctor.
            streams.append(
                JobTrace.from_validated_arrays(
                    arrivals, demands, tenant_ids=labels[0] if labels else None
                )
            )
        return streams

    def restrict(self, indices: Sequence[int]) -> "JobDispatcher":
        """A dispatcher over the sub-farm ``indices`` (ascending, 0-based).

        The farm controller masks dispatch to the currently serviceable
        servers by calling the restricted dispatcher with *local* indices
        ``0..len(indices)-1`` and mapping its assignment back to global
        indices.  Dispatchers whose configuration is per-server
        (:class:`RandomDispatcher` weights, :class:`PowerAwareDispatcher`
        idle powers) override this to narrow that configuration; stateless
        dispatchers are their own restriction.
        """
        return self


# ---------------------------------------------------------------------------
# Stateless dispatchers
# ---------------------------------------------------------------------------


class _RoundRobinAssigner(StreamAssigner):
    """Job *i* of the trace to server ``i mod n``."""

    def assign_chunk(self, arrival_times, service_demands) -> np.ndarray:
        return np.arange(len(arrival_times), dtype=np.int64) % self.num_servers


class RoundRobinDispatcher(JobDispatcher):
    """Assign job *i* to server ``i mod n`` (deterministic, perfectly balanced)."""

    def assigner(self, num_servers, *, server_speeds=None, tenant_ids=None) -> StreamAssigner:
        return _RoundRobinAssigner(num_servers)


class _RandomAssigner(StreamAssigner):
    """A fresh generator per trace, seeded from ``(seed, trace length)``."""

    def __init__(self, num_servers: int, seed: int | None, probabilities: np.ndarray):
        super().__init__(num_servers)
        self._seed = seed
        self._probabilities = probabilities

    def assign_chunk(self, arrival_times, service_demands) -> np.ndarray:
        count = len(arrival_times)
        if self._seed is None:
            # repro: ignore[REP001] -- seed=None is the documented opt-in for
            # fresh OS entropy per assignment (see RandomDispatcher); every
            # seeded path below is deterministic.
            rng = np.random.default_rng()
        else:
            # Fold the trace length into the seed so repeated assignments of
            # the same trace are identical but different traces decorrelate.
            rng = np.random.default_rng(np.random.SeedSequence((self._seed, count)))
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return rng.choice(
            self.num_servers, size=count, p=self._probabilities
        ).astype(np.int64, copy=False)


class RandomDispatcher(JobDispatcher):
    """Assign each job to an independently sampled server.

    Determinism contract (pinned by tests): the dispatcher instance holds no
    advancing RNG state — every ``assign`` derives a *fresh* generator from
    ``(seed, trace length)``, so two identical
    :meth:`ServerFarm.run <repro.cluster.farm.ServerFarm.run>` calls with the
    same dispatcher split identically, while traces of different lengths
    still decorrelate.

    Parameters
    ----------
    seed:
        Seed for the assignment; runs with the same seed split identically.
        ``None`` draws fresh OS entropy on every assignment.
    weights:
        Optional per-server probabilities (normalised internally); uniform
        when omitted.  Weighted dispatch models heterogeneous farms where
        faster servers take a larger share of the traffic.
    """

    def __init__(self, seed: int | None = 0, weights: Sequence[float] | None = None):
        self._seed = seed
        self._weights = None if weights is None else np.asarray(weights, dtype=float)
        if self._weights is not None:
            if np.any(self._weights < 0) or self._weights.sum() <= 0:
                raise ConfigurationError("dispatch weights must be non-negative and not all zero")

    def assigner(self, num_servers, *, server_speeds=None, tenant_ids=None) -> StreamAssigner:
        if self._weights is None:
            probabilities = np.full(num_servers, 1.0 / num_servers)
        else:
            if self._weights.size != num_servers:
                raise ConfigurationError(
                    f"got {self._weights.size} weights for {num_servers} servers"
                )
            probabilities = self._weights / self._weights.sum()
        return _RandomAssigner(num_servers, self._seed, probabilities)

    def restrict(self, indices: Sequence[int]) -> "RandomDispatcher":
        if self._weights is None:
            return self
        return RandomDispatcher(
            seed=self._seed, weights=self._weights[list(indices)]
        )


# ---------------------------------------------------------------------------
# Work-tracking dispatchers
# ---------------------------------------------------------------------------


#: Jobs per burst of the per-job assigners: bounds the per-burst Python lists
#: (one whole-trace list costs ~80 B/job on million-job traces).
_BURST = 4096


class _LeastLoadedHeapAssigner(StreamAssigner):
    """Join-the-least-work via a (finish time, server) min-heap.

    Every job takes one O(log m) heap step: pop the server with the
    smallest estimated finish time, charge the job to it with
    ``WorkTracker.charge`` inlined, and push the new finish time back.
    Jobs are stepped in bursts of :data:`_BURST` so the per-burst lists
    stay small.  The comparisons are on exactly the float values the
    per-job loop computes, and ``(busy_until, server)`` tuples break ties
    towards the lowest server index, so the assignment is byte-identical
    to ``engine="loop"``.
    """

    def __init__(self, num_servers: int, server_speeds: Sequence[float] | None):
        super().__init__(num_servers)
        self._tracker = WorkTracker(num_servers, server_speeds)
        # (busy_until, server): ties break towards the lowest server index,
        # exactly like the loop engine's list.index(min(...)).
        self._heap = [(0.0, server) for server in range(num_servers)]

    def assign_chunk(self, arrival_times, service_demands) -> np.ndarray:
        arrivals = self._ordered_arrivals(arrival_times)
        demands = np.ascontiguousarray(service_demands, dtype=float)
        count = len(arrivals)
        assignment = np.empty(count, dtype=np.int64)
        busy_until = self._tracker.busy_until
        factors = self._tracker.time_factors
        heap = self._heap
        heapreplace = heapq.heapreplace
        for index in range(0, count, _BURST):
            stop = min(count, index + _BURST)
            servers: list[int] = []
            append = servers.append
            for arrival, demand in zip(
                arrivals[index:stop].tolist(), demands[index:stop].tolist(), strict=True
            ):
                busy, server = heap[0]
                # ``WorkTracker.charge`` inlined: ``max(busy, arrival)``
                # spelled as the comparison ``max`` itself makes.
                finish = (arrival if arrival > busy else busy) + demand * factors[server]
                busy_until[server] = finish
                heapreplace(heap, (finish, server))
                append(server)
            assignment[index:stop] = servers
        return assignment


class _LeastLoadedLoopAssigner(StreamAssigner):
    """The original per-job scan, retained as the reference oracle."""

    def __init__(self, num_servers: int, server_speeds: Sequence[float] | None):
        super().__init__(num_servers)
        self._tracker = WorkTracker(num_servers, server_speeds)

    def assign_chunk(self, arrival_times, service_demands) -> np.ndarray:
        arrivals = self._ordered_arrivals(arrival_times).tolist()
        demands = np.asarray(service_demands, dtype=float).tolist()
        tracker = self._tracker
        busy_until = tracker.busy_until
        assignment = np.empty(len(arrivals), dtype=np.int64)
        for index, (arrival, demand) in enumerate(zip(arrivals, demands, strict=True)):
            server = busy_until.index(min(busy_until))
            assignment[index] = server
            tracker.charge(server, arrival, demand)
        return assignment


class LeastLoadedDispatcher(JobDispatcher):
    """Assign each job to the server with the least estimated outstanding work.

    The dispatcher replays the arrival stream once, tracking for every server
    the time it would finish its assigned work at its assumed speed (see the
    module docstring on ``server_speeds``).  Each job goes to the server with
    the smallest estimated finish time at its arrival instant; idle servers
    have finish times in the past, so when any server is idle the job
    *always* lands on an idle one — the longest-idle first, which also breaks
    ties deterministically.

    ``engine="heap"`` (default) assigns in O(n log m); ``engine="loop"`` is
    the retained per-job reference oracle.  Both produce byte-identical
    assignments.
    """

    def __init__(self, engine: str = ENGINE_HEAP):
        self._engine = validate_engine(engine)

    def assigner(self, num_servers, *, server_speeds=None, tenant_ids=None) -> StreamAssigner:
        if self._engine == ENGINE_HEAP:
            return _LeastLoadedHeapAssigner(num_servers, server_speeds)
        return _LeastLoadedLoopAssigner(num_servers, server_speeds)


class _PowerAwareAssigner(StreamAssigner):
    """Efficiency-ranked packing: one ranked per-job scan.

    Each job goes to the first server in *ranking* whose estimated finish
    time is at most ``arrival + threshold``; when none qualifies it goes to
    the globally least-loaded server.  A ``None`` *max_backlog* makes the
    threshold ``4 x`` the mean demand of the jobs handed in (1.0 when that
    mean is zero).  Jobs are stepped in bursts of :data:`_BURST`, like the
    heap assigner, so a million-job trace never becomes one Python list.
    """

    def __init__(
        self,
        num_servers: int,
        server_speeds: Sequence[float] | None,
        ranking: Sequence[int],
        max_backlog: float | None,
    ):
        super().__init__(num_servers)
        self._tracker = WorkTracker(num_servers, server_speeds)
        self._ranking = list(ranking)
        self._max_backlog = max_backlog

    def assign_chunk(self, arrival_times, service_demands) -> np.ndarray:
        arrivals = self._ordered_arrivals(arrival_times)
        demands = np.ascontiguousarray(service_demands, dtype=float)
        count = len(arrivals)
        assignment = np.empty(count, dtype=np.int64)
        busy_until = self._tracker.busy_until
        factors = self._tracker.time_factors
        ranking = self._ranking
        threshold = self._max_backlog
        if threshold is None:
            mean_demand = float(np.mean(demands)) if count else 0.0
            threshold = 4.0 * mean_demand if mean_demand > 0 else 1.0
        for index in range(0, count, _BURST):
            stop = min(count, index + _BURST)
            servers: list[int] = []
            append = servers.append
            for arrival, demand in zip(
                arrivals[index:stop].tolist(), demands[index:stop].tolist(), strict=True
            ):
                cutoff = arrival + threshold
                for server in ranking:
                    busy = busy_until[server]
                    if busy <= cutoff:
                        break
                else:
                    busy = min(busy_until)
                    server = busy_until.index(busy)
                # ``WorkTracker.charge`` inlined on the ``busy`` just read.
                busy_until[server] = (
                    (arrival if arrival > busy else busy) + demand * factors[server]
                )
                append(server)
            assignment[index:stop] = servers
        return assignment


class PowerAwareDispatcher(JobDispatcher):
    """Pack jobs onto the most power-efficient servers first.

    Servers are ranked by *idle_powers* — the power each platform burns just
    for being awake, the natural cost of keeping a server out of deep sleep.
    Each arriving job goes to the most efficient server whose estimated
    backlog (work already routed to it, scaled by its assumed speed, and not
    yet finished) is below *max_backlog* seconds; when every efficient server
    is saturated the job falls back to the globally least-loaded server.  The
    effect on a heterogeneous farm is energy proportionality at the farm
    level: the low-power platforms absorb the base load and the power-hungry
    ones only wake under pressure.

    Parameters
    ----------
    idle_powers:
        One idle power (watts) per server, in server-index order.  Lower is
        preferred.  Build from power models with :meth:`from_power_models`.
    max_backlog:
        Backlog threshold in seconds of work.  ``None`` (default) derives
        ``4 x`` the mean service demand of the jobs being assigned (the
        trace, or one controller regime's slice of it), which adapts the
        packing pressure to the workload's job size.
    """

    def __init__(
        self,
        idle_powers: Sequence[float],
        max_backlog: float | None = None,
    ):
        self._idle_powers = np.asarray(idle_powers, dtype=float)
        if self._idle_powers.ndim != 1 or self._idle_powers.size == 0:
            raise ConfigurationError("idle_powers must be a non-empty 1-D sequence")
        if np.any(self._idle_powers < 0) or not np.all(np.isfinite(self._idle_powers)):
            raise ConfigurationError("idle powers must be finite and non-negative")
        if max_backlog is not None and max_backlog <= 0:
            raise ConfigurationError(
                f"max_backlog must be positive, got {max_backlog}"
            )
        self._max_backlog = max_backlog
        # Stable sort: equally efficient servers keep index order.
        self._ranking = np.argsort(self._idle_powers, kind="stable")

    @classmethod
    def from_power_models(
        cls,
        power_models: Sequence["ServerPowerModel"],
        max_backlog: float | None = None,
    ) -> "PowerAwareDispatcher":
        """Rank servers by their operating-idle power ``C0(i)S0(i)``."""
        return cls(
            [model.idle_power(1.0) for model in power_models],
            max_backlog=max_backlog,
        )

    def assigner(self, num_servers, *, server_speeds=None, tenant_ids=None) -> StreamAssigner:
        if self._idle_powers.size != num_servers:
            raise ConfigurationError(
                f"got {self._idle_powers.size} idle powers for {num_servers} servers"
            )
        return _PowerAwareAssigner(
            num_servers, server_speeds, self._ranking.tolist(), self._max_backlog
        )

    def restrict(self, indices: Sequence[int]) -> "PowerAwareDispatcher":
        return PowerAwareDispatcher(
            self._idle_powers[list(indices)], max_backlog=self._max_backlog
        )


def merge_streams(streams: Sequence[JobTrace | None]) -> JobTrace:
    """Recombine per-server streams into one chronologically ordered trace.

    Useful for checking that a dispatch was lossless (round-tripping a split)
    and for computing farm-level offered load.
    """
    arrivals: list[np.ndarray] = []
    demands: list[np.ndarray] = []
    labels: list[np.ndarray | None] = []
    for stream in streams:
        if stream is None:
            continue
        arrivals.append(np.asarray(stream.arrival_times))
        demands.append(np.asarray(stream.service_demands))
        labels.append(
            None if stream.tenant_ids is None else np.asarray(stream.tenant_ids)
        )
    if not arrivals:
        raise TraceError("cannot merge an entirely empty set of streams")
    all_arrivals = np.concatenate(arrivals)
    all_demands = np.concatenate(demands)
    order = np.argsort(all_arrivals, kind="stable")
    all_labels: np.ndarray | None = None
    if any(chunk is not None for chunk in labels):
        if any(chunk is None for chunk in labels):
            raise TraceError(
                "cannot merge tenant-labelled and unlabelled streams; "
                "label every stream (JobTrace.with_tenant_ids) or none"
            )
        all_labels = np.concatenate([c for c in labels if c is not None])[order]
    # Sorting validated arrivals re-establishes the ordering invariant and
    # cannot break finiteness/non-negativity: trusted construction.
    return JobTrace.from_validated_arrays(
        all_arrivals[order], all_demands[order], tenant_ids=all_labels
    )
