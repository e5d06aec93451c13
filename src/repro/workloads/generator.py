"""Job-stream generation.

Two generation modes are needed by the paper's evaluation:

* **Stationary streams** (Section 4): sample ``N`` jobs from a workload spec
  at a fixed utilisation — the input to each policy evaluation performed by
  the policy manager (Algorithm 1, step 1).

* **Trace-driven streams** (Section 6): sample inter-arrival and service
  times from the workload spec, then *rescale the inter-arrival times minute
  by minute* so the offered load follows a daily utilisation trace
  (Figure 7).  SleepScale then consumes this job stream as the causal input.

Both modes return :class:`~repro.workloads.jobs.JobTrace` objects.

Inside a :func:`trace_reuse` scope (the campaign engine opens one around
its cell loop), a seeded trace-driven generation equal in every input to the
previous one returns that same workload instead of sampling it again.
"""

from __future__ import annotations

import contextlib
from collections.abc import Hashable, Iterator
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, TraceError
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import WorkloadSpec
from repro.workloads.traces import UtilizationTrace


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a numpy random generator from an optional integer seed."""
    return np.random.default_rng(seed)


def generate_jobs(
    spec: WorkloadSpec,
    num_jobs: int,
    utilization: float | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> JobTrace:
    """Sample a stationary stream of *num_jobs* jobs from *spec*.

    Parameters
    ----------
    spec:
        The workload class to sample from.
    num_jobs:
        How many jobs to generate (the paper uses N = 10,000 per policy
        evaluation).
    utilization:
        If given, the arrival process is re-targeted so the offered load at
        full frequency equals this value; otherwise the spec's own implied
        utilisation is used.
    rng, seed:
        Randomness source.  Provide ``rng`` to share a generator across
        calls, or ``seed`` for a fresh deterministic generator.
    """
    if num_jobs < 1:
        raise ConfigurationError(f"num_jobs must be >= 1, got {num_jobs}")
    if rng is None:
        rng = make_rng(seed)
    if utilization is not None:
        spec = spec.at_utilization(utilization)
    gaps = spec.interarrival.sample(num_jobs, rng)
    demands = spec.service.sample(num_jobs, rng)
    return JobTrace.from_interarrivals(gaps, demands)


@dataclass(frozen=True)
class TraceDrivenWorkload:
    """A job stream whose load follows a time-varying utilisation trace.

    ``jobs`` is the generated stream and ``utilization`` the trace it was
    matched to, kept together so the runtime controller can look up the true
    utilisation of any minute (e.g. for the offline/oracle predictor).
    """

    jobs: JobTrace
    utilization: UtilizationTrace
    spec: WorkloadSpec


#: The reuse slot of the innermost open :func:`trace_reuse` scope: at most
#: one entry, the last seeded generation keyed by every input it read.
_REUSE: ContextVar[dict[Hashable, TraceDrivenWorkload] | None] = ContextVar(
    "trace_reuse", default=None
)


@contextlib.contextmanager
def trace_reuse() -> Iterator[None]:
    """Reuse the last seeded trace-driven workload while the scope is open.

    Inside the scope, :func:`generate_trace_driven_jobs` called with
    ``seed=`` and no ``rng`` keeps its last result, keyed by every input it
    reads (the spec, the trace's values, interval, start time and name, the
    seed and both utilisation clamps); the next call with an equal key
    returns that same object.  A miss drops the entry before generating, so
    the scope never holds two traces.  One entry suffices for callers that
    run equal inputs back to back (a seed-major campaign).  A spec that
    does not hash generates as usual.  Outside every scope nothing is kept,
    and the scope closes on exceptions too.
    """
    token = _REUSE.set({})
    try:
        yield
    finally:
        _REUSE.reset(token)


def _reuse_key(
    spec: WorkloadSpec,
    trace: UtilizationTrace,
    seed: int,
    min_utilization: float,
    max_utilization: float,
) -> Hashable | None:
    """The reuse key of one seeded generation (``None`` if it cannot hash)."""
    key = (
        spec,
        trace.values.tobytes(),
        trace.interval,
        trace.start_time,
        trace.name,
        seed,
        min_utilization,
        max_utilization,
    )
    try:
        hash(key)
    except TypeError:
        return None
    return key


def generate_trace_driven_jobs(
    spec: WorkloadSpec,
    trace: UtilizationTrace,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    min_utilization: float = 0.01,
    max_utilization: float = 0.95,
) -> TraceDrivenWorkload:
    """Generate a job stream whose minute-by-minute load follows *trace*.

    For each trace interval of length ``trace.interval`` with utilisation
    ``rho``, jobs are generated with service demands drawn from the spec's
    service distribution and inter-arrival gaps drawn from the spec's
    inter-arrival distribution rescaled so the expected offered load over the
    interval equals ``rho`` (clamped to ``[min_utilization,
    max_utilization]`` to keep the stream well-defined in intervals recorded
    as fully idle or overloaded).

    This mirrors Section 6: "we scale the inter-arrival time between
    generated jobs to match the time-varying utilization of Figure 7".
    Inside a :func:`trace_reuse` scope a seeded call equal in every input
    to the previous one returns the previous result.
    """
    if not 0.0 < min_utilization <= max_utilization < 1.0:
        raise ConfigurationError(
            "utilization clamp must satisfy 0 < min <= max < 1, got "
            f"[{min_utilization}, {max_utilization}]"
        )
    slot = _REUSE.get() if rng is None and seed is not None else None
    key = None
    if slot is not None:
        key = _reuse_key(spec, trace, seed, min_utilization, max_utilization)
        reused = slot.get(key) if key is not None else None
        if reused is not None:
            return reused
        slot.clear()
    if rng is None:
        rng = make_rng(seed)

    interval = trace.interval
    mean_service = spec.service.mean
    arrival_chunks: list[np.ndarray] = []
    demand_chunks: list[np.ndarray] = []

    # Each interval's arrivals lie in [start, end), computed by the same
    # expression for this interval's end and the next one's start, and
    # cumulative sums of non-negative gaps never decrease: the concatenated
    # chunks are already in arrival order and need no sort.
    for index, utilization in enumerate(trace.values):
        rho = float(np.clip(utilization, min_utilization, max_utilization))
        interval_start = trace.start_time + index * interval
        interval_end = trace.start_time + (index + 1) * interval
        # Expected number of jobs in this interval at the clamped load.
        mean_gap = mean_service / rho
        expected_jobs = interval / mean_gap
        # Draw enough gaps to cover the interval with high probability, then
        # keep only the arrivals that fall inside it.
        draw = max(8, int(np.ceil(expected_jobs * 1.5)) + 8)
        gap_scale = mean_gap / spec.interarrival.mean
        gaps = spec.interarrival.scaled(gap_scale).sample(draw, rng)
        arrivals = interval_start + np.cumsum(gaps)
        while arrivals.size > 0 and arrivals[-1] < interval_end:
            extra = spec.interarrival.scaled(gap_scale).sample(draw, rng)
            arrivals = np.concatenate([arrivals, arrivals[-1] + np.cumsum(extra)])
        inside = arrivals[arrivals < interval_end]
        if inside.size == 0:
            continue
        demands = spec.service.sample(inside.size, rng)
        arrival_chunks.append(inside)
        demand_chunks.append(demands)

    if not arrival_chunks:
        raise TraceError(
            "utilization trace produced no jobs; the trace may be too short "
            "or its utilisation too low for the workload's job size"
        )
    jobs = JobTrace(np.concatenate(arrival_chunks), np.concatenate(demand_chunks))
    workload = TraceDrivenWorkload(jobs=jobs, utilization=trace, spec=spec)
    if key is not None:
        slot[key] = workload
    return workload


def empirical_utilization(
    jobs: JobTrace, interval: float, horizon: float | None = None
) -> np.ndarray:
    """Measure the per-interval offered load of a job stream.

    Splits time into consecutive windows of length *interval* (starting at
    time zero and covering up to *horizon*, default the last arrival) and
    returns, for each window, the total nominal service demand of the jobs
    arriving in it divided by the window length.  This is the "observed
    utilisation" signal the runtime predictor consumes.
    """
    if interval <= 0:
        raise ConfigurationError(f"interval must be positive, got {interval}")
    end = horizon if horizon is not None else jobs.end_time
    if end <= 0:
        raise ConfigurationError("horizon must be positive")
    num_windows = int(np.ceil(end / interval))
    window_index = np.minimum(
        (jobs.arrival_times // interval).astype(int), num_windows - 1
    )
    totals = np.zeros(num_windows)
    np.add.at(totals, window_index, jobs.service_demands)
    return totals / interval
