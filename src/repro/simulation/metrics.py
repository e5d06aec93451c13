"""Simulation results and derived metrics.

The simulator reports, for one (workload, policy) evaluation:

* per-job response times (sojourn times: queueing + wake-up + service),
* an energy breakdown (serving, wake-up, idle/sleep),
* time-in-state residency,
* the observation horizon.

From these the metrics the paper uses are derived: mean response time
``E[R]``, normalised mean response time ``mu * E[R]``, the 95th-percentile
response time, average power ``E[P]`` and energy per job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError


def linear_percentiles(
    values: np.ndarray, percentiles: Sequence[float]
) -> tuple[float, ...]:
    """Linear-interpolation percentiles, identical to :func:`np.percentile`.

    One :func:`np.partition` (selection, O(n)) over every rank the
    *percentiles* need, instead of a full sort or one selection each.  Each
    value replicates NumPy's lerp branch exactly, so it is bit-for-bit
    ``np.percentile(values, percentile)`` with the default linear
    interpolation.  NaN inputs propagate to ``nan`` just as
    ``np.percentile`` propagates them.  ``values`` must be non-empty and is
    not modified.
    """
    values = np.asarray(values)
    if np.isnan(values).any():
        return (math.nan,) * len(percentiles)
    size = values.size
    if size == 1:
        return (float(values[0]),) * len(percentiles)
    plan: list[tuple[int, float] | None] = []
    kth: set[int] = set()
    for percentile in percentiles:
        rank = (size - 1) * (percentile / 100.0)
        lower = int(rank)
        if lower >= size - 1:
            plan.append(None)
        else:
            plan.append((lower, rank - lower))
            kth.update((lower, lower + 1))
    part = np.partition(values, sorted(kth)) if kth else values
    top = float(np.max(values)) if None in plan else math.nan
    out = []
    for step in plan:
        if step is None:
            out.append(top)
            continue
        lower, gamma = step
        low_value = part[lower]
        high_value = part[lower + 1]
        diff = high_value - low_value
        if gamma >= 0.5:
            out.append(float(high_value - diff * (1.0 - gamma)))
        else:
            out.append(float(low_value + diff * gamma))
    return tuple(out)


class ResponseTimePercentiles:
    """Validated, memoised percentiles of a result's ``response_times``.

    The one percentile contract of :class:`SimulationResult`,
    :class:`~repro.core.epoch.RuntimeResult` and
    :class:`~repro.cluster.farm.FarmResult`: a percentile outside
    ``(0, 100]`` raises :class:`ConfigurationError`, a result with no jobs
    gives ``nan``, and values equal ``np.percentile``.  Each percentile is
    computed once per result (the response times are immutable); the
    percentiles a call still misses share one selection.
    """

    def response_time_percentile(self, percentile: float = 95.0) -> float:
        """The *percentile*-th percentile of the response-time distribution."""
        # Only validated percentiles are ever memoised: a hit needs no check.
        value = self.__dict__.get("_percentile_cache", {}).get(percentile)
        if value is None:
            (value,) = self.response_time_percentiles(percentile)
        return value

    def response_time_percentiles(self, *percentiles: float) -> tuple[float, ...]:
        """Several response-time percentiles at once, in argument order."""
        for percentile in percentiles:
            if not 0.0 < percentile <= 100.0:
                raise ConfigurationError(
                    f"percentile must lie in (0, 100], got {percentile}"
                )
        values = np.asarray(self.response_times)
        if values.size == 0:
            return (math.nan,) * len(percentiles)
        cache: dict[float, float] = self.__dict__.setdefault(
            "_percentile_cache", {}
        )
        missing = [p for p in dict.fromkeys(percentiles) if p not in cache]
        if missing:
            cache.update(zip(missing, linear_percentiles(values, missing)))
        return tuple(cache[p] for p in percentiles)


#: Residency key for time spent actively serving jobs.
STATE_SERVING = "serving"
#: Residency key for time spent waking up from a low-power state.
STATE_WAKING = "waking"
#: Residency key for idle time spent before the first sleep transition
#: (operating idle at the current DVFS setting).
STATE_PRE_SLEEP = "pre-sleep"


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy (joules) attributed to each activity over the simulation horizon."""

    serving: float
    waking: float
    idle: float

    def __post_init__(self) -> None:
        for label, value in (
            ("serving", self.serving),
            ("waking", self.waking),
            ("idle", self.idle),
        ):
            if value < 0:
                raise ConfigurationError(f"{label} energy must be non-negative")

    @property
    def total(self) -> float:
        """Total energy over the horizon."""
        return self.serving + self.waking + self.idle


@dataclass(frozen=True)
class SimulationResult(ResponseTimePercentiles):
    """Outcome of simulating one policy against one job stream.

    Parameters
    ----------
    response_times:
        Per-job sojourn times (departure minus arrival), seconds.
    waiting_times:
        Per-job waiting times before service starts (includes wake-up).
    energy:
        Energy breakdown over the horizon.
    horizon:
        Observation period in seconds (start of the stream to the departure
        of the last job).
    state_residency:
        Seconds spent in each state; keys are low-power state names plus
        :data:`STATE_SERVING`, :data:`STATE_WAKING` and
        :data:`STATE_PRE_SLEEP`.
    frequency:
        The DVFS scaling factor the policy ran at.
    wake_up_count:
        Number of jobs that found the server asleep and triggered a wake-up.
    mean_service_demand:
        Mean nominal (full-frequency) job size, used to normalise response
        times the way the paper's plots do (``mu * E[R]``).
    """

    response_times: np.ndarray
    waiting_times: np.ndarray
    energy: EnergyBreakdown
    horizon: float
    state_residency: Mapping[str, float] = field(default_factory=dict)
    frequency: float = 1.0
    wake_up_count: int = 0
    mean_service_demand: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if len(self.response_times) != len(self.waiting_times):
            raise ConfigurationError(
                "response_times and waiting_times must have the same length"
            )

    # -- response-time metrics --------------------------------------------------
    #
    # A result may legitimately contain zero jobs (an epoch with no arrivals,
    # an empty trace slice); per-job statistics are then ``nan`` rather than
    # raising, so aggregation code can filter on ``num_jobs``.

    @property
    def num_jobs(self) -> int:
        """Number of jobs that completed during the simulation."""
        return int(len(self.response_times))

    @cached_property
    def mean_response_time(self) -> float:
        """``E[R]`` in seconds (``nan`` for a zero-job result).

        Cached: the policy manager reads it several times per evaluation
        (normalisation, QoS check, slack), and the result is immutable.
        """
        if self.num_jobs == 0:
            return math.nan
        return float(np.mean(self.response_times))

    @property
    def mean_waiting_time(self) -> float:
        """Mean time between arrival and start of service, seconds."""
        if self.num_jobs == 0:
            return math.nan
        return float(np.mean(self.waiting_times))

    @property
    def normalized_mean_response_time(self) -> float:
        """``mu * E[R]`` — response time in units of the mean job size.

        ``nan`` for a zero-job result (like the other per-job statistics).
        Otherwise requires ``mean_service_demand`` to have been recorded;
        raises when it wasn't because silently returning the un-normalised
        value would be misleading.
        """
        if self.num_jobs == 0:
            return math.nan
        if self.mean_service_demand <= 0:
            raise ConfigurationError(
                "mean_service_demand was not recorded; cannot normalise"
            )
        return self.mean_response_time / self.mean_service_demand

    def exceedance_probability(self, deadline: float) -> float:
        """Empirical ``Pr(R >= d)`` for the given *deadline* in seconds."""
        if deadline < 0:
            raise ConfigurationError(f"deadline must be non-negative, got {deadline}")
        if self.num_jobs == 0:
            return math.nan
        return float(np.mean(self.response_times >= deadline))

    # -- power metrics -------------------------------------------------------------

    @property
    def total_energy(self) -> float:
        """Total energy drawn over the horizon, joules."""
        return self.energy.total

    @property
    def average_power(self) -> float:
        """``E[P]`` — total energy divided by the horizon, watts."""
        return self.total_energy / self.horizon

    @property
    def energy_per_job(self) -> float:
        """Average energy per completed job, joules (``nan`` for zero jobs)."""
        if self.num_jobs == 0:
            return math.nan
        return self.total_energy / self.num_jobs

    @property
    def wake_up_fraction(self) -> float:
        """Fraction of jobs that arrived to a sleeping server (``nan`` for zero jobs).

        ``nan`` rather than 0 so per-epoch aggregation that filters undefined
        statistics treats this fraction like the other per-job metrics.
        """
        if self.num_jobs == 0:
            return math.nan
        return self.wake_up_count / self.num_jobs

    def residency_fraction(self, state: str) -> float:
        """Fraction of the horizon spent in *state* (0 if never entered)."""
        return float(self.state_residency.get(state, 0.0)) / self.horizon

    # -- reporting -------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """A flat dictionary of the headline metrics, for reports and tests."""
        summary = {
            "num_jobs": float(self.num_jobs),
            "frequency": self.frequency,
            "mean_response_time_s": self.mean_response_time,
            "p95_response_time_s": self.response_time_percentile(95.0),
            "average_power_w": self.average_power,
            "energy_per_job_j": self.energy_per_job,
            "wake_up_fraction": self.wake_up_fraction,
        }
        if self.mean_service_demand > 0:
            summary["normalized_mean_response_time"] = (
                self.normalized_mean_response_time
            )
        return summary


def merge_results(results: list[SimulationResult]) -> SimulationResult:
    """Combine per-epoch results into one aggregate result.

    Used by the runtime controller to report whole-day metrics: response
    times are concatenated, energies and horizons are summed, residencies are
    added per state, and the frequency recorded is the time-weighted mean.
    """
    if not results:
        raise ConfigurationError("cannot merge an empty list of results")
    response = np.concatenate([r.response_times for r in results])
    waiting = np.concatenate([r.waiting_times for r in results])
    energy = EnergyBreakdown(
        serving=sum(r.energy.serving for r in results),
        waking=sum(r.energy.waking for r in results),
        idle=sum(r.energy.idle for r in results),
    )
    horizon = sum(r.horizon for r in results)
    residency: dict[str, float] = {}
    for result in results:
        for state, duration in result.state_residency.items():
            residency[state] = residency.get(state, 0.0) + duration
    frequency = sum(r.frequency * r.horizon for r in results) / horizon
    total_demand = sum(r.mean_service_demand * r.num_jobs for r in results)
    num_jobs = sum(r.num_jobs for r in results)
    return SimulationResult(
        response_times=response,
        waiting_times=waiting,
        energy=energy,
        horizon=horizon,
        state_residency=residency,
        frequency=frequency,
        wake_up_count=sum(r.wake_up_count for r in results),
        mean_service_demand=total_demand / num_jobs if num_jobs else 0.0,
    )
