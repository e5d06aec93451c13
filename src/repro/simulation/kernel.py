"""Vectorized simulation backend — the fast path of Algorithm 1.

The reference implementation in :mod:`repro.simulation.engine` walks the job
stream one job at a time in Python, which costs several milliseconds per
10,000-job policy evaluation.  SleepScale's policy manager re-evaluates the
*same* trace under every candidate policy once per epoch, so that loop is the
hot path of the entire reproduction.  This module replaces it with a NumPy
formulation that produces numerically matching results (the equivalence suite
in ``tests/simulation/test_backend_equivalence.py`` pins the two backends
against each other):

1. **No-wake departures** (the Lindley recursion).  Ignoring wake-up
   latencies, the departure of job *i* is
   ``D0[i] = C[i] + max(base, max_{j<=i}(A[j] - C[j-1]))`` where ``C`` is the
   cumulative sum of scaled service times, ``A`` the arrival times and
   ``base`` the time the server frees up from earlier backlog.  This is one
   ``np.cumsum`` plus one ``np.maximum.accumulate``.

2. **Idle-gap resolution.**  Wake-up latencies only ever *delay* departures,
   so every idle period of the real system starts at a candidate gap of the
   no-wake system (``A[i] >= D0[i-1]``).  The extra delay carried into each
   gap is at most the deepest state's wake-up latency ``w_max``; a gap whose
   no-wake idle time is at least ``w_max`` away from every sleep-state entry
   boundary therefore resolves to the same state (and survives) regardless of
   the exact delay, so its outcome is computed vectorized.  Only the *risky*
   gaps — shorter than ``w_max``, or straddling an entry-delay boundary —
   need the exact carried delay.  For a single state entered immediately
   (the whole default policy space) a gap can only *close*, and only when
   it is shorter than the wake-up latency ``w``.  When ``w`` is at most the
   structure's ``min(idle0[1:])`` no gap closes and the probe costs ``O(1)``.
   Otherwise one ``flatnonzero(idle0 < w)`` finds the risky gaps, and their
   closures are resolved by a per-gap float loop when there are few of them
   (:data:`LOOP_MAX_RISKY`), or by a reset-chain jump table — a
   ``searchsorted`` on the idle prefix sum plus pointer doubling over the
   chain resets — when a wake-up latency far above the inter-arrival gap
   makes nearly every gap risky.  Other ladders resolve their risky gaps in
   a scalar loop over gaps, not jobs.

3. **Sleep-segment accounting.**  The delay each gap carries on
   (``carried_after``) gives the mean response time without per-job
   arrays: every job after gap ``g`` departs ``carried_after[g]`` later than
   in the no-wake system.  For a single immediately entered state the
   residencies, idle energy, wake-ups and delay follow from per-frequency
   totals (``sum(idle0)``, ``sum(counts)``) plus one scalar correction
   per closed gap when the loop resolved them; the jump-table regime sums
   its per-gap arrays directly, because there "total minus closed" would
   cancel.  Other ladders compute per-state residency and idle energy with
   ``np.searchsorted``/``np.clip`` against the entry-delay ladder, one
   vector operation per sleep state.

:class:`TraceKernel` additionally memoises the per-frequency structure
(no-wake departures, candidate gaps, jobs per gap, the idle and job totals
above, total no-wake response time), so characterising a policy space that
crosses the same frequencies with several sleep sequences only pays for the
Lindley recursion once per frequency.

**Backend contract** (see ``docs/ARCHITECTURE.md``): this module is the
``backend="vectorized"`` side; :mod:`repro.simulation.engine` keeps the
``backend="reference"`` per-job loop as the readable oracle.  Both must
produce numerically matching results (``rtol <= 1e-9``) for every trace,
frequency, sleep sequence and power model — any intentional behaviour change
must land in *both* backends and keep the equivalence suite green.  The one
exception is a knife edge: when a job arrives as the previous one departs,
to within rounding, a zero-length idle gap (a wake-up, then ``w`` of delay)
and no gap at all differ by a whole wake-up, and the two backends round
departures differently, so they may disagree by one wake-up there
(``tests/property/test_property_kernel_aggregates.py`` pins such a
trace).  Every simulating entry point (``simulate_trace``,
``simulate_workload``, ``PolicyManager``, the strategy factories,
``Scenario.build``) accepts a ``backend=`` argument and passes it down
unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.power.platform import ServerPowerModel
from repro.power.sleep import SleepSequence, SleepStateSpec
from repro.simulation.metrics import (
    STATE_PRE_SLEEP,
    STATE_SERVING,
    STATE_WAKING,
    EnergyBreakdown,
    SimulationResult,
)
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.workloads.jobs import JobTrace

#: Backend identifiers accepted by ``simulate_trace``/``simulate_workload``.
BACKEND_REFERENCE = "reference"
BACKEND_VECTORIZED = "vectorized"
BACKENDS = (BACKEND_VECTORIZED, BACKEND_REFERENCE)


def validate_frequency(frequency: float) -> float:
    """Validate a DVFS scaling factor and return it as a plain float."""
    if not 0.0 < frequency <= 1.0:
        raise ConfigurationError(
            f"operating frequency must lie in (0, 1], got {frequency}"
        )
    return float(frequency)


def validate_backend(backend: str) -> str:
    """Validate a simulation backend name."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown simulation backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def zero_job_result(
    frequency: float,
    sleep: SleepSequence,
    clock_start: float,
    busy_until: float | None = None,
) -> SimulationResult:
    """A well-defined result for a trace containing no jobs.

    The server does nothing over the (possibly zero-length) window, so all
    energies and residencies are zero and the per-job arrays are empty.  The
    horizon covers any declared backlog window and falls back to a tiny
    positive value so average power stays well defined.
    """
    horizon = 0.0 if busy_until is None else busy_until - clock_start
    horizon = max(horizon, 1e-12)
    residency = {STATE_SERVING: 0.0, STATE_WAKING: 0.0, STATE_PRE_SLEEP: 0.0}
    for spec in sleep:
        residency.setdefault(spec.name, 0.0)
    return SimulationResult(
        response_times=np.empty(0),
        waiting_times=np.empty(0),
        energy=EnergyBreakdown(serving=0.0, waking=0.0, idle=0.0),
        horizon=horizon,
        state_residency=residency,
        frequency=validate_frequency(frequency),
        wake_up_count=0,
        mean_service_demand=0.0,
    )


#: Most risky gaps whose single-state closures the per-gap float loop
#: resolves; more go to the reset-chain jump table.  The two cost the same
#: at about 200 risky gaps (2-vCPU VM): below, the table's fixed cost of a
#: dozen array operations dominates; above, the loop's per-gap cost does.
LOOP_MAX_RISKY = 192


def _closures_by_loop(
    idle0: np.ndarray, risky: np.ndarray, wake: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed gaps and their residual delays, one risky gap at a time.

    A gap entered with carried delay ``c`` closes when ``c - idle0 > 0`` and
    hands the residual on to the next gap; a gap that survives hands on the
    full wake-up latency.  Returns the closed gap indices and residuals.
    """
    closed: list[int] = []
    residuals: list[float] = []
    last_closed = -2
    carried = 0.0
    for gap, idle in zip(risky.tolist(), idle0[risky].tolist(), strict=True):
        carried = (carried if gap == last_closed + 1 else wake) - idle
        if carried > 0.0:
            closed.append(gap)
            residuals.append(carried)
            last_closed = gap
    return np.asarray(closed, dtype=np.intp), np.asarray(residuals, dtype=float)


def _closures_by_jump_table(
    idle0: np.ndarray, risky: np.ndarray, wake: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed gaps and their residual delays, resolved per reset chain.

    Every chain of closures starts at a risky gap entered with the full
    wake-up latency ``w`` (its predecessor survived).  From such a start
    ``s`` the gaps keep closing until the first gap ``t`` whose cumulative
    no-wake idle ``idle0[s] + ... + idle0[t]`` reaches ``w``; ``t`` survives
    and the next risky gap after it starts the next chain.  One
    ``searchsorted`` on the idle prefix sum gives ``t`` for every potential
    start; pointer doubling over that next-start map then marks the starts
    actually reached from the first risky gap.
    """
    num_risky = risky.size
    prefix = np.empty(idle0.size + 1)
    prefix[0] = 0.0
    np.cumsum(idle0, out=prefix[1:])
    base = prefix[risky]
    survivor = np.searchsorted(prefix, base + wake, side="left") - 1
    step = np.empty(num_risky + 1, dtype=np.intp)
    step[:num_risky] = np.searchsorted(risky, survivor + 1, side="left")
    step[num_risky] = num_risky  # absorbing end-of-trace sentinel
    # Before each round ``reached`` holds the starts fewer than 2**k resets
    # from the first risky gap and ``step`` jumps 2**k resets ahead.
    reached = np.zeros(num_risky + 1, dtype=bool)
    reached[0] = True
    while step[0] < num_risky:
        reached[step[reached]] = True
        step = step[step]
    starts = np.flatnonzero(reached[:num_risky])
    owner = np.zeros(num_risky, dtype=np.intp)
    owner[starts] = starts
    np.maximum.accumulate(owner, out=owner)
    is_closed = risky < survivor[owner]
    closed = risky[is_closed]
    residuals = wake - (prefix[closed + 1] - base[owner[is_closed]])
    return closed, residuals


def _resolve_gaps(
    idle0: np.ndarray, entry_delays: np.ndarray, wake_latencies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve candidate idle gaps into actual idle periods (any ladder).

    Parameters are the no-wake idle durations of the candidate gaps and the
    sleep sequence's entry-delay / wake-latency ladders.  Returns, per gap:

    * ``offset`` — delay carried into the gap (actual minus no-wake departure
      of the preceding job),
    * ``idle`` — actual idle duration (negative when the gap closed),
    * ``survived`` — whether the gap is an idle period of the real system,
    * ``reached`` — index of the deepest sleep state entered (-1 for none),
    * ``wake_latency`` — wake-up latency paid at the end of the gap.

    Single immediately entered states take the cheaper
    :meth:`TraceKernel._solve_single_state` path.
    """
    num_gaps = idle0.size
    offset = np.zeros(num_gaps)
    if num_gaps == 0:
        empty = np.empty(0)
        return offset, empty, np.empty(0, dtype=bool), np.empty(0, dtype=int), empty
    w_max = float(wake_latencies[-1])
    reached = np.searchsorted(entry_delays, idle0, side="right") - 1
    if w_max > 0.0:
        # Vectorized fill: the delay carried into gap g is the wake-up paid at
        # gap g-1, which for non-risky gaps is determined by the no-wake idle
        # time alone.
        w0 = np.where(reached >= 0, wake_latencies[np.maximum(reached, 0)], 0.0)
        offset[1:] = w0[:-1]
        reached_shifted = (
            np.searchsorted(
                entry_delays, np.maximum(idle0 - w_max, 0.0), side="right"
            )
            - 1
        )
        risky_indices = np.nonzero((idle0 < w_max) | (reached_shifted != reached))[0]
        if risky_indices.size:
            delays_list = entry_delays.tolist()
            wakes_list = wake_latencies.tolist()
            if risky_indices.size > 32:
                idle0_view = idle0.tolist()
                offset_view = offset.tolist()
                reached_view = reached.tolist()
            else:
                idle0_view, offset_view, reached_view = idle0, offset, reached
            for gap in risky_indices.tolist():
                remaining = idle0_view[gap] - offset_view[gap]
                if remaining >= 0.0:
                    state = bisect_right(delays_list, remaining) - 1
                    carried = wakes_list[state] if state >= 0 else 0.0
                else:
                    # The carried delay swallowed the gap: the job queues and
                    # the residual delay propagates to the next candidate gap.
                    state = -2  # marks a closed gap
                    carried = -remaining
                reached_view[gap] = state
                if gap + 1 < num_gaps:
                    offset_view[gap + 1] = carried
            if offset_view is not offset:
                offset = np.asarray(offset_view)
                reached = np.asarray(reached_view)
    idle = idle0 - offset
    survived = idle >= 0.0
    # ``reached`` already holds the exact state for every gap: non-risky gaps
    # resolve to the same state as in the no-wake system, and risky gaps were
    # corrected (closed ones marked) in the loop above.
    reached = np.where(survived, np.maximum(reached, -1), -1)
    wake_latency = np.where(
        reached >= 0, wake_latencies[np.maximum(reached, 0)], 0.0
    )
    return offset, idle, survived, reached, wake_latency


class TraceKernel:
    """Evaluates many policies against one job trace, sharing per-trace work.

    The kernel is the batched-characterisation primitive: construct it once
    per trace (one epoch log, one generated stream) and call
    :meth:`evaluate` for every candidate ``(frequency, sleep)`` policy.  The
    demand cumulative sum is shared across all evaluations, and the no-wake
    busy-period structure is memoised per frequency, so policy spaces that
    cross the same frequencies with several sleep states only pay for the
    Lindley recursion once per frequency.

    Parameters mirror :func:`repro.simulation.engine.simulate_trace`.
    """

    def __init__(
        self,
        jobs: JobTrace,
        power_model: ServerPowerModel,
        scaling: ServiceScaling | None = None,
        start_time: float | None = None,
        busy_until: float | None = None,
    ):
        self._arrivals = np.asarray(jobs.arrival_times, dtype=float)
        self._demands = np.asarray(jobs.service_demands, dtype=float)
        self._power_model = power_model
        self._scaling = scaling or cpu_bound()
        num_jobs = self._arrivals.size
        if num_jobs:
            clock_start = (
                float(self._arrivals[0]) if start_time is None else float(start_time)
            )
            if clock_start > self._arrivals[0]:
                raise ConfigurationError(
                    "start_time must not be later than the first arrival"
                )
        else:
            clock_start = 0.0 if start_time is None else float(start_time)
        base = clock_start
        if busy_until is not None:
            if busy_until < clock_start:
                raise ConfigurationError(
                    "busy_until must not be earlier than the observation start"
                )
            base = float(busy_until)
        self._clock_start = clock_start
        self._base = base
        self._busy_until = None if busy_until is None else float(busy_until)
        self._demand_cumsum = np.cumsum(self._demands)
        self._demand_total = float(self._demands.sum())
        self._mean_demand = float(jobs.mean_service_demand) if num_jobs else 0.0
        self._frequency_cache: dict[float, _FrequencyStructure] = {}

    @property
    def num_jobs(self) -> int:
        """Number of jobs in the underlying trace."""
        return int(self._arrivals.size)

    def _structure(self, frequency: float) -> "_FrequencyStructure":
        """No-wake busy-period structure at one frequency (memoised)."""
        cached = self._frequency_cache.get(frequency)
        if cached is None:
            arrivals = self._arrivals
            time_factor = self._scaling.time_factor(frequency)
            # The cumulative service becomes the no-wake departures in place:
            # D0[i] = C[i] + max(base, max_{j<=i}(A[j] - C[j-1])), C[-1] = 0;
            # folding ``base`` into the first term leaves the running maximum
            # unchanged.
            departures0 = self._demand_cumsum * time_factor
            work = np.empty_like(arrivals)
            work[0] = max(arrivals[0], self._base)
            np.subtract(arrivals[1:], departures0[:-1], out=work[1:])
            np.maximum.accumulate(work, out=work)
            np.add(departures0, work, out=departures0)
            is_gap = np.empty(arrivals.size, dtype=bool)
            is_gap[0] = arrivals[0] >= self._base
            np.greater_equal(arrivals[1:], departures0[:-1], out=is_gap[1:])
            gap_indices = np.flatnonzero(is_gap)
            idle0 = arrivals[gap_indices]
            idle0 -= departures0[gap_indices - 1]
            num_gaps = gap_indices.size
            idle_rest_min = np.inf
            counts = np.empty(num_gaps, dtype=np.intp)
            if num_gaps:
                if gap_indices[0] == 0:
                    idle0[0] = arrivals[0] - self._base
                if num_gaps > 1:
                    idle_rest_min = float(idle0[1:].min())
                # Jobs served after each candidate gap, up to the next one:
                # the delay carried out of a gap shifts exactly these
                # departures.
                np.subtract(gap_indices[1:], gap_indices[:-1], out=counts[:-1])
                counts[-1] = departures0.size - gap_indices[-1]
            np.subtract(departures0, arrivals, out=work)
            cached = _FrequencyStructure(
                time_factor=time_factor,
                departures0=departures0,
                gap_indices=gap_indices,
                idle0=idle0,
                counts=counts,
                idle_total=float(idle0.sum()),
                idle_rest_min=idle_rest_min,
                jobs_after_gaps=(
                    departures0.size - int(gap_indices[0]) if num_gaps else 0
                ),
                last_departure0=float(departures0[-1]),
                response0_total=float(work.sum()),
                serving_time=self._demand_total * time_factor,
                active_power=self._power_model.active_power(frequency),
            )
            self._frequency_cache[frequency] = cached
        return cached

    def solve(self, frequency: float, sleep: SleepSequence) -> "GapSolution":
        """Resolve one ``(frequency, sleep)`` policy without per-job arrays.

        Returns a :class:`GapSolution` whose scalar aggregates — average
        power, energy breakdown, horizon, residencies and the mean response
        time — are available immediately beyond the memoised per-frequency
        structure: in ``O(1)`` for a single immediately entered state under
        which no gap closes, in ``O(closures)`` once the risky gaps are found
        for one with few risky gaps, and in ``O(idle gaps)`` otherwise.  The
        per-job response/waiting arrays (and the full
        :class:`SimulationResult`) are assembled lazily on first access,
        through the same arithmetic :meth:`evaluate` always used.  This is
        what makes frontier-search probes cheap: most probes only ever
        compare average power and mean response time.
        """
        frequency = validate_frequency(frequency)
        if self.num_jobs == 0:
            return GapSolution(
                kernel=self,
                frequency=frequency,
                _result=zero_job_result(
                    frequency, sleep, self._clock_start, self._busy_until
                ),
            )
        structure = self._structure(frequency)
        first = sleep[0]
        if len(sleep) == 1 and first.entry_delay == 0.0:
            return self._solve_single_state(frequency, structure, first)
        return self._solve_ladder(frequency, structure, sleep)

    def _solution(
        self,
        frequency: float,
        structure: "_FrequencyStructure",
        residency: dict[str, float],
        idle_energy: float,
        wake_up_count: int,
        last_carried: float,
        carried_after: np.ndarray | None = None,
        closures: tuple[float, np.ndarray | None, np.ndarray | None] | None = None,
        delay_total: float | None = None,
    ) -> "GapSolution":
        """Assemble a solution from a policy's gap aggregates.

        *last_carried* is the delay carried out of the last candidate gap:
        every job after it departs that much later than in the no-wake
        system, so adding it to the last no-wake departure reproduces the
        assembled ``departures[-1]`` bit-exactly.  *carried_after*,
        *closures* and *delay_total* are passed on to :class:`GapSolution`.
        """
        horizon = structure.last_departure0 + last_carried - self._clock_start
        if horizon <= 0.0:
            # Degenerate single-instant trace; fall back to the total service
            # time so power is still well defined.
            horizon = max(structure.serving_time, 1e-12)
        active_power = structure.active_power
        energy = EnergyBreakdown(
            serving=active_power * structure.serving_time,
            waking=active_power * residency[STATE_WAKING],
            idle=idle_energy,
        )
        return GapSolution(
            kernel=self,
            frequency=frequency,
            energy=energy,
            horizon=horizon,
            state_residency=residency,
            wake_up_count=wake_up_count,
            _structure=structure,
            _carried_after=carried_after,
            _closures=closures,
            _delay_total=delay_total,
        )

    def _solve_single_state(
        self,
        frequency: float,
        structure: "_FrequencyStructure",
        spec: SleepStateSpec,
    ) -> "GapSolution":
        """One state entered immediately: the whole default policy space.

        Every surviving gap reaches the state and pays its constant wake-up
        latency ``w``, which is also the delay it carries into the next gap;
        a closed gap carries its residual instead.  ``carried_after`` is
        therefore ``w`` everywhere except at the closures.  The aggregates
        start from the structure's totals, which are exact when no gap
        closes: waking ``w * gaps``, idle ``sum(idle0) - w * (gaps - 1)`` (gap
        0 carries no delay) and delay ``w * sum(counts)``.  Up to
        :data:`LOOP_MAX_RISKY` risky gaps, one correction per closed gap
        adjusts those totals.  Beyond it nearly every gap is risky, "total
        minus closed" would cancel, and the per-gap arrays are summed
        directly.
        """
        idle0 = structure.idle0
        num_gaps = idle0.size
        name = spec.name
        residency = {
            STATE_SERVING: structure.serving_time,
            STATE_WAKING: 0.0,
            STATE_PRE_SLEEP: 0.0,
            name: 0.0,
        }
        if num_gaps == 0:
            return self._solution(frequency, structure, residency, 0.0, 0, 0.0)
        wake = float(spec.wake_up_latency)
        closed: np.ndarray | None = None
        residuals: np.ndarray | None = None
        if structure.idle_rest_min < wake:
            risky = np.flatnonzero(idle0[1:] < wake)
            risky += 1  # gap 0 carries no delay and always survives
            if risky.size > LOOP_MAX_RISKY:
                return self._solve_by_jump_table(
                    frequency, structure, spec, residency, risky
                )
            closed, residuals = _closures_by_loop(idle0, risky, wake)
        survivors = num_gaps
        idle_time = structure.idle_total - wake * (num_gaps - 1)
        delay_total = wake * structure.jobs_after_gaps
        last_carried = wake
        if closed is not None:
            # A closed gap idles nothing in place of ``idle0 - w``; the
            # survivor after it (the end of its chain) idles
            # ``idle0 - residual`` in place of ``idle0 - w``; and the jobs
            # after it carry the residual in place of ``w``.  There are few
            # closures here, so scalars beat array passes.
            gaps = closed.tolist()
            for gap, residual, idle, count, next_closed in zip(
                gaps,
                residuals.tolist(),
                idle0[closed].tolist(),
                structure.counts[closed].tolist(),
                gaps[1:] + [num_gaps],
                strict=True,
            ):
                idle_time += wake - idle
                if gap + 1 < next_closed:
                    idle_time += wake - residual
                delay_total += (residual - wake) * count
                last_carried = residual if gap == num_gaps - 1 else wake
            survivors -= len(gaps)
        # Every survivor idles a non-negative time; the clamp only absorbs
        # rounding of the totals when they nearly cancel.
        idle_time = max(idle_time, 0.0)
        residency[STATE_WAKING] = wake * survivors
        residency[name] = idle_time
        return self._solution(
            frequency,
            structure,
            residency,
            spec.power * idle_time,
            survivors,
            last_carried,
            closures=(wake, closed, residuals),
            delay_total=delay_total,
        )

    def _solve_by_jump_table(
        self,
        frequency: float,
        structure: "_FrequencyStructure",
        spec: SleepStateSpec,
        residency: dict[str, float],
        risky: np.ndarray,
    ) -> "GapSolution":
        """Single state with many risky gaps: direct per-gap sums."""
        idle0 = structure.idle0
        num_gaps = idle0.size
        wake = float(spec.wake_up_latency)
        closed, residuals = _closures_by_jump_table(idle0, risky, wake)
        carried_after = np.full(num_gaps, wake)
        carried_after[closed] = residuals
        idle = np.empty(num_gaps)
        idle[0] = idle0[0]
        np.subtract(idle0[1:], carried_after[:-1], out=idle[1:])
        survived = np.ones(num_gaps, dtype=bool)
        survived[closed] = False
        # Survived idle is summed directly, never as "total minus closed",
        # which cancels.  The jump table decides survival on prefix sums, so
        # a survivor's idle can still round a hair below zero.
        idle_time = float(np.maximum(idle[survived], 0.0).sum())
        residency[STATE_WAKING] = float(np.where(survived, wake, 0.0).sum())
        residency[spec.name] = idle_time
        return self._solution(
            frequency,
            structure,
            residency,
            spec.power * idle_time,
            num_gaps - closed.size,
            float(carried_after[-1]),
            carried_after=carried_after,
        )

    def _solve_ladder(
        self,
        frequency: float,
        structure: "_FrequencyStructure",
        sleep: SleepSequence,
    ) -> "GapSolution":
        """Any sleep ladder: delayed entry and/or several states."""
        entry_delays = np.array([spec.entry_delay for spec in sleep])
        sleep_powers = np.array([spec.power for spec in sleep])
        wake_latencies = np.array([spec.wake_up_latency for spec in sleep])
        state_names = [spec.name for spec in sleep]
        idle0 = structure.idle0

        offset, idle, survived, reached, wake_latency = _resolve_gaps(
            idle0, entry_delays, wake_latencies
        )
        carried_after = None
        last_carried = 0.0
        if idle0.size:
            carried_after = np.where(survived, wake_latency, offset - idle0)
            last_carried = float(carried_after[-1])

        idle_durations = idle[survived] if not survived.all() else idle
        pre_sleep_time = float(np.minimum(idle_durations, entry_delays[0]).sum())
        residency: dict[str, float] = {
            STATE_SERVING: structure.serving_time,
            STATE_WAKING: float(wake_latency.sum()),
            STATE_PRE_SLEEP: pre_sleep_time,
        }
        for name in state_names:
            residency.setdefault(name, 0.0)
        idle_energy = self._power_model.idle_power(frequency) * pre_sleep_time
        num_states = len(state_names)
        for state_index in range(num_states):
            lower = entry_delays[state_index]
            upper = (
                entry_delays[state_index + 1]
                if state_index + 1 < num_states
                else np.inf
            )
            segment = np.clip(np.minimum(idle_durations, upper) - lower, 0.0, None)
            total = float(segment.sum())
            residency[state_names[state_index]] += total
            idle_energy += sleep_powers[state_index] * total
        wake_up_count = int(np.count_nonzero(reached >= 0))
        return self._solution(
            frequency,
            structure,
            residency,
            idle_energy,
            wake_up_count,
            last_carried,
            carried_after=carried_after,
        )

    def evaluate(self, frequency: float, sleep: SleepSequence) -> SimulationResult:
        """Simulate one ``(frequency, sleep)`` policy against the trace."""
        return self.solve(frequency, sleep).result

    def power_floor(
        self, frequencies: Sequence[float], first: int = 0
    ) -> "PowerFloor":
        """Lower bounds on single-state average power at each frequency.

        *frequencies* is an ascending axis.  The horizon bound is read at
        ``frequencies[first]`` and proves the cells from there up; the cells
        below get ``-inf``.  Costs one Lindley pass there (memoised, so a
        :meth:`solve` there reuses it) and one active-power and serving-time
        term per frequency; see :class:`PowerFloor` for the bound.
        """
        if self.num_jobs == 0 or self._base > self._clock_start:
            return PowerFloor(None, [], [])
        anchor = self._structure(validate_frequency(min(frequencies[first:])))
        return PowerFloor(
            anchor.last_departure0 - self._clock_start,
            [self._power_model.active_power(f) for f in frequencies],
            [self._demand_total * self._scaling.time_factor(f) for f in frequencies],
            first,
        )

    def response_floor(
        self, frequencies: Sequence[float], first: int | None = 0
    ) -> "ResponseFloor":
        """Lower bounds on single-state ``mu * E[R]`` at each frequency.

        *frequencies* is an ascending axis.  The survivor bound ``K`` is
        read from the gaps at ``frequencies[first]`` and proves the cells
        from there up; ``first=None`` reads no gaps and proves no wake-up
        (``K = 0``).  Costs a Lindley pass at the highest frequency and one
        at ``frequencies[first]`` (both memoised, so a :meth:`solve` there
        reuses them); see :class:`ResponseFloor` for the bound.
        """
        if self.num_jobs == 0 or not self._mean_demand > 0.0:
            return ResponseFloor(None, np.empty(0), 0, 0.0, [1.0] * len(frequencies))
        top = validate_frequency(max(frequencies))
        if self._base > self._arrivals[0]:
            # The backlog's own wait does not scale with the service times.
            scales = [1.0] * len(frequencies)
        else:
            top_factor = self._scaling.time_factor(top)
            scales = [
                max(1.0, self._scaling.time_factor(f) / top_factor)
                for f in frequencies
            ]
        idle = np.empty(0)
        if first is not None:
            anchor = self._structure(validate_frequency(min(frequencies[first:])))
            idle = np.sort(anchor.idle0)
        return ResponseFloor(
            self._structure(top).response0_total,
            idle,
            self.num_jobs,
            self._mean_demand,
            scales,
            first or 0,
        )


class ResponseFloor:
    """A proven lower bound on ``mu * E[R]`` of each single-state cell.

    For one state with wake-up latency ``w`` entered as soon as the queue
    empties, every job after a candidate gap departs the delay carried out
    of that gap later than without wake-ups: ``w`` after a gap that
    survives, a positive residual after one that closes.  So the total
    response time is at least ``R0(f) + w * S(f)``, with ``R0`` the no-wake
    total and ``S`` the surviving gaps.  Over an ascending axis ending at
    ``f_max``:

    * ``R0(f) >= k(f) * R0(f_max)`` with ``k(f) = tf(f) / tf(f_max) >= 1``
      when no backlog is carried in (the server is free by the first
      arrival).  Scaling every service time by ``k`` scales every Lindley
      waiting time by at least ``k``: by induction on ``W' = max(0, W + k*S
      - T)``, since ``k*(W + S) - T >= k*(W + S - T)`` for ``T >= 0``; so
      each response ``W + k*S`` scales by at least ``k`` too.  With a
      backlog ``k = 1``: no-wake departures never rise with speed;
    * ``S(f) >= K`` at every frequency from the anchor ``f_a =
      frequencies[first]`` up, where ``K`` is the least ``k`` with ``T(k) +
      k * w >= Phi``, ``Phi`` sums ``min(idle0, w)`` over the gaps at
      ``f_a`` and ``T(k)`` sums its ``k`` largest terms.  Closures chain
      after a survivor, and a chain's closed gaps idle less than ``w`` in
      all, so ``Phi(f) - T_f(S) < S * w`` at ``f``; every ``f_a`` gap is a
      gap at ``f >= f_a`` idling at least as long, so ``Phi - T(k)`` (the
      sum without the ``k`` largest terms) is at most ``Phi(f) - T_f(k)``,
      and ``S`` meets the condition at ``f_a`` too.

    Hence ``mu * E[R](f, s) >= (k(f) * R0(f_max) + w * K) / (n *
    mean_demand)`` from the anchor up, and the same without ``w * K`` below
    it (:meth:`cells`).  With ``w = 0`` (the DVFS-only pseudo state) the
    floor of the top cell is exactly its no-wake response.  ``K`` is taken
    with a ``1e-9 * Phi`` margin, so rounding can only lower it.

    Built by :meth:`TraceKernel.response_floor`; the bound holds for either
    simulation backend because it only reads the trace.
    """

    __slots__ = (
        "_response0",
        "_idle",
        "_prefix",
        "_num_jobs",
        "_mean_demand",
        "_scales",
        "_first",
    )

    def __init__(
        self,
        response0: float | None,
        idle: np.ndarray,
        num_jobs: int,
        mean_demand: float,
        scales: Sequence[float] = (),
        first: int = 0,
    ):
        #: ``R0(f_max)``; ``None`` when nothing is proven (no jobs).
        self._response0 = response0
        #: The no-wake idle times of the gaps at the anchor, ascending, and
        #: their prefix sums: ``P[j]`` sums the ``j`` shortest.
        self._idle = idle
        self._prefix = np.empty(idle.size + 1)
        self._prefix[0] = 0.0
        np.cumsum(idle, out=self._prefix[1:])
        self._num_jobs = num_jobs
        self._mean_demand = mean_demand
        #: ``k(f)`` per frequency of the axis.
        self._scales = scales
        #: The anchor's index: ``K`` proves the cells from here up.
        self._first = first

    def survivors(self, wake_up_latency: float) -> int:
        """``K``: the least number of gaps that survive from the anchor up.

        ``K`` is the least ``k`` with ``Phi - T(k) <= k * w``, where
        ``Phi - T(k)`` sums the ``gaps - k`` smallest ``min(idle0, w)``.
        With ``m`` gaps idling ``w`` or longer, ``k <= m`` leaves
        ``m - k`` capped terms in that sum, so the condition reads
        ``k >= Phi / (2 * w)``; past ``m`` it reads ``P[j] <= (gaps - j) *
        w`` for ``j = gaps - k``, with ``P`` the prefix sums of the
        ascending idle times, and ``P[j] - (gaps - j) * w`` rises with
        ``j``.
        """
        wake = float(wake_up_latency)
        gaps = self._idle.size
        if not wake > 0.0 or gaps == 0:
            return 0
        prefix = self._prefix
        short = int(np.searchsorted(self._idle, wake, side="left"))
        capped = gaps - short
        phi = float(prefix[short]) + capped * wake
        margin = 1e-9 * phi
        least = max(math.ceil((phi - margin) / (2.0 * wake)), 0)
        if 2.0 * least * wake < phi - margin:
            # The quotient underflowed (a subnormal ``Phi``).
            least += 1
        if least <= capped:
            return least
        fits = bisect_right(
            range(short + 1),
            margin,
            key=lambda j: float(prefix[j]) - (gaps - j) * wake,
        )
        return gaps - fits + 1

    def cells(
        self, wake_up_latency: float, survivors: int | None = None
    ) -> list[float]:
        """The least ``mu * E[R]`` of each cell of the state's column.

        *survivors* is the column's ``K`` when the caller already holds it
        (:meth:`survivors` otherwise).  Every floor is ``-inf`` when nothing
        is proven (no jobs, or no mean demand).
        """
        if self._response0 is None:
            return [-math.inf] * len(self._scales)
        if survivors is None:
            survivors = self.survivors(wake_up_latency)
        response0 = self._response0
        waking = wake_up_latency * survivors
        num_jobs, mean_demand, first = self._num_jobs, self._mean_demand, self._first
        return [
            (k * response0 + (waking if index >= first else 0.0)) / num_jobs / mean_demand
            for index, k in enumerate(self._scales)
        ]


class PowerFloor:
    """A proven lower bound on the average power of single-state policies.

    For one state ``s`` entered as soon as the queue empties, the kernel
    splits the horizon exactly into serving ``S(f)``, waking ``W`` and sleep
    residency ``I``: ``H = S + W + I``, with energy
    ``P_act(f) * (S + W) + P_s(f) * I``.  Average power is therefore a
    convex combination of ``P_act`` and ``P_s`` with busy weight
    ``(S + W) / H >= (S + W_min) / H``, where ``W_min`` is a proven least
    waking time (``w_s * K``, :meth:`ResponseFloor.survivors`).  Without a
    carried-in backlog the horizon is bounded by ``D0_last(f_a) - t0 + w_s``
    at every frequency from the anchor ``f_a`` up: the no-wake last
    departure never rises with frequency, and the delay carried out of the
    last gap is at most the wake-up latency.  Hence, whenever
    ``P_act >= P_s``, ``P(f, s) >= P_s + (P_act - P_s) * min(1, (S(f) +
    W_min) / (D0_last(f_a) - t0 + w_s))``, and otherwise ``P(f, s) >=
    P_act``.

    Built by :meth:`TraceKernel.power_floor`; the bound holds for either
    simulation backend because it only reads the trace.
    """

    __slots__ = ("_span", "_active_powers", "_serving_times", "_first")

    def __init__(
        self,
        span: float | None,
        active_powers: list[float],
        serving_times: list[float],
        first: int = 0,
    ):
        #: ``D0_last(f_a) - t0``; ``None`` when no bound is proven (a
        #: carried-in backlog, or no jobs).
        self._span = span
        self._active_powers = active_powers
        self._serving_times = serving_times
        #: The anchor's index: the floors prove the cells from here up.
        self._first = first

    def __call__(
        self,
        sleep_powers: Sequence[float],
        wake_up_latency: float,
        waking: float = 0.0,
    ) -> list[float]:
        """The least average power one immediately entered state can draw.

        *sleep_powers* holds the state's resident power ``P_s(f)`` at each
        frequency of the axis, *wake_up_latency* its ``w_s`` and *waking* a
        proven least waking time of the cells from the anchor up; the
        result holds one floor per frequency.  A floor is ``-inf`` (nothing
        proven) below the anchor and where it is not finite, and every
        floor is when a backlog is carried in, when the trace is empty or
        when the horizon bound is not positive.
        """
        span = self._span
        horizon = -math.inf if span is None else span + wake_up_latency
        if not horizon > 0.0:
            return [-math.inf] * len(sleep_powers)
        floors = [-math.inf] * self._first
        for active, serving, resident in zip(
            self._active_powers[self._first :],
            self._serving_times[self._first :],
            sleep_powers[self._first :],
            strict=True,
        ):
            if active >= resident:
                busy = min(1.0, (serving + waking) / horizon)
                bound = resident + (active - resident) * busy
            else:
                bound = active
            floors.append(bound if math.isfinite(bound) else -math.inf)
        return floors


class _FrequencyStructure:
    """The memoised no-wake structure of one trace at one frequency."""

    __slots__ = (
        "time_factor",
        "departures0",
        "gap_indices",
        "idle0",
        "counts",
        "idle_total",
        "idle_rest_min",
        "jobs_after_gaps",
        "last_departure0",
        "response0_total",
        "serving_time",
        "active_power",
    )

    def __init__(
        self,
        *,
        time_factor: float,
        departures0: np.ndarray,
        gap_indices: np.ndarray,
        idle0: np.ndarray,
        counts: np.ndarray,
        idle_total: float,
        idle_rest_min: float,
        jobs_after_gaps: int,
        last_departure0: float,
        response0_total: float,
        serving_time: float,
        active_power: float,
    ):
        self.time_factor = time_factor
        #: Per-job departures ignoring wake-up latencies.
        self.departures0 = departures0
        #: Index of the first job after each candidate idle gap.
        self.gap_indices = gap_indices
        #: No-wake idle duration of each candidate gap.
        self.idle0 = idle0
        #: Jobs from each candidate gap up to the next one.
        self.counts = counts
        #: ``sum(idle0)``.
        self.idle_total = idle_total
        #: ``min(idle0[1:])`` (inf with fewer than two gaps): a wake-up
        #: latency at most this closes no gap.
        self.idle_rest_min = idle_rest_min
        #: ``sum(counts)``: the jobs at or after the first candidate gap.
        self.jobs_after_gaps = jobs_after_gaps
        #: ``departures0[-1]`` as a float.
        self.last_departure0 = last_departure0
        #: ``sum(departures0 - arrivals)``: total no-wake response time.
        self.response0_total = response0_total
        self.serving_time = serving_time
        self.active_power = active_power


class GapSolution:
    """One policy's resolved gap structure, with lazily assembled arrays.

    Produced by :meth:`TraceKernel.solve`.  The scalar aggregates (``energy``,
    ``horizon``, ``average_power``, residencies, ``mean_response_time``) are
    final; :attr:`result` assembles the per-job response/waiting arrays on
    first access and returns the full
    :class:`~repro.simulation.metrics.SimulationResult` — identical to what
    :meth:`TraceKernel.evaluate` returns, because ``evaluate`` *is*
    ``solve().result``.

    The delay carried out of each candidate gap is held either as an array
    (``_carried_after``) or, for a single immediately entered state, as
    ``_closures = (wake, closed, residuals)``: ``wake`` everywhere except
    the closed gaps (``closed`` is ``None`` when none closes), built into the
    array only when the per-job arrays are assembled.  ``_delay_total``,
    when known, is ``sum(carried_after * counts)``.
    """

    __slots__ = (
        "kernel",
        "frequency",
        "energy",
        "horizon",
        "state_residency",
        "wake_up_count",
        "_structure",
        "_carried_after",
        "_closures",
        "_delay_total",
        "_mean_response_time",
        "_result",
    )

    def __init__(
        self,
        kernel: TraceKernel,
        frequency: float,
        energy: EnergyBreakdown | None = None,
        horizon: float = 0.0,
        state_residency: dict[str, float] | None = None,
        wake_up_count: int = 0,
        _structure: _FrequencyStructure | None = None,
        _carried_after: np.ndarray | None = None,
        _closures: tuple[float, np.ndarray | None, np.ndarray | None] | None = None,
        _delay_total: float | None = None,
        _result: SimulationResult | None = None,
    ):
        self.kernel = kernel
        self.frequency = frequency
        self.energy = energy
        self.horizon = horizon
        self.state_residency = state_residency
        self.wake_up_count = wake_up_count
        self._structure = _structure
        self._carried_after = _carried_after
        self._closures = _closures
        self._delay_total = _delay_total
        self._mean_response_time: float | None = None
        self._result = _result
        if _result is not None:
            self.energy = _result.energy
            self.horizon = _result.horizon

    @property
    def average_power(self) -> float:
        """Average power over the horizon (identical to the full result's)."""
        if self._result is not None:
            return self._result.average_power
        return self.energy.total / self.horizon

    @property
    def mean_response_time(self) -> float:
        """``E[R]`` from gap aggregates, without per-job arrays.

        Every job after candidate gap ``g`` departs ``carried_after[g]``
        later than in the no-wake system, so the total response time is
        ``sum(departures0 - arrivals) + sum(carried_after * counts)``.  The
        assembled :attr:`result` reports this same number.
        """
        if self._mean_response_time is None:
            if self._structure is None:
                self._mean_response_time = self.result.mean_response_time
            else:
                total = self._structure.response0_total
                if self._delay_total is not None:
                    total += self._delay_total
                elif self._carried_after is not None:
                    total += float(
                        (self._carried_after * self._structure.counts).sum()
                    )
                self._mean_response_time = total / self.kernel.num_jobs
        return self._mean_response_time

    @property
    def normalized_mean_response_time(self) -> float:
        """``mu * E[R]``, identical to the assembled result's."""
        mean_demand = self.kernel._mean_demand
        if self._structure is None or mean_demand <= 0:
            # Zero-job or unnormalisable: the result holds the exact rule.
            return self.result.normalized_mean_response_time
        return self.mean_response_time / mean_demand

    @property
    def result(self) -> SimulationResult:
        """The full simulation result (per-job arrays assembled on demand)."""
        if self._result is None:
            self._result = self._assemble()
        return self._result

    def _carried(self) -> np.ndarray | None:
        """The delay carried out of every candidate gap, as an array."""
        if self._carried_after is None and self._closures is not None:
            wake, closed, residuals = self._closures
            carried_after = np.full(self._structure.idle0.size, wake)
            if closed is not None:
                carried_after[closed] = residuals
            self._carried_after = carried_after
        return self._carried_after

    def _assemble(self) -> SimulationResult:
        kernel = self.kernel
        structure = self._structure
        departures0 = structure.departures0
        gap_indices = structure.gap_indices
        # Per-job departures: the no-wake departure plus the delay introduced
        # at the last candidate gap at or before the job (piecewise constant
        # between gaps).
        departures = departures0
        if gap_indices.size:
            job_offset = np.repeat(self._carried(), structure.counts)
            if gap_indices[0] == 0:
                departures = departures0 + job_offset
            else:
                departures = departures0.copy()
                departures[gap_indices[0] :] += job_offset
        response_times = departures - kernel._arrivals
        waiting_times = response_times - kernel._demands * structure.time_factor
        result = SimulationResult(
            response_times=response_times,
            waiting_times=waiting_times,
            energy=self.energy,
            horizon=self.horizon,
            state_residency=self.state_residency,
            frequency=self.frequency,
            wake_up_count=self.wake_up_count,
            mean_service_demand=kernel._mean_demand,
        )
        # Seed the cached mean so probes and assembled results share one
        # definition of E[R].
        result.__dict__["mean_response_time"] = self.mean_response_time
        return result
