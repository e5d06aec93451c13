"""The per-job simulation loop: the readable oracle of Algorithm 1.

:class:`~repro.simulation.kernel.TraceKernel` is the package's one
simulator.  This module keeps the original per-job Python loop it replaced,
for the tests alone: ``tests/simulation/test_kernel_equivalence.py`` and the
floor properties under ``tests/property/`` pin the kernel against it
(``rtol <= 1e-9``) for every trace, frequency, sleep sequence and power
model, and ``benchmarks/test_bench_simulator_performance.py`` times it next
to the kernel.  It walks the jobs in arrival order: a job that finds the
server idle walks the sleep ladder over the idle gap, charges each segment's
idle energy, pays the wake-up of the deepest state reached, and queues
behind nothing; a job that finds it busy queues behind the previous
departure.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.power.platform import ServerPowerModel
from repro.power.sleep import SleepSequence
from repro.simulation.kernel import validate_frequency, zero_job_result
from repro.simulation.metrics import (
    STATE_PRE_SLEEP,
    STATE_SERVING,
    STATE_WAKING,
    EnergyBreakdown,
    SimulationResult,
)
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.workloads.jobs import JobTrace


def reference_simulate_trace(
    jobs: JobTrace,
    frequency: float,
    sleep: SleepSequence,
    power_model: ServerPowerModel,
    scaling: ServiceScaling | None = None,
    start_time: float | None = None,
    busy_until: float | None = None,
) -> SimulationResult:
    """Simulate one policy against *jobs*, one job at a time.

    Takes the arguments of :func:`repro.simulation.engine.simulate_trace`
    and returns the result the kernel must reproduce.
    """
    frequency = validate_frequency(frequency)
    scaling = scaling or cpu_bound()

    if len(jobs) == 0:
        clock_start = 0.0 if start_time is None else float(start_time)
        if busy_until is not None and busy_until < clock_start:
            raise ConfigurationError(
                "busy_until must not be earlier than the observation start"
            )
        return zero_job_result(frequency, sleep, clock_start, busy_until)

    time_factor = scaling.time_factor(frequency)

    active_power = power_model.active_power(frequency)
    pre_sleep_power = power_model.idle_power(frequency)

    # Pre-extract the sleep sequence into flat tuples for the hot loop.
    entry_delays = tuple(spec.entry_delay for spec in sleep)
    sleep_powers = tuple(spec.power for spec in sleep)
    wake_latencies = tuple(spec.wake_up_latency for spec in sleep)
    state_names = tuple(spec.name for spec in sleep)
    num_states = len(entry_delays)

    arrivals = jobs.arrival_times
    demands = jobs.service_demands
    num_jobs = len(jobs)

    response_times = np.empty(num_jobs)
    waiting_times = np.empty(num_jobs)

    serving_energy = 0.0
    waking_energy = 0.0
    idle_energy = 0.0
    residency: dict[str, float] = {STATE_SERVING: 0.0, STATE_WAKING: 0.0, STATE_PRE_SLEEP: 0.0}
    for name in state_names:
        residency.setdefault(name, 0.0)
    wake_up_count = 0

    clock_start = float(arrivals[0]) if start_time is None else float(start_time)
    if clock_start > arrivals[0]:
        raise ConfigurationError(
            "start_time must not be later than the first arrival"
        )
    previous_departure = clock_start
    if busy_until is not None:
        if busy_until < clock_start:
            raise ConfigurationError(
                "busy_until must not be earlier than the observation start"
            )
        previous_departure = float(busy_until)

    for index in range(num_jobs):
        arrival = float(arrivals[index])
        service = float(demands[index]) * time_factor

        if arrival >= previous_departure:
            # The server idled between the previous departure and this
            # arrival: walk the sleep sequence, charge idle energy per
            # segment, then pay the wake-up of whatever state was reached.
            idle = arrival - previous_departure
            # Segment before the first transition (operating idle at f).
            boundary = entry_delays[0] if entry_delays[0] < idle else idle
            if boundary > 0.0:
                idle_energy += pre_sleep_power * boundary
                residency[STATE_PRE_SLEEP] += boundary
            reached = -1
            for state_index in range(num_states):
                start = entry_delays[state_index]
                if idle < start:
                    break
                reached = state_index
                if state_index + 1 < num_states:
                    end = entry_delays[state_index + 1]
                    segment_end = end if end < idle else idle
                else:
                    segment_end = idle
                segment = segment_end - start
                idle_energy += sleep_powers[state_index] * segment
                residency[state_names[state_index]] += segment
            if reached >= 0:
                wake_latency = wake_latencies[reached]
                wake_up_count += 1
            else:
                wake_latency = 0.0
            if wake_latency > 0.0:
                waking_energy += active_power * wake_latency
                residency[STATE_WAKING] += wake_latency
            start_service = arrival + wake_latency
        else:
            # The server is still busy; the job queues behind earlier work.
            start_service = previous_departure

        departure = start_service + service
        serving_energy += active_power * service
        residency[STATE_SERVING] += service
        response_times[index] = departure - arrival
        waiting_times[index] = start_service - arrival
        previous_departure = departure

    horizon = previous_departure - clock_start
    if horizon <= 0.0:
        # Degenerate single-instant trace; fall back to the total service time
        # so power is still well defined.
        horizon = max(float(np.sum(demands)) * time_factor, 1e-12)

    energy = EnergyBreakdown(
        serving=serving_energy, waking=waking_energy, idle=idle_energy
    )
    return SimulationResult(
        response_times=response_times,
        waiting_times=waiting_times,
        energy=energy,
        horizon=horizon,
        state_residency=residency,
        frequency=frequency,
        wake_up_count=wake_up_count,
        mean_service_demand=jobs.mean_service_demand,
    )
