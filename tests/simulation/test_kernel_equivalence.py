"""Property-style equivalence suite: the simulation kernel vs the per-job loop.

``simulate_trace`` (one :class:`TraceKernel` evaluation) must reproduce the
test oracle ``reference_simulate_trace`` to floating-point noise — response
times, waiting times, the energy breakdown, state residency, wake-up counts
and the horizon — across randomized traces, frequencies, service scalings,
multi-state sleep sequences, zero-job traces and the
``start_time``/``busy_until`` edge cases, rejected inputs included.  These
tests are the contract that lets the package run the kernel alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.power.platform import xeon_power_model
from repro.power.sleep import SleepSequence, SleepStateSpec
from repro.power.states import LOW_POWER_STATES, C6_S0I
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import (
    LOOP_MAX_RISKY,
    TraceKernel,
    _closures_by_jump_table,
    _closures_by_loop,
)
from repro.simulation.service_scaling import ServiceScaling, memory_bound
from repro.workloads.jobs import JobTrace
from tests.simulation.reference_loop import reference_simulate_trace

RTOL = 1e-9
ATOL = 1e-12


@pytest.fixture(scope="module")
def power_model():
    return xeon_power_model()


def assert_kernel_matches_loop(jobs, frequency, sleep, power_model, **kwargs):
    """Run the kernel and the loop and assert every reported quantity matches."""
    reference = reference_simulate_trace(jobs, frequency, sleep, power_model, **kwargs)
    vectorized = simulate_trace(jobs, frequency, sleep, power_model, **kwargs)
    np.testing.assert_allclose(
        vectorized.response_times, reference.response_times, rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        vectorized.waiting_times, reference.waiting_times, rtol=RTOL, atol=ATOL
    )
    assert vectorized.wake_up_count == reference.wake_up_count
    np.testing.assert_allclose(
        [
            vectorized.energy.serving,
            vectorized.energy.waking,
            vectorized.energy.idle,
            vectorized.horizon,
        ],
        [
            reference.energy.serving,
            reference.energy.waking,
            reference.energy.idle,
            reference.horizon,
        ],
        rtol=RTOL,
        atol=ATOL,
    )
    assert set(vectorized.state_residency) == set(reference.state_residency)
    for state, duration in reference.state_residency.items():
        np.testing.assert_allclose(
            vectorized.state_residency[state], duration, rtol=RTOL, atol=ATOL
        )
    assert vectorized.frequency == reference.frequency
    assert vectorized.mean_service_demand == reference.mean_service_demand
    assert_mean_from_aggregates(jobs, frequency, sleep, power_model, **kwargs)
    return vectorized, reference


def assert_mean_from_aggregates(jobs, frequency, sleep, power_model, **kwargs):
    """The gap-aggregate ``E[R]`` is the assembled result's, to the bit."""
    solution = TraceKernel(jobs, power_model, **kwargs).solve(frequency, sleep)
    mean = solution.mean_response_time
    result = solution.result
    if result.num_jobs == 0:
        assert np.isnan(mean) and np.isnan(result.mean_response_time)
        return
    assert mean == result.mean_response_time
    np.testing.assert_allclose(mean, np.mean(result.response_times), rtol=1e-12)


def random_trace(rng, num_jobs, utilization, mean_service=0.2):
    """A stationary stream at roughly the requested offered load."""
    gaps = rng.exponential(mean_service / utilization, size=num_jobs)
    demands = rng.exponential(mean_service, size=num_jobs)
    return JobTrace(np.cumsum(gaps), demands)


def random_sleep_sequence(rng, wake_scale):
    """A valid 1–3 state sequence with randomized ladders.

    ``wake_scale`` sets the magnitude of the wake-up latencies relative to
    typical idle gaps — large values force gap closures and carried-delay
    chains, the hardest paths of the vectorized resolution.
    """
    num_states = int(rng.integers(1, 4))
    states = list(LOW_POWER_STATES[:num_states])
    first_delay = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
    delays = first_delay + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.05, 1.0, size=num_states - 1))]
    )
    wakes = np.sort(rng.uniform(0.0, wake_scale, size=num_states))
    powers = rng.uniform(1.0, 200.0, size=num_states)
    specs = [
        SleepStateSpec(
            state=state,
            power=float(power),
            entry_delay=float(delay),
            wake_up_latency=float(wake),
        )
        for state, power, delay, wake in zip(states, powers, delays, wakes)
    ]
    return SleepSequence(specs)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("utilization", [0.1, 0.5, 0.9])
    def test_random_traces_and_sequences(self, power_model, seed, utilization):
        rng = np.random.default_rng(1000 * seed + int(utilization * 10))
        jobs = random_trace(rng, num_jobs=400, utilization=utilization)
        scaling = ServiceScaling(beta=float(rng.choice([0.0, 0.5, 1.0])))
        lowest = utilization ** (1.0 / scaling.beta) if scaling.beta else 0.05
        frequency = float(rng.uniform(min(lowest + 0.02, 0.99), 1.0))
        sleep = random_sleep_sequence(rng, wake_scale=float(rng.choice([0.01, 0.3])))
        assert_kernel_matches_loop(
            jobs, frequency, sleep, power_model, scaling=scaling
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_start_time_and_busy_until(self, power_model, seed):
        rng = np.random.default_rng(4242 + seed)
        jobs = random_trace(rng, num_jobs=300, utilization=0.3)
        jobs = jobs.shifted(5.0)
        sleep = random_sleep_sequence(rng, wake_scale=0.2)
        start = float(rng.uniform(0.0, jobs.start_time))
        busy = float(rng.uniform(start, jobs.start_time + 20.0))
        assert_kernel_matches_loop(
            jobs, 0.8, sleep, power_model, start_time=start, busy_until=busy
        )

    @pytest.mark.parametrize(
        "num_jobs, wake, jump_table",
        [
            # Wake-up latencies comparable to the inter-arrival gaps: a few
            # short chains, resolved by the per-gap loop.
            (120, 0.15, False),
            # Wake-up latency far above the inter-arrival gap: nearly every
            # gap is risky, resolved by the reset-chain jump table.
            (1500, 1.0, True),
        ],
    )
    def test_large_wake_latencies_force_gap_closures(
        self, power_model, num_jobs, wake, jump_table
    ):
        # Carried delays swallow whole idle gaps, exercising the risky-gap
        # chains on both sides of the loop/jump-table threshold.
        rng = np.random.default_rng(7)
        jobs = random_trace(rng, num_jobs=num_jobs, utilization=0.6, mean_service=0.1)
        sleep = SleepSequence(
            [
                SleepStateSpec(
                    state=C6_S0I, power=5.0, entry_delay=0.0, wake_up_latency=wake
                )
            ]
        )
        vectorized, reference = assert_kernel_matches_loop(jobs, 1.0, sleep, power_model)
        idle0 = TraceKernel(jobs, power_model)._structure(1.0).idle0
        risky = np.flatnonzero(idle0 < wake)
        risky = risky[risky > 0]
        assert (risky.size > LOOP_MAX_RISKY) is jump_table
        # Both resolution paths close the same gaps with the same residuals.
        closed, residuals = _closures_by_loop(idle0, risky, wake)
        jump_closed, jump_residuals = _closures_by_jump_table(idle0, risky, wake)
        np.testing.assert_array_equal(jump_closed, closed)
        np.testing.assert_allclose(jump_residuals, residuals, rtol=RTOL, atol=ATOL)
        # Prove the scenario actually closes gaps: fewer wake-ups than
        # candidate idle gaps of the no-wake system.
        assert closed.size > 0
        assert vectorized.wake_up_count == reference.wake_up_count
        assert vectorized.wake_up_count == idle0.size - closed.size


class TestHandCraftedEdgeCases:
    def test_arrival_exactly_at_departure(self, power_model):
        # Job 1 arrives exactly as job 0 departs: the kernel and the loop must count
        # the zero-length idle period as a wake-up.
        jobs = JobTrace([0.0, 1.0, 2.0, 8.0], [1.0, 1.0, 0.5, 0.5])
        sleep = power_model.immediate_sleep_sequence(C6_S0I, 1.0)
        vectorized, reference = assert_kernel_matches_loop(jobs, 1.0, sleep, power_model)
        assert vectorized.wake_up_count == reference.wake_up_count >= 2

    def test_single_job(self, power_model):
        jobs = JobTrace([3.0], [0.5])
        sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.6)
        assert_kernel_matches_loop(jobs, 0.6, sleep, power_model, start_time=0.0)

    def test_job_at_time_zero_with_zero_demand(self, power_model):
        jobs = JobTrace([0.0, 0.0], [0.0, 0.0])
        sleep = power_model.immediate_sleep_sequence(C6_S0I, 1.0)
        assert_kernel_matches_loop(jobs, 1.0, sleep, power_model)

    def test_memory_bound_scaling(self, power_model):
        rng = np.random.default_rng(11)
        jobs = random_trace(rng, num_jobs=200, utilization=0.4)
        sleep = random_sleep_sequence(rng, wake_scale=0.1)
        assert_kernel_matches_loop(
            jobs, 0.3, sleep, power_model, scaling=memory_bound()
        )

    def test_periodic_closures_end_exactly_at_the_wake_latency(self, power_model):
        # Zero-demand jobs every 0.05 s under a 2.1 s wake-up: each chain of
        # closures sums to the wake latency up to rounding, so the jump
        # table's survivors sit on the survival boundary.  Their idle time
        # must not round below zero, which the energy breakdown rejects.
        jobs = JobTrace(np.arange(219) * 0.05, np.zeros(219))
        sleep = SleepSequence(
            [
                SleepStateSpec(
                    state=C6_S0I, power=5.0, entry_delay=0.0, wake_up_latency=2.1
                )
            ]
        )
        vectorized, _ = assert_kernel_matches_loop(jobs, 1.0, sleep, power_model)
        assert vectorized.energy.idle >= 0.0

    def test_delayed_entry_never_reached(self, power_model):
        # Entry delay longer than every idle gap: no state is ever entered,
        # no wake-up is ever paid.
        jobs = JobTrace([0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
        sleep = SleepSequence(
            [
                SleepStateSpec(
                    state=C6_S0I, power=5.0, entry_delay=100.0, wake_up_latency=1.0
                )
            ]
        )
        vectorized, _ = assert_kernel_matches_loop(jobs, 1.0, sleep, power_model)
        assert vectorized.wake_up_count == 0

    def test_empty_trace(self, power_model):
        sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
        result, _ = assert_kernel_matches_loop(JobTrace.empty(), 0.7, sleep, power_model)
        assert result.num_jobs == 0
        assert result.total_energy == 0.0
        assert result.wake_up_count == 0
        assert np.isnan(result.mean_response_time)
        assert result.state_residency[sleep[0].name] == 0.0

    @pytest.mark.parametrize(
        "window",
        [
            {"start_time": 0.0, "busy_until": 5.0},
            {"start_time": 2.0},
            {"busy_until": 3.0},
        ],
    )
    def test_empty_trace_with_window(self, power_model, window):
        sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
        result, reference = assert_kernel_matches_loop(
            JobTrace.empty(), 0.7, sleep, power_model, **window
        )
        assert result.horizon == reference.horizon
        assert result.average_power == reference.average_power == 0.0
        if "busy_until" in window:
            start = window.get("start_time", 0.0)
            assert result.horizon == pytest.approx(window["busy_until"] - start)

    @pytest.mark.parametrize(
        "jobs, frequency, window",
        [
            (JobTrace([1.0, 2.0], [0.5, 0.5]), 0.7, {"start_time": 1.5}),
            (
                JobTrace([1.0, 2.0], [0.5, 0.5]),
                0.7,
                {"start_time": 0.5, "busy_until": 0.2},
            ),
            (JobTrace.empty(), 0.7, {"start_time": 4.0, "busy_until": 1.0}),
            (JobTrace([1.0, 2.0], [0.5, 0.5]), 0.0, {}),
            (JobTrace([1.0, 2.0], [0.5, 0.5]), 1.2, {}),
            (JobTrace.empty(), 1.2, {}),
        ],
    )
    def test_rejected_inputs_are_rejected_alike(
        self, power_model, jobs, frequency, window
    ):
        sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
        messages = []
        for simulate in (simulate_trace, reference_simulate_trace):
            with pytest.raises(ConfigurationError) as error:
                simulate(jobs, frequency, sleep, power_model, **window)
            messages.append(str(error.value))
        assert messages[0] == messages[1]


class TestTraceKernelReuse:
    def test_repeated_evaluation_is_stable(self, power_model):
        rng = np.random.default_rng(3)
        jobs = random_trace(rng, num_jobs=300, utilization=0.3)
        sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
        kernel = TraceKernel(jobs, power_model)
        first = kernel.evaluate(0.7, sleep)
        second = kernel.evaluate(0.7, sleep)
        np.testing.assert_array_equal(first.response_times, second.response_times)
        assert first.energy.idle == second.energy.idle

    def test_cached_structure_matches_fresh_kernel(self, power_model):
        rng = np.random.default_rng(5)
        jobs = random_trace(rng, num_jobs=300, utilization=0.3)
        shallow = power_model.immediate_sleep_sequence(LOW_POWER_STATES[0], 0.7)
        deep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
        warm = TraceKernel(jobs, power_model)
        warm.evaluate(0.7, shallow)  # populates the frequency cache
        cached = warm.evaluate(0.7, deep)
        fresh = TraceKernel(jobs, power_model).evaluate(0.7, deep)
        np.testing.assert_array_equal(cached.response_times, fresh.response_times)
        assert cached.energy.total == fresh.energy.total
        assert cached.wake_up_count == fresh.wake_up_count
