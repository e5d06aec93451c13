"""Property-based tests for the single-state gap aggregates of the kernel.

Under one immediately entered sleep state, :meth:`TraceKernel.solve` derives
its scalar aggregates (idle and waking residency, idle energy, wake-ups,
horizon, mean response time) from per-frequency totals plus one correction
per closed gap, and only the jump-table regime sums per-gap arrays.  These
tests recompute every aggregate with a direct walk over all candidate gaps
(``rtol = 1e-12`` of the summed terms' magnitude: totals that nearly cancel
are exact only to that) and run the per-job test oracle
(``reference_simulate_trace``, ``rtol = 1e-9``), on both sides of
:data:`LOOP_MAX_RISKY`.

A job that arrives exactly when the previous one departs is a knife edge:
an idle gap of zero length (a wake-up, then ``w`` of delay) and no gap at
all (no wake-up, no delay) differ by a whole wake-up, and the kernel and
the oracle round departures differently, so they may take different sides.
The oracle comparison therefore covers the cases whose every arrival clears
the previous departure by more than rounding; the direct walk, which decides
each gap by the kernel's own comparison, covers all of them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.power.platform import xeon_power_model
from repro.power.sleep import SleepSequence, SleepStateSpec
from repro.power.states import C6_S0I
from repro.simulation.kernel import LOOP_MAX_RISKY, TraceKernel
from repro.simulation.metrics import STATE_WAKING
from repro.workloads.jobs import JobTrace
from tests.simulation.reference_loop import reference_simulate_trace

_XEON = xeon_power_model()
_POWER = 9.0


def _sleep(wake: float) -> SleepSequence:
    return SleepSequence(
        [
            SleepStateSpec(
                state=C6_S0I, power=_POWER, entry_delay=0.0, wake_up_latency=wake
            )
        ]
    )


def _direct(idle0: np.ndarray, counts: np.ndarray, wake: float) -> dict[str, float]:
    """Every aggregate from one walk over all gaps (gap 0 enters undelayed)."""
    idle_time = waking = delay = 0.0
    wake_ups = 0
    carried = 0.0
    pairs = zip(idle0.tolist(), counts.tolist(), strict=True)
    for gap, (idle, count) in enumerate(pairs):
        remaining = idle - (carried if gap else 0.0)
        if remaining >= 0.0:
            idle_time += remaining
            waking += wake
            wake_ups += 1
            carried = wake
        else:
            carried = -remaining
        delay += carried * count
    return {
        "idle": idle_time,
        "waking": waking,
        "delay": delay,
        "wake_ups": wake_ups,
        "last_carried": carried,
    }


def _close(actual: float, expected: float, magnitude: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * max(abs(expected), magnitude, 1e-300)


def assert_aggregates_match(
    jobs: JobTrace,
    wake: float,
    frequency: float = 1.0,
    busy_until: float | None = None,
) -> None:
    kernel = TraceKernel(jobs, _XEON, busy_until=busy_until)
    solution = kernel.solve(frequency, _sleep(wake))
    structure = kernel._structure(frequency)
    idle0, counts = structure.idle0, structure.counts
    expected = _direct(idle0, counts, wake)
    idle_scale = float(np.abs(idle0).sum()) + wake * idle0.size
    delay_scale = wake * float(counts.sum())
    residency = solution.state_residency

    assert solution.wake_up_count == expected["wake_ups"]
    assert _close(residency[C6_S0I.name], expected["idle"], idle_scale, 1e-12)
    assert _close(
        solution.energy.idle, _POWER * expected["idle"], _POWER * idle_scale, 1e-12
    )
    waking = expected["waking"]
    assert _close(residency[STATE_WAKING], waking, waking, 1e-12)
    total_response = structure.response0_total + expected["delay"]
    assert _close(
        solution.mean_response_time * len(jobs),
        total_response,
        structure.response0_total + delay_scale,
        1e-12,
    )
    last = structure.last_departure0 + (expected["last_carried"] if idle0.size else 0.0)
    assert solution.horizon == pytest.approx(
        last - kernel._clock_start, rel=1e-12, abs=1e-12
    )

    # The lazily assembled per-job arrays agree with the aggregates.
    result = solution.result
    assert _close(
        float(result.response_times.sum()),
        total_response,
        structure.response0_total + delay_scale,
        1e-12,
    )
    assert result.wake_up_count == expected["wake_ups"]
    arrivals = jobs.arrival_times
    departures = arrivals + result.response_times
    edges = arrivals[1:] - departures[:-1]
    if busy_until is not None:
        edges = np.append(edges, arrivals[0] - busy_until)
    if np.any(np.abs(edges) <= 1e-9 * max(1.0, float(departures[-1]))):
        return  # a knife edge: see the module docstring

    # And with the per-job test oracle.
    reference = reference_simulate_trace(
        jobs, frequency, _sleep(wake), _XEON, busy_until=busy_until
    )
    assert reference.wake_up_count == solution.wake_up_count
    np.testing.assert_allclose(
        result.response_times, reference.response_times, rtol=1e-9, atol=1e-12
    )
    assert _close(result.energy.idle, reference.energy.idle, _POWER * idle_scale, 1e-9)
    reference_waking = reference.energy.waking
    assert _close(result.energy.waking, reference_waking, reference_waking, 1e-9)
    assert result.horizon == pytest.approx(reference.horizon, rel=1e-9)


@st.composite
def small_traces(draw) -> JobTrace:
    count = draw(st.integers(min_value=1, max_value=40))
    # A coarse gap alphabet makes ties, zero gaps and equal idle gaps common.
    gap = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(min_value=0.0, max_value=3.0)
    )
    gaps = draw(st.lists(gap, min_size=count, max_size=count))
    demands = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=count, max_size=count
        )
    )
    return JobTrace.from_interarrivals(gaps, demands)


def _idle0(jobs: JobTrace, busy_until: float | None = None) -> np.ndarray:
    return TraceKernel(jobs, _XEON, busy_until=busy_until)._structure(1.0).idle0


class TestSmallTraces:
    @given(jobs=small_traces(), wake=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=150, deadline=None)
    def test_random_wake(self, jobs, wake):
        assert_aggregates_match(jobs, wake)

    @given(jobs=small_traces(), which=st.integers(min_value=0, max_value=39))
    @settings(max_examples=100, deadline=None)
    def test_wake_equal_to_an_idle_gap(self, jobs, which):
        # ``w`` equal to some idle gap, including min(idle0[1:]) exactly:
        # a gap of exactly ``w`` survives with zero idle time.
        idle0 = _idle0(jobs)
        rest = np.sort(idle0[1:])
        if rest.size:
            assert_aggregates_match(jobs, float(rest[which % rest.size]))
            assert_aggregates_match(jobs, float(rest[0]))

    @given(jobs=small_traces())
    @settings(max_examples=50, deadline=None)
    def test_zero_wake(self, jobs):
        assert_aggregates_match(jobs, 0.0)

    @given(
        jobs=small_traces(),
        backlog=st.floats(min_value=0.0, max_value=5.0),
        wake=st.floats(min_value=0.0, max_value=1.5),
    )
    # A knife edge Hypothesis found: job 4 arrives as job 3 departs, and the
    # per-job oracle counts 3 wake-ups where the kernel counts 2.
    # Only the direct walk checks it.
    @example(
        jobs=JobTrace(
            [0.0, 0.0, 0.0, 1.0, 1.3838596614023964],
            [0.5, 0.38385966140239636, 0.0353915731826374, 0.38385966140239636, 1.0],
        ),
        backlog=0.0,
        wake=0.0,
    )
    @settings(max_examples=80, deadline=None)
    def test_busy_until_backlog(self, jobs, backlog, wake):
        assert_aggregates_match(
            jobs, wake, busy_until=float(jobs.arrival_times[0]) + backlog
        )

    @given(frequency=st.floats(min_value=0.2, max_value=1.0), jobs=small_traces())
    @settings(max_examples=50, deadline=None)
    def test_scaled_frequency(self, frequency, jobs):
        assert_aggregates_match(jobs, 0.3, frequency=frequency)


class TestEdgeTraces:
    def test_one_job(self):
        jobs = JobTrace([2.0], [0.5])
        for wake in (0.0, 0.1, 5.0):
            assert_aggregates_match(jobs, wake)
            assert_aggregates_match(jobs, wake, busy_until=2.5)

    def test_one_gap(self):
        # Back-to-back jobs: only gap 0 is a candidate gap.
        jobs = JobTrace([0.0, 0.1, 0.2], [0.5, 0.5, 0.5])
        assert _idle0(jobs).size == 1
        for wake in (0.0, 0.2, 3.0):
            assert_aggregates_match(jobs, wake)

    def test_backlog_swallows_every_gap(self):
        jobs = JobTrace([0.0, 1.0, 2.0], [0.1, 0.1, 0.1])
        assert _idle0(jobs, busy_until=10.0).size == 0
        assert_aggregates_match(jobs, 0.5, busy_until=10.0)

    def test_equal_gaps_at_exactly_the_wake_latency(self):
        # Every gap survives with zero idle: the totals cancel completely.
        jobs = JobTrace.from_interarrivals([0.0] + [1.0] * 30, [0.4] * 31)
        wake = float(_idle0(jobs)[1:].min())
        assert_aggregates_match(jobs, wake)
        assert_aggregates_match(jobs, wake * 0.999)
        assert_aggregates_match(jobs, wake * 1.001)


def _long_trace(seed: int, num_jobs: int = 600) -> JobTrace:
    rng = np.random.default_rng(seed)
    return JobTrace.from_interarrivals(
        rng.exponential(0.1 / 0.3, num_jobs), rng.exponential(0.1, num_jobs)
    )


class TestBothSidesOfLoopMaxRisky:
    @pytest.mark.parametrize(
        "risky", [1, LOOP_MAX_RISKY // 2, LOOP_MAX_RISKY, LOOP_MAX_RISKY + 1, 260]
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_wake_above_the_kth_idle_gap(self, risky, seed):
        jobs = _long_trace(seed)
        rest = np.sort(_idle0(jobs)[1:])
        # Midway between the k-th and the next shortest gap: exactly
        # ``risky`` risky gaps, so the loop or the jump table resolves them,
        # and no gap sits on the survival knife edge.
        wake = float(rest[risky - 1] + rest[risky]) / 2.0
        assert np.count_nonzero(rest < wake) == risky
        assert_aggregates_match(jobs, wake)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_backlog_on_a_long_trace(self, seed):
        jobs = _long_trace(seed)
        busy_until = float(jobs.arrival_times[0]) + 3.0
        assert_aggregates_match(jobs, 0.05, busy_until=busy_until)
        assert_aggregates_match(jobs, 2.0, busy_until=busy_until)
