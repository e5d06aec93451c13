"""Property-based tests for the single-state response floor the search skips by.

:class:`~repro.simulation.kernel.ResponseFloor` bounds ``mu * E[R]`` of
every ``(frequency, state)`` cell of a sleep-state column from the trace
alone, and under a mean-response budget the frontier search skips a column
whose floor is above the budget without probing it.  A skipped column is
only safe when the bound is sound, so these tests check it directly:

* every solve's ``normalized_mean_response_time`` is at least the floor of
  its column and the floor of its own cell, ``(k(f) * R0(f_max) + w * K) /
  (n * mean_demand)`` with ``K`` read at any anchor frequency at or below
  it (up to the search's margin, 1e-9 relative), on both simulation
  backends, both presets, all five low-power states and the DVFS-only
  pseudo state, utilisation 0.02-0.95, exponential and lognormal demands
  and three service scalings;
* with a carried-in backlog the per-cell floors keep ``k = 1``;
* with no wake-up latency the floor is the top frequency's no-wake
  response itself;
* the survivor count ``K`` never exceeds the gaps that survive, on
  hand-built gap sequences and on any sequence that dominates them (more
  gaps, each idling at least as long), which is what a faster frequency
  produces.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.policy import dvfs_only_sequence
from repro.policies.space import full_space
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import LOW_POWER_STATES
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import ResponseFloor, TraceKernel, _closures_by_loop
from repro.simulation.service_scaling import ServiceScaling
from repro.workloads.jobs import JobTrace

_MODELS = {"xeon": xeon_power_model(), "atom": atom_power_model()}
_MEAN_DEMAND = 0.1
#: ``len(LOW_POWER_STATES)`` stands for the DVFS-only pseudo state.
_DVFS_ONLY = len(LOW_POWER_STATES)


def _trace(seed: int, utilization: float, demands: str, num_jobs: int) -> JobTrace:
    rng = np.random.default_rng(seed)
    if demands == "exponential":
        sizes = rng.exponential(_MEAN_DEMAND, num_jobs)
    else:
        sigma = 1.0
        sizes = rng.lognormal(math.log(_MEAN_DEMAND) - sigma**2 / 2, sigma, num_jobs)
    gaps = rng.exponential(_MEAN_DEMAND / utilization, num_jobs)
    return JobTrace.from_interarrivals(gaps, sizes)


def _column(power_model, state_index: int, frequencies: list[float]):
    """``(wake-up latency, sequence per frequency)`` of one grid column."""
    if state_index == _DVFS_ONLY:
        return 0.0, [dvfs_only_sequence(power_model, f) for f in frequencies]
    state = LOW_POWER_STATES[state_index]
    return power_model.wake_up_latency(state), [
        power_model.immediate_sleep_sequence(state, f) for f in frequencies
    ]


def assert_floor_holds(
    model: str,
    state_index: int,
    utilization: float,
    demands: str,
    beta: float,
    seed: int,
    backend: str,
    anchor: int,
) -> None:
    power_model = _MODELS[model]
    scaling = ServiceScaling(beta)
    num_jobs = 600 if backend == "vectorized" else 150
    jobs = _trace(seed, utilization, demands, num_jobs)
    frequencies = full_space(power_model).candidate_frequencies(utilization).tolist()
    wake, sequences = _column(power_model, state_index, frequencies)
    kernel = TraceKernel(jobs, power_model, scaling=scaling)
    floors = kernel.response_floor(frequencies).cells(wake)
    # The anchor of K: any frequency of the axis, as the search's first
    # frequency that can meet a budget without wake-ups.
    first = anchor % len(frequencies)
    anchored = kernel.response_floor(frequencies, first).cells(wake)
    assert all(math.isfinite(floor) for floor in floors + anchored)
    for index, (frequency, sleep) in enumerate(zip(frequencies, sequences, strict=True)):
        if backend == "vectorized":
            response = kernel.solve(frequency, sleep).normalized_mean_response_time
        else:
            response = simulate_trace(
                jobs, frequency, sleep, power_model, scaling=scaling,
                backend="reference",
            ).normalized_mean_response_time
        assert response >= floors[index] * (1.0 - 1e-9)
        assert response >= anchored[index] * (1.0 - 1e-9)
    if wake == 0.0:
        top = kernel.solve(frequencies[-1], sequences[-1])
        assert floors[-1] == pytest.approx(
            top.normalized_mean_response_time, rel=1e-12
        )


_CASES = {
    "model": st.sampled_from(sorted(_MODELS)),
    "state_index": st.integers(min_value=0, max_value=_DVFS_ONLY),
    "utilization": st.floats(min_value=0.02, max_value=0.95),
    "demands": st.sampled_from(["exponential", "lognormal"]),
    "beta": st.sampled_from([1.0, 0.5, 0.0]),
    "seed": st.integers(min_value=0, max_value=2**20),
    "anchor": st.integers(min_value=0, max_value=63),
}


class TestResponseFloor:
    @given(**_CASES)
    @settings(max_examples=60, deadline=None)
    def test_kernel_solves_stay_above_the_floor(
        self, model, state_index, utilization, demands, beta, seed, anchor
    ):
        assert_floor_holds(
            model, state_index, utilization, demands, beta, seed, "vectorized", anchor
        )

    @given(**_CASES)
    @settings(max_examples=20, deadline=None)
    def test_reference_runs_stay_above_the_floor(
        self, model, state_index, utilization, demands, beta, seed, anchor
    ):
        assert_floor_holds(
            model, state_index, utilization, demands, beta, seed, "reference", anchor
        )

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=20, deadline=None)
    def test_backlog_carried_in_keeps_the_floor(self, seed):
        # A carried-in backlog shifts every no-wake departure, at every
        # speed alike, so the bound's facts still hold.
        power_model = _MODELS["xeon"]
        jobs = _trace(seed, 0.5, "exponential", 400)
        frequencies = [0.6, 0.8, 1.0]
        kernel = TraceKernel(
            jobs, power_model, busy_until=float(jobs.arrival_times[0]) + 1.0
        )
        # The backlog's own wait does not scale with speed, so no cell's
        # floor scales R0(f_max) up: every cell keeps k = 1.
        no_wake = kernel.response_floor(frequencies, first=None).cells(0.0)
        assert no_wake == [no_wake[-1]] * 3
        for state_index in range(_DVFS_ONLY + 1):
            wake, sequences = _column(power_model, state_index, frequencies)
            for first in range(len(frequencies)):
                floors = kernel.response_floor(frequencies, first).cells(wake)
                for frequency, sleep, floor in zip(
                    frequencies, sequences, floors, strict=True
                ):
                    solution = kernel.solve(frequency, sleep)
                    response = solution.normalized_mean_response_time
                    assert response >= floor * (1 - 1e-9)

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=20, deadline=None)
    def test_scaled_floor_is_tight_without_queueing(self, seed):
        # Jobs that never wait respond in exactly k(f) times their top-speed
        # time, so the DVFS-only floor of every cell is its response.
        power_model = _MODELS["xeon"]
        rng = np.random.default_rng(seed)
        sizes = rng.uniform(0.001, 0.01, 200)
        jobs = JobTrace.from_interarrivals(np.full(200, 0.1), sizes)
        frequencies = [0.4, 0.7, 1.0]
        kernel = TraceKernel(jobs, power_model)
        cells = kernel.response_floor(frequencies).cells(0.0)
        for frequency, cell in zip(frequencies, cells, strict=True):
            response = kernel.solve(
                frequency, dvfs_only_sequence(power_model, frequency)
            ).normalized_mean_response_time
            assert cell == pytest.approx(response, rel=1e-9)
            assert response >= cell * (1 - 1e-9)

    def test_zero_jobs_prove_nothing(self):
        kernel = TraceKernel(JobTrace.empty(), _MODELS["xeon"])
        assert kernel.response_floor([0.5, 1.0]).cells(1.0) == [-math.inf] * 2


def _survivors(idle0: list[float], wake: float) -> int:
    """Surviving gaps of one single-state solve, as the kernel counts them."""
    idle = np.asarray(idle0, dtype=float)
    risky = np.flatnonzero(idle[1:] < wake) + 1
    closed, _ = _closures_by_loop(idle, risky, wake)
    return idle.size - closed.size


def _bound(idle0: list[float], wake: float) -> int:
    return ResponseFloor(0.0, np.sort(np.asarray(idle0)), 1, 1.0).survivors(wake)


class TestSurvivorBound:
    @pytest.mark.parametrize(
        ("idle0", "wake", "survivors", "bound"),
        [
            # One chain: three 0.3 s gaps close behind gap 0 (0.9 < 1).
            ([0.0, 0.3, 0.3, 0.3], 1.0, 1, 1),
            # Alternating closures: 1 - 0.6 closes, 0.4 - 0.6 survives.
            ([0.0, 0.6, 0.6, 0.6, 0.6], 1.0, 3, 2),
            # Every gap outlasts the wake-up: nothing closes.
            ([0.0, 2.0, 3.0, 5.0], 1.0, 4, 2),
            # A short last gap closes behind its survivor.
            ([0.0, 2.0, 3.0, 5.0, 0.5], 1.0, 4, 2),
            # No gap idles at all: K = 0 proves nothing beyond R0.
            ([0.0, 0.0, 0.0], 1.0, 1, 0),
            # No wake-up latency: every gap survives, K = 0.
            ([0.0, 0.2, 0.4], 0.0, 3, 0),
            # A subnormal idle time: Phi / (2w) underflows to 0, yet K = 1.
            ([5e-324], 1.0, 1, 1),
        ],
    )
    def test_hand_built_gaps(self, idle0, wake, survivors, bound):
        assert _survivors(idle0, wake) == survivors
        assert _bound(idle0, wake) == bound

    @given(
        idle0=st.lists(
            st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=60
        ),
        wake=st.floats(min_value=1e-6, max_value=2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_definition(self, idle0, wake):
        # K is the least k whose k largest min(idle0, w), plus k * w, reach
        # Phi; the kernel takes it with a 1e-9 * Phi margin.
        capped = sorted(min(idle, wake) for idle in idle0)
        phi = sum(capped)

        def least(margin):
            return next(
                k
                for k in range(len(capped) + 1)
                if sum(capped[: len(capped) - k]) <= k * wake + margin * phi
            )

        assert least(2e-9) <= _bound(idle0, wake) <= least(0.0)

    @given(
        idle0=st.lists(
            st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=40
        ),
        wake=st.floats(min_value=1e-3, max_value=2.0),
        extra=st.lists(st.floats(min_value=0.0, max_value=3.0), max_size=10),
        stretch=st.floats(min_value=0.0, max_value=1.0),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_holds_on_any_dominating_sequence(
        self, idle0, wake, extra, stretch, data
    ):
        # A faster frequency keeps every gap of the slower one, each idling
        # at least as long, and may open new gaps between them.
        faster = [idle + stretch * idle for idle in idle0]
        for idle in extra:
            position = data.draw(st.integers(min_value=1, max_value=len(faster)))
            faster.insert(position, idle)
        bound = _bound(idle0, wake)
        assert bound <= _survivors(idle0, wake)
        assert bound <= _survivors(faster, wake)
