"""Property-based tests for the single-state power floor the search prunes by.

:class:`~repro.simulation.kernel.PowerFloor` bounds the average power of
every ``(frequency, state)`` cell of a sleep-state column from the trace
alone, and the frontier search skips every cell whose floor lies above a
feasible incumbent.  A skipped cell is only safe when its own bound is
sound, so these tests check each cell against the two facts it rests on,
on both simulation backends, both presets, all five low-power states,
utilisation 0.02-0.9 and exponential and lognormal demands:

* every solve's ``average_power`` is at least the floor of its own cell
  (up to the search's pruning margin, 1e-9 relative), both the plain
  floor and the one the search uses: the horizon read at an anchor
  frequency at or below the cell, and the proven waking time ``w * K``
  (``K`` read at the same anchor) added to the busy weight;
* the horizon splits exactly into serving, waking and sleep residency
  (1e-9 relative).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.space import full_space
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.sleep import SleepSequence, SleepStateSpec
from repro.power.states import LOW_POWER_STATES
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import PowerFloor, TraceKernel
from repro.simulation.metrics import STATE_SERVING, STATE_WAKING
from repro.workloads.jobs import JobTrace

_MODELS = {"xeon": xeon_power_model(), "atom": atom_power_model()}
_MEAN_DEMAND = 0.1


def _trace(seed: int, utilization: float, demands: str, num_jobs: int) -> JobTrace:
    rng = np.random.default_rng(seed)
    if demands == "exponential":
        sizes = rng.exponential(_MEAN_DEMAND, num_jobs)
    else:
        sigma = 1.0
        sizes = rng.lognormal(math.log(_MEAN_DEMAND) - sigma**2 / 2, sigma, num_jobs)
    gaps = rng.exponential(_MEAN_DEMAND / utilization, num_jobs)
    return JobTrace.from_interarrivals(gaps, sizes)


def assert_floor_holds(
    model: str,
    state_index: int,
    utilization: float,
    demands: str,
    seed: int,
    backend: str,
    anchor: int,
) -> None:
    power_model = _MODELS[model]
    state = LOW_POWER_STATES[state_index]
    num_jobs = 600 if backend == "vectorized" else 150
    jobs = _trace(seed, utilization, demands, num_jobs)
    frequencies = full_space(power_model).candidate_frequencies(utilization).tolist()
    sequences = [
        power_model.immediate_sleep_sequence(state, frequency)
        for frequency in frequencies
    ]
    sleep_powers = power_model.sleep_powers(state, frequencies)
    assert sleep_powers == [sleep[0].power for sleep in sequences]
    kernel = TraceKernel(jobs, power_model)
    wake = power_model.wake_up_latency(state)
    floors = kernel.power_floor(frequencies)(sleep_powers, wake)
    assert len(floors) == len(frequencies)
    assert all(math.isfinite(floor) for floor in floors)
    first = anchor % len(frequencies)
    waking = wake * kernel.response_floor(frequencies, first).survivors(wake)
    anchored = kernel.power_floor(frequencies, first)(sleep_powers, wake, waking)
    assert anchored[:first] == [-math.inf] * first
    assert all(math.isfinite(floor) for floor in anchored[first:])
    for frequency, sleep, floor, tighter in zip(
        frequencies, sequences, floors, anchored, strict=True
    ):
        if backend == "vectorized":
            result = kernel.solve(frequency, sleep)
        else:
            result = simulate_trace(
                jobs, frequency, sleep, power_model, backend="reference"
            )
        assert result.average_power >= floor * (1.0 - 1e-9)
        assert result.average_power >= tighter * (1.0 - 1e-9)
        residency = result.state_residency
        split = residency[STATE_SERVING] + residency[STATE_WAKING] + residency[state.name]
        assert split == pytest.approx(result.horizon, rel=1e-9)


_CASES = {
    "model": st.sampled_from(sorted(_MODELS)),
    "state_index": st.integers(min_value=0, max_value=len(LOW_POWER_STATES) - 1),
    "utilization": st.floats(min_value=0.02, max_value=0.9),
    "demands": st.sampled_from(["exponential", "lognormal"]),
    "seed": st.integers(min_value=0, max_value=2**20),
    "anchor": st.integers(min_value=0, max_value=63),
}


class TestPowerFloor:
    @given(**_CASES)
    @settings(max_examples=60, deadline=None)
    def test_kernel_solves_stay_above_the_floor(
        self, model, state_index, utilization, demands, seed, anchor
    ):
        assert_floor_holds(
            model, state_index, utilization, demands, seed, "vectorized", anchor
        )

    @given(**_CASES)
    @settings(max_examples=20, deadline=None)
    def test_reference_runs_stay_above_the_floor(
        self, model, state_index, utilization, demands, seed, anchor
    ):
        assert_floor_holds(
            model, state_index, utilization, demands, seed, "reference", anchor
        )


class TestSleepHotterThanActive:
    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=20, deadline=None)
    def test_floor_falls_back_to_the_active_power(self, seed):
        # A pseudo state drawing more than serving: average power is a
        # convex combination of the two, so only the active power bounds it.
        power_model = _MODELS["xeon"]
        jobs = _trace(seed, 0.3, "exponential", 400)
        frequencies = [0.4, 0.7, 1.0]
        hot = SleepSequence(
            [
                SleepStateSpec(
                    state=LOW_POWER_STATES[0],
                    power=2.0 * power_model.peak_power(),
                    entry_delay=0.0,
                    wake_up_latency=0.01,
                )
            ]
        )
        kernel = TraceKernel(jobs, power_model)
        floors = kernel.power_floor(frequencies)([hot[0].power] * 3, 0.01)
        assert floors == [power_model.active_power(f) for f in frequencies]
        for frequency, floor in zip(frequencies, floors, strict=True):
            assert kernel.solve(frequency, hot).average_power >= floor


class TestBusyWeightClamp:
    def test_floor_never_exceeds_the_active_power(self):
        # Average power mixes P_act and P_s, so the busy weight is at most 1.
        # A kernel never needs the clamp (S(f) <= S(f_min) <= D0_last(f_min)
        # - t0), so only a serving time longer than the span shows it.
        floors = PowerFloor(1.0, [10.0, 12.0], [3.0, 0.5])([2.0, 2.0], 0.0)
        assert floors == [10.0, 7.0]


class TestNothingProven:
    """Where the bound's premises fail, the floor is ``-inf``."""

    def test_backlog_carried_in(self):
        power_model = _MODELS["xeon"]
        jobs = JobTrace([1.0, 2.0, 3.0], [0.1, 0.1, 0.1])
        kernel = TraceKernel(jobs, power_model, busy_until=1.5)
        assert kernel.power_floor([1.0, 0.5])([5.0, 4.0], 0.1) == [-math.inf] * 2

    def test_zero_jobs(self):
        kernel = TraceKernel(JobTrace.empty(), _MODELS["xeon"])
        assert kernel.power_floor([1.0, 0.5])([5.0, 4.0], 0.1) == [-math.inf] * 2

    def test_non_finite_cell_floor(self):
        # An infinite active power proves nothing for its own cell only.
        floors = PowerFloor(1.0, [math.inf, 12.0], [0.5, 0.5])([2.0, 2.0], 0.0)
        assert floors == [-math.inf, 7.0]
