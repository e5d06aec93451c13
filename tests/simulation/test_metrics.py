"""Tests for simulation result metrics and aggregation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.metrics import (
    STATE_SERVING,
    EnergyBreakdown,
    SimulationResult,
    linear_percentiles,
    merge_results,
)

#: The one percentile contract: (percentile, response times, expected);
#: an exception class means the call must raise it.
PERCENTILE_CONTRACT = [
    (0.0, (1.0, 3.0, 2.0), ConfigurationError),
    (-5.0, (1.0, 3.0, 2.0), ConfigurationError),
    (101.0, (1.0, 3.0, 2.0), ConfigurationError),
    (100.0, (1.0, 3.0, 2.0), 3.0),
    (95.0, (), math.nan),
]


def make_result(
    response=(1.0, 2.0, 3.0),
    waiting=(0.0, 0.5, 1.0),
    serving=100.0,
    waking=10.0,
    idle=20.0,
    horizon=10.0,
    frequency=0.8,
    mean_demand=1.0,
    residency=None,
    wake_count=1,
) -> SimulationResult:
    return SimulationResult(
        response_times=np.array(response, dtype=float),
        waiting_times=np.array(waiting, dtype=float),
        energy=EnergyBreakdown(serving=serving, waking=waking, idle=idle),
        horizon=horizon,
        state_residency=residency or {STATE_SERVING: 5.0, "C6S3": 3.0},
        frequency=frequency,
        wake_up_count=wake_count,
        mean_service_demand=mean_demand,
    )


class TestEnergyBreakdown:
    def test_total(self):
        assert EnergyBreakdown(1.0, 2.0, 3.0).total == 6.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            EnergyBreakdown(-1.0, 0.0, 0.0)


class TestSimulationResultMetrics:
    def test_mean_response_time(self):
        assert make_result().mean_response_time == pytest.approx(2.0)

    def test_mean_waiting_time(self):
        assert make_result().mean_waiting_time == pytest.approx(0.5)

    def test_normalized_response_time(self):
        result = make_result(mean_demand=0.5)
        assert result.normalized_mean_response_time == pytest.approx(4.0)

    def test_normalized_requires_mean_demand(self):
        result = make_result(mean_demand=0.0)
        with pytest.raises(ConfigurationError):
            result.normalized_mean_response_time

    def test_percentile(self):
        response = tuple(np.arange(1, 101, dtype=float))
        result = make_result(response=response, waiting=tuple(np.zeros(100)))
        assert result.response_time_percentile(95.0) == pytest.approx(95.05, rel=0.01)

    def test_percentile_validation(self):
        with pytest.raises(ConfigurationError):
            make_result().response_time_percentile(0.0)

    @pytest.mark.parametrize("percentile, responses, expected", PERCENTILE_CONTRACT)
    def test_percentile_contract(self, percentile, responses, expected):
        result = make_result(response=responses, waiting=(0.0,) * len(responses))
        if expected is ConfigurationError:
            with pytest.raises(ConfigurationError, match=r"\(0, 100\]"):
                result.response_time_percentile(percentile)
        elif math.isnan(expected):
            assert math.isnan(result.response_time_percentile(percentile))
        else:
            assert result.response_time_percentile(percentile) == expected

    def test_exceedance_probability(self):
        result = make_result(response=(1.0, 2.0, 3.0, 4.0), waiting=(0, 0, 0, 0))
        assert result.exceedance_probability(2.5) == pytest.approx(0.5)
        assert result.exceedance_probability(0.0) == 1.0

    def test_exceedance_rejects_negative_deadline(self):
        with pytest.raises(ConfigurationError):
            make_result().exceedance_probability(-1.0)

    def test_average_power(self):
        assert make_result().average_power == pytest.approx(130.0 / 10.0)

    def test_energy_per_job(self):
        assert make_result().energy_per_job == pytest.approx(130.0 / 3.0)

    def test_wake_up_fraction(self):
        assert make_result(wake_count=2).wake_up_fraction == pytest.approx(2.0 / 3.0)

    def test_residency_fraction(self):
        result = make_result()
        assert result.residency_fraction(STATE_SERVING) == pytest.approx(0.5)
        assert result.residency_fraction("C6S3") == pytest.approx(0.3)
        assert result.residency_fraction("unknown") == 0.0

    def test_summary_contains_headline_metrics(self):
        summary = make_result().summary()
        assert "average_power_w" in summary
        assert "normalized_mean_response_time" in summary
        assert summary["num_jobs"] == 3.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_result(horizon=0.0)
        with pytest.raises(ConfigurationError):
            SimulationResult(
                response_times=np.array([1.0, 2.0]),
                waiting_times=np.array([0.0]),
                energy=EnergyBreakdown(0, 0, 0),
                horizon=1.0,
            )


class TestZeroJobResult:
    """A result may contain zero jobs (an epoch with no arrivals)."""

    @pytest.fixture()
    def empty_result(self) -> SimulationResult:
        return SimulationResult(
            response_times=np.empty(0),
            waiting_times=np.empty(0),
            energy=EnergyBreakdown(0.0, 0.0, 0.0),
            horizon=1.0,
        )

    def test_zero_jobs_allowed(self, empty_result):
        assert empty_result.num_jobs == 0

    def test_per_job_statistics_are_nan(self, empty_result):
        assert np.isnan(empty_result.mean_response_time)
        assert np.isnan(empty_result.mean_waiting_time)
        assert np.isnan(empty_result.response_time_percentile(95.0))
        assert np.isnan(empty_result.exceedance_probability(1.0))
        assert np.isnan(empty_result.energy_per_job)
        assert np.isnan(empty_result.wake_up_fraction)

    def test_rates_are_well_defined(self, empty_result):
        assert empty_result.average_power == 0.0
        assert empty_result.residency_fraction("C6S3") == 0.0

    def test_merge_with_empty_is_identity(self, empty_result):
        merged = merge_results([make_result(), empty_result])
        assert merged.num_jobs == 3
        assert merged.horizon == pytest.approx(11.0)


class TestMergeResults:
    def test_merge_concatenates_and_sums(self):
        merged = merge_results([make_result(), make_result(horizon=30.0)])
        assert merged.num_jobs == 6
        assert merged.horizon == pytest.approx(40.0)
        assert merged.total_energy == pytest.approx(260.0)
        assert merged.state_residency[STATE_SERVING] == pytest.approx(10.0)

    def test_merge_time_weights_frequency(self):
        a = make_result(horizon=10.0, frequency=0.5)
        b = make_result(horizon=30.0, frequency=1.0)
        merged = merge_results([a, b])
        assert merged.frequency == pytest.approx((0.5 * 10 + 1.0 * 30) / 40)

    def test_merge_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_results([])

    def test_merge_single_is_identity_like(self):
        merged = merge_results([make_result()])
        assert merged.num_jobs == 3
        assert merged.average_power == pytest.approx(make_result().average_power)


class TestLinearPercentile:
    """The selection-based percentile must match np.percentile bit-for-bit."""

    def test_matches_numpy_exactly(self):
        rng = np.random.default_rng(99)
        for size in (1, 2, 3, 10, 999, 1000):
            values = rng.exponential(1.0, size=size)
            for percentile in (0.5, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0):
                assert linear_percentiles(values, (percentile,)) == (
                    float(np.percentile(values, percentile)),
                )

    @pytest.mark.parametrize("size", [1, 2, 3, 1000, 65_000])
    @pytest.mark.parametrize("ties", [False, True])
    def test_multi_rank_matches_numpy_exactly(self, size, ties):
        rng = np.random.default_rng(size)
        values = rng.exponential(1.0, size=size)
        if ties:
            # Heavy ties: a handful of distinct values, every rank repeated.
            values = np.round(values * 2.0) / 2.0
        before = values.copy()
        together = (50.0, 95.0, 99.0, 100.0)
        expected = tuple(float(np.percentile(values, q)) for q in together)
        assert linear_percentiles(values, together) == expected
        assert linear_percentiles(values, together[::-1]) == expected[::-1]
        for q, value in zip(together, expected):
            assert linear_percentiles(values, (q,)) == (value,)
        assert np.array_equal(values, before), "input must not be modified"

    def test_multi_rank_propagates_nan(self):
        values = np.array([0.5, np.nan, 2.0, 1.0])
        assert all(math.isnan(v) for v in linear_percentiles(values, (50.0, 99.0)))
        assert math.isnan(float(np.percentile(values, 95.0)))

    def test_result_percentiles_share_the_memo(self):
        result = make_result(response=tuple(np.arange(1, 101, dtype=float)),
                             waiting=tuple(np.zeros(100)))
        p50, p99 = result.response_time_percentiles(50.0, 99.0)
        assert (p50, p99) == (
            float(np.percentile(result.response_times, 50.0)),
            float(np.percentile(result.response_times, 99.0)),
        )
        assert result.response_time_percentile(99.0) == p99
        assert result.response_time_percentiles(99.0, 50.0, 99.0) == (p99, p50, p99)

    def test_result_percentile_is_memoised(self):
        result = make_result(response=tuple(np.arange(1, 101, dtype=float)),
                             waiting=tuple(np.zeros(100)))
        first = result.response_time_percentile(95.0)
        second = result.response_time_percentile(95.0)
        assert first == second == float(np.percentile(result.response_times, 95.0))
