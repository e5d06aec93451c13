"""Tests for epoch records and runtime results."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.epoch import EpochRecord, RuntimeResult, epochs_to_rows
from repro.exceptions import ConfigurationError

#: The one percentile contract: (percentile, response times, expected);
#: an exception class means the call must raise it.
PERCENTILE_CONTRACT = [
    (0.0, (1.0, 3.0, 2.0), ConfigurationError),
    (-5.0, (1.0, 3.0, 2.0), ConfigurationError),
    (101.0, (1.0, 3.0, 2.0), ConfigurationError),
    (100.0, (1.0, 3.0, 2.0), 3.0),
    (95.0, (), math.nan),
]


def make_epoch(
    index=0,
    state="C6S0(i)",
    frequency=0.7,
    applied=0.8,
    over=True,
    num_jobs=100,
    energy=30_000.0,
    duration=300.0,
) -> EpochRecord:
    return EpochRecord(
        index=index,
        start_time=index * duration,
        duration=duration,
        predicted_utilization=0.4,
        observed_utilization=0.45,
        policy_label="p",
        sleep_state=state,
        selected_frequency=frequency,
        applied_frequency=applied,
        over_provisioned=over,
        num_jobs=num_jobs,
        mean_response_time=0.3,
        p95_response_time=0.8,
        energy_joules=energy,
    )


def make_result(epochs, responses=None, budget=5.0) -> RuntimeResult:
    responses = np.asarray(
        responses if responses is not None else [0.2, 0.3, 0.4], dtype=float
    )
    total_energy = sum(e.energy_joules for e in epochs)
    total_duration = sum(e.duration for e in epochs)
    return RuntimeResult(
        strategy="SS",
        predictor="LC",
        epochs=tuple(epochs),
        response_times=responses,
        total_energy=total_energy,
        total_duration=total_duration,
        mean_service_time=0.194,
        response_time_budget=budget,
    )


class TestEpochRecord:
    def test_average_power(self):
        epoch = make_epoch(energy=60_000.0, duration=300.0)
        assert epoch.average_power == pytest.approx(200.0)

    def test_had_jobs(self):
        assert make_epoch(num_jobs=5).had_jobs
        assert not make_epoch(num_jobs=0).had_jobs

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_epoch(duration=0.0)
        with pytest.raises(ConfigurationError):
            make_epoch(num_jobs=-1)

    def test_rows_export(self):
        rows = epochs_to_rows([make_epoch(0), make_epoch(1)])
        assert len(rows) == 2
        assert rows[1]["index"] == 1
        assert rows[0]["sleep_state"] == "C6S0(i)"


class TestRuntimeResult:
    def test_response_time_metrics(self):
        result = make_result([make_epoch()], responses=[0.97, 0.97])
        assert result.mean_response_time == pytest.approx(0.97)
        assert result.normalized_mean_response_time == pytest.approx(5.0)
        assert result.num_jobs == 2

    def test_meets_budget_boundary_and_violation(self):
        at_budget = make_result([make_epoch()], responses=[0.97])
        assert at_budget.meets_budget  # exactly at the budget counts as met
        violating = make_result([make_epoch()], responses=[1.5])
        assert not violating.meets_budget

    def test_average_power(self):
        epochs = [make_epoch(0, energy=30_000.0), make_epoch(1, energy=60_000.0)]
        result = make_result(epochs)
        assert result.average_power == pytest.approx(90_000.0 / 600.0)

    def test_percentile_and_energy_per_job(self):
        result = make_result([make_epoch()], responses=[0.1, 0.2, 0.3, 10.0])
        assert result.response_time_percentile(50.0) == pytest.approx(0.25)
        assert result.energy_per_job == pytest.approx(30_000.0 / 4)

    @pytest.mark.parametrize("percentile, responses, expected", PERCENTILE_CONTRACT)
    def test_percentile_contract(self, percentile, responses, expected):
        result = make_result([make_epoch()], responses=responses)
        if expected is ConfigurationError:
            with pytest.raises(ConfigurationError, match=r"\(0, 100\]"):
                result.response_time_percentile(percentile)
        elif math.isnan(expected):
            assert math.isnan(result.response_time_percentile(percentile))
        else:
            assert result.response_time_percentile(percentile) == expected

    def test_state_selection_counts(self):
        epochs = [
            make_epoch(0, state="C6S0(i)"),
            make_epoch(1, state="C6S0(i)"),
            make_epoch(2, state="C0(i)S0(i)"),
        ]
        result = make_result(epochs)
        assert result.state_selection_counts() == {"C6S0(i)": 2, "C0(i)S0(i)": 1}
        fractions = result.state_selection_fractions()
        assert fractions["C6S0(i)"] == pytest.approx(2 / 3)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_frequency_and_over_provisioning_summaries(self):
        epochs = [
            make_epoch(0, frequency=0.6, over=True),
            make_epoch(1, frequency=0.8, over=False),
        ]
        result = make_result(epochs)
        assert result.mean_selected_frequency() == pytest.approx(0.7)
        assert result.over_provisioned_fraction() == pytest.approx(0.5)

    def test_empty_response_times_give_nan(self):
        result = make_result([make_epoch(num_jobs=0)], responses=[])
        assert math.isnan(result.mean_response_time)
        assert math.isnan(result.energy_per_job)

    def test_summary_keys(self):
        summary = make_result([make_epoch()]).summary()
        assert summary["strategy"] == "SS"
        assert summary["predictor"] == "LC"
        assert "average_power_w" in summary
        assert "normalized_mean_response_time" in summary

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_result([])
        with pytest.raises(ConfigurationError):
            RuntimeResult(
                strategy="SS",
                predictor="LC",
                epochs=(make_epoch(),),
                response_times=np.array([0.1]),
                total_energy=1.0,
                total_duration=0.0,
                mean_service_time=0.194,
                response_time_budget=5.0,
            )
