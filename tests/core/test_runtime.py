"""Tests for the epoch-by-epoch SleepScale runtime controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.qos import mean_qos_from_baseline
from repro.core.runtime import RuntimeConfig, SleepScaleRuntime
from repro.core.strategies import FixedPolicyStrategy, race_to_halt_c6, sleepscale_strategy
from repro.exceptions import ConfigurationError
from repro.policies.policy import race_to_halt_policy, single_state_policy
from repro.power.states import C0I_S0I, C6_S0I
from repro.prediction.lms_cusum import LmsCusumPredictor
from repro.prediction.naive import NaivePreviousPredictor
from repro.prediction.oracle import OraclePredictor
from repro.units import minutes
from repro.workloads.generator import empirical_utilization, generate_trace_driven_jobs
from repro.workloads.jobs import JobTrace
from repro.workloads.traces import constant_trace, step_trace


@pytest.fixture(scope="module")
def flat_workload(dns_empirical):
    """30 minutes of DNS-like jobs at a flat utilisation of 0.4."""
    trace = constant_trace(0.4, num_samples=30)
    return generate_trace_driven_jobs(dns_empirical, trace, seed=21)


def build_runtime(
    xeon,
    spec,
    strategy,
    predictor=None,
    epoch_minutes=5.0,
    alpha=0.0,
    rho_b=0.8,
    log_epochs=2,
):
    return SleepScaleRuntime(
        power_model=xeon,
        spec=spec,
        strategy=strategy,
        predictor=predictor or NaivePreviousPredictor(),
        config=RuntimeConfig(
            epoch_minutes=epoch_minutes,
            rho_b=rho_b,
            over_provisioning=alpha,
            log_epochs=log_epochs,
        ),
    )


class TestRuntimeConfig:
    def test_derived_seconds(self):
        config = RuntimeConfig(epoch_minutes=5, observation_minutes=1)
        assert config.epoch_seconds == 300.0
        assert config.observation_seconds == 60.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(epoch_minutes=0)
        with pytest.raises(ConfigurationError):
            RuntimeConfig(rho_b=1.0)
        with pytest.raises(ConfigurationError):
            RuntimeConfig(over_provisioning=-0.1)
        with pytest.raises(ConfigurationError):
            RuntimeConfig(log_epochs=-1)
        with pytest.raises(ConfigurationError):
            RuntimeConfig(min_utilization=0.0)

    @pytest.mark.parametrize(
        "epoch_minutes, observation_minutes", [(5.0, 2.0), (0.5, 1.0), (5.0, 1.5)]
    )
    def test_observations_must_tile_the_epoch(self, epoch_minutes, observation_minutes):
        # Windows that do not divide the epoch drift away from it: with
        # 2-minute windows and 5-minute epochs the second epoch would be
        # observed through minutes 4-10 instead of 5-10.
        with pytest.raises(ConfigurationError, match="whole windows"):
            RuntimeConfig(
                epoch_minutes=epoch_minutes, observation_minutes=observation_minutes
            )

    def test_window_ratio_has_a_float_tolerance(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point.
        config = RuntimeConfig(epoch_minutes=0.3, observation_minutes=0.1)
        assert config.epoch_seconds == pytest.approx(3 * config.observation_seconds)
        RuntimeConfig(epoch_minutes=5.0, observation_minutes=2.5)


class TestRuntimeWithFixedPolicy:
    def test_epoch_count_covers_trace(self, xeon, dns_empirical, flat_workload):
        policy = race_to_halt_policy(xeon, C6_S0I)
        runtime = build_runtime(
            xeon, dns_empirical, FixedPolicyStrategy(policy), epoch_minutes=5.0
        )
        result = runtime.run(flat_workload.jobs)
        expected_epochs = int(np.ceil(flat_workload.jobs.end_time / minutes(5)))
        assert len(result.epochs) == expected_epochs

    def test_all_jobs_accounted_for(self, xeon, dns_empirical, flat_workload):
        policy = race_to_halt_policy(xeon, C6_S0I)
        runtime = build_runtime(xeon, dns_empirical, FixedPolicyStrategy(policy))
        result = runtime.run(flat_workload.jobs)
        assert result.num_jobs == len(flat_workload.jobs)
        assert sum(e.num_jobs for e in result.epochs) == len(flat_workload.jobs)

    def test_power_between_sleep_and_peak(self, xeon, dns_empirical, flat_workload):
        policy = race_to_halt_policy(xeon, C6_S0I)
        runtime = build_runtime(xeon, dns_empirical, FixedPolicyStrategy(policy))
        result = runtime.run(flat_workload.jobs)
        assert xeon.system_power(C6_S0I) < result.average_power < xeon.peak_power()

    def test_total_duration_at_least_trace_span(self, xeon, dns_empirical, flat_workload):
        policy = race_to_halt_policy(xeon, C6_S0I)
        runtime = build_runtime(xeon, dns_empirical, FixedPolicyStrategy(policy))
        result = runtime.run(flat_workload.jobs)
        assert result.total_duration >= flat_workload.jobs.end_time

    def test_fixed_policy_recorded_every_epoch(self, xeon, dns_empirical, flat_workload):
        policy = race_to_halt_policy(xeon, C6_S0I)
        runtime = build_runtime(xeon, dns_empirical, FixedPolicyStrategy(policy))
        result = runtime.run(flat_workload.jobs)
        assert {e.sleep_state for e in result.epochs} == {"C6S0(i)"}
        assert {e.selected_frequency for e in result.epochs} == {1.0}

    def test_observed_utilization_matches_trace(self, xeon, dns_empirical, flat_workload):
        policy = race_to_halt_policy(xeon, C6_S0I)
        runtime = build_runtime(xeon, dns_empirical, FixedPolicyStrategy(policy))
        result = runtime.run(flat_workload.jobs)
        observed = np.mean([e.observed_utilization for e in result.epochs])
        assert observed == pytest.approx(0.4, rel=0.2)


class TestOverProvisioning:
    def test_alpha_zero_never_over_provisions(self, xeon, dns_empirical, flat_workload):
        policy = single_state_policy(xeon, C0I_S0I, 0.8)
        runtime = build_runtime(
            xeon, dns_empirical, FixedPolicyStrategy(policy), alpha=0.0
        )
        result = runtime.run(flat_workload.jobs)
        assert result.over_provisioned_fraction() == 0.0

    def test_alpha_raises_applied_frequency(self, xeon, dns_empirical, flat_workload):
        policy = single_state_policy(xeon, C0I_S0I, 0.7)
        runtime = build_runtime(
            xeon, dns_empirical, FixedPolicyStrategy(policy), alpha=0.35
        )
        result = runtime.run(flat_workload.jobs)
        over_provisioned = [e for e in result.epochs if e.over_provisioned]
        assert over_provisioned
        for epoch in over_provisioned:
            assert epoch.applied_frequency == pytest.approx(min(1.0, 0.7 * 1.35))
            assert epoch.selected_frequency == pytest.approx(0.7)

    def test_first_epoch_is_never_over_provisioned(self, xeon, dns_empirical, flat_workload):
        policy = single_state_policy(xeon, C0I_S0I, 0.7)
        runtime = build_runtime(
            xeon, dns_empirical, FixedPolicyStrategy(policy), alpha=0.35
        )
        result = runtime.run(flat_workload.jobs)
        assert not result.epochs[0].over_provisioned

    def test_empty_epoch_carries_previous_delay_forward(self, xeon, dns_empirical):
        """Regression: a zero-arrival epoch used to force the guard band on.

        Epoch 0 is overloaded (mean delay far above the baseline budget),
        epoch 1 is completely empty, epoch 2 has traffic again.  An empty
        epoch yields no delay evidence, so epoch 2's decision must still
        see epoch 0's over-budget delay — the bug recorded the empty epoch
        as zero delay and unconditionally over-provisioned epoch 2.
        """
        policy = single_state_policy(xeon, C0I_S0I, 0.7)
        runtime = build_runtime(
            xeon, dns_empirical, FixedPolicyStrategy(policy),
            epoch_minutes=1.0, alpha=0.35,
        )
        jobs = JobTrace(
            np.concatenate([np.arange(10.0), [125.0, 130.0]]),
            np.concatenate([np.full(10, 2.0), [0.1, 0.1]]),
        )
        result = runtime.run(jobs)
        assert result.epochs[1].num_jobs == 0
        assert np.isnan(result.epochs[1].mean_response_time)
        # Epoch 1 sees epoch 0's huge delay: no over-provisioning; epoch 2
        # must inherit that same evidence across the empty epoch.
        assert not result.epochs[1].over_provisioned
        assert not result.epochs[2].over_provisioned

    def test_empty_epoch_keeps_guard_band_armed_when_delay_was_low(
        self, xeon, dns_empirical
    ):
        """The carried-forward delay works in both directions: a low
        pre-gap delay keeps over-provisioning active through the gap."""
        policy = single_state_policy(xeon, C0I_S0I, 0.7)
        runtime = build_runtime(
            xeon, dns_empirical, FixedPolicyStrategy(policy),
            epoch_minutes=1.0, alpha=0.35,
        )
        jobs = JobTrace(
            np.concatenate([np.arange(0.0, 50.0, 5.0), [125.0, 130.0]]),
            np.full(12, 0.001),  # tiny jobs: delay far below budget
        )
        result = runtime.run(jobs)
        assert result.epochs[1].num_jobs == 0
        assert result.epochs[1].over_provisioned
        assert result.epochs[2].over_provisioned

    def test_over_provisioning_reduces_response_time(self, xeon, dns_empirical, flat_workload):
        policy = single_state_policy(xeon, C0I_S0I, 0.6)
        without = build_runtime(
            xeon, dns_empirical, FixedPolicyStrategy(policy), alpha=0.0
        ).run(flat_workload.jobs)
        with_alpha = build_runtime(
            xeon, dns_empirical, FixedPolicyStrategy(policy), alpha=0.35
        ).run(flat_workload.jobs)
        assert with_alpha.mean_response_time < without.mean_response_time
        assert with_alpha.average_power >= without.average_power


class TestSleepScaleEndToEnd:
    def test_meets_budget_on_flat_trace(self, xeon, dns_empirical, flat_workload):
        qos = mean_qos_from_baseline(0.8)
        strategy = sleepscale_strategy(xeon, qos, characterization_jobs=600, seed=2)
        runtime = build_runtime(
            xeon,
            dns_empirical,
            strategy,
            predictor=LmsCusumPredictor(history=10),
            alpha=0.35,
        )
        result = runtime.run(flat_workload.jobs)
        assert result.meets_budget
        assert result.strategy == "SS"
        assert result.predictor == "LC"

    def test_sleepscale_saves_power_vs_race_to_halt_at_low_load(self, xeon, dns_empirical):
        trace = constant_trace(0.15, num_samples=20)
        workload = generate_trace_driven_jobs(dns_empirical, trace, seed=31)
        qos = mean_qos_from_baseline(0.8)
        sleepscale = build_runtime(
            xeon,
            dns_empirical,
            sleepscale_strategy(xeon, qos, characterization_jobs=600, seed=3),
            predictor=LmsCusumPredictor(history=10),
            alpha=0.35,
        ).run(workload.jobs)
        race = build_runtime(
            xeon,
            dns_empirical,
            race_to_halt_c6(xeon),
            predictor=LmsCusumPredictor(history=10),
            alpha=0.35,
        ).run(workload.jobs)
        assert sleepscale.average_power < race.average_power

    def test_adapts_to_step_change(self, xeon, dns_empirical):
        trace = step_trace(0.15, 0.6, num_samples=40)
        workload = generate_trace_driven_jobs(dns_empirical, trace, seed=41)
        qos = mean_qos_from_baseline(0.8)
        strategy = sleepscale_strategy(xeon, qos, characterization_jobs=600, seed=5)
        runtime = build_runtime(
            xeon,
            dns_empirical,
            strategy,
            predictor=NaivePreviousPredictor(),
            alpha=0.35,
        )
        result = runtime.run(workload.jobs)
        first_half = [e.applied_frequency for e in result.epochs[1:4]]
        second_half = [e.applied_frequency for e in result.epochs[-3:]]
        assert np.mean(second_half) > np.mean(first_half)

    def test_oracle_predictor_integration(self, xeon, dns_empirical, flat_workload):
        truth = empirical_utilization(
            flat_workload.jobs, minutes(1), horizon=flat_workload.jobs.end_time
        )
        qos = mean_qos_from_baseline(0.8)
        strategy = sleepscale_strategy(xeon, qos, characterization_jobs=600, seed=7)
        runtime = build_runtime(
            xeon,
            dns_empirical,
            strategy,
            predictor=OraclePredictor(np.clip(truth, 0, 1)),
            alpha=0.0,
        )
        result = runtime.run(flat_workload.jobs)
        assert result.predictor == "Offline"
        assert result.num_jobs == len(flat_workload.jobs)


class TestEpochBoundaries:
    @staticmethod
    def _race_to_halt(xeon, spec):
        policy = race_to_halt_policy(xeon, C6_S0I)
        return policy, build_runtime(xeon, spec, FixedPolicyStrategy(policy))

    def test_boundary_job_belongs_to_the_later_epoch(self, xeon, dns_empirical):
        _, runtime = self._race_to_halt(xeon, dns_empirical)
        jobs = JobTrace([0.0, 100.0, 300.0, 600.0, 650.0], [0.1, 0.2, 0.3, 0.4, 0.1])
        result = runtime.run(jobs)
        assert [epoch.num_jobs for epoch in result.epochs] == [2, 1, 2]

    @pytest.mark.parametrize("horizon", [None, 300.0])
    def test_job_at_the_run_horizon_is_served(self, xeon, dns_empirical, horizon):
        # The last arrival sits exactly on the end of the only epoch: the
        # final epoch is closed on the right, so it serves that job.
        _, runtime = self._race_to_halt(xeon, dns_empirical)
        result = runtime.run(JobTrace([1.0, 300.0], [0.1, 0.1]), horizon=horizon)
        assert len(result.epochs) == 1
        assert result.epochs[0].num_jobs == 2
        assert result.num_jobs == 2
        assert result.total_duration > 300.0
        # Its demand is observed in the last window of the epoch.
        assert result.epochs[0].observed_utilization == pytest.approx(0.2 / 300.0)

    def test_zero_job_run_walks_the_sleep_sequence(self, xeon, dns_empirical):
        policy, runtime = self._race_to_halt(xeon, dns_empirical)
        result = runtime.run(JobTrace.empty(), horizon=1234.5)
        epoch_energy = policy.sleep.idle_energy(300.0, xeon.idle_power(policy.frequency))
        assert epoch_energy > 0.0
        assert [epoch.num_jobs for epoch in result.epochs] == [0] * 5
        assert [epoch.energy_joules for epoch in result.epochs] == [epoch_energy] * 5
        assert result.total_duration == 1500.0
        assert result.total_energy == pytest.approx(5 * epoch_energy, rel=1e-12)


class TestEmptyEpochs:
    def test_idle_gap_produces_zero_job_epoch(self, xeon, dns_empirical):
        # Two bursts separated by a long silence spanning a full epoch.
        arrivals = np.concatenate(
            [np.linspace(0, 200, 50), np.linspace(700, 880, 50)]
        )
        demands = np.full(100, 0.1)
        jobs = JobTrace(arrivals, demands)
        policy = single_state_policy(xeon, C6_S0I, 0.8)
        runtime = build_runtime(
            xeon, dns_empirical, FixedPolicyStrategy(policy), epoch_minutes=5.0
        )
        result = runtime.run(jobs)
        empty = [e for e in result.epochs if not e.had_jobs]
        assert empty
        for epoch in empty:
            assert epoch.energy_joules > 0.0  # idle energy still accounted
        assert result.num_jobs == 100
