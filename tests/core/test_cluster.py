"""Tests for the multi-server farm substrate (dispatchers and homogeneous farms)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster.dispatch import RandomDispatcher, RoundRobinDispatcher, merge_streams
from repro.cluster.farm import FarmResult, ServerFarm
from repro.core.epoch import EpochRecord, RuntimeResult
from repro.core.qos import mean_qos_from_baseline
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import FixedPolicyStrategy, race_to_halt_c6, sleepscale_strategy
from repro.exceptions import ConfigurationError
from repro.policies.policy import Policy, race_to_halt_policy
from repro.power.states import C6_S0I
from repro.prediction.lms_cusum import LmsCusumPredictor
from repro.prediction.naive import NaivePreviousPredictor
from repro.workloads.generator import generate_trace_driven_jobs
from repro.workloads.jobs import JobTrace
from repro.workloads.traces import constant_trace


@dataclass(frozen=True)
class FixedPolicyFactory:
    """Picklable per-index strategy factory (process-sharded farms)."""

    policy: Policy

    def __call__(self, index: int) -> FixedPolicyStrategy:
        return FixedPolicyStrategy(self.policy)


#: The one percentile contract: (percentile, response times, expected);
#: an exception class means the call must raise it.
PERCENTILE_CONTRACT = [
    (0.0, (1.0, 3.0, 2.0), ConfigurationError),
    (-5.0, (1.0, 3.0, 2.0), ConfigurationError),
    (101.0, (1.0, 3.0, 2.0), ConfigurationError),
    (100.0, (1.0, 3.0, 2.0), 3.0),
    (95.0, (), math.nan),
]


def _one_epoch_result(responses) -> RuntimeResult:
    epoch = EpochRecord(
        index=0,
        start_time=0.0,
        duration=60.0,
        predicted_utilization=0.3,
        observed_utilization=0.3,
        policy_label="p",
        sleep_state="C6S0(i)",
        selected_frequency=1.0,
        applied_frequency=1.0,
        over_provisioned=False,
        num_jobs=len(responses),
        mean_response_time=math.nan,
        p95_response_time=math.nan,
        energy_joules=100.0,
    )
    return RuntimeResult(
        strategy="SS",
        predictor="LC",
        epochs=(epoch,),
        response_times=np.asarray(responses, dtype=float),
        total_energy=100.0,
        total_duration=60.0,
        mean_service_time=0.1,
        response_time_budget=5.0,
    )


def naive_predictor(index: int) -> NaivePreviousPredictor:
    return NaivePreviousPredictor()


@pytest.fixture(scope="module")
def farm_workload(dns_empirical):
    """20 minutes of DNS-like jobs at a farm-level utilisation of about 0.9."""
    trace = constant_trace(0.9, num_samples=20)
    return generate_trace_driven_jobs(dns_empirical, trace, seed=51, max_utilization=0.95)


class TestDispatchers:
    def test_round_robin_is_lossless_and_balanced(self, farm_workload):
        jobs = farm_workload.jobs
        streams = RoundRobinDispatcher().dispatch(jobs, 3)
        sizes = [len(s) for s in streams if s is not None]
        assert sum(sizes) == len(jobs)
        assert max(sizes) - min(sizes) <= 1
        assert merge_streams(streams) == jobs

    def test_random_dispatch_is_lossless(self, farm_workload):
        jobs = farm_workload.jobs
        streams = RandomDispatcher(seed=3).dispatch(jobs, 4)
        assert sum(len(s) for s in streams if s is not None) == len(jobs)
        assert merge_streams(streams) == jobs

    def test_random_dispatch_reproducible(self, farm_workload):
        jobs = farm_workload.jobs
        first = RandomDispatcher(seed=9).dispatch(jobs, 3)
        second = RandomDispatcher(seed=9).dispatch(jobs, 3)
        for a, b in zip(first, second):
            assert (a is None and b is None) or a == b

    def test_weighted_dispatch_skews_traffic(self, farm_workload):
        jobs = farm_workload.jobs
        streams = RandomDispatcher(seed=1, weights=[3.0, 1.0]).dispatch(jobs, 2)
        assert len(streams[0]) > 2 * len(streams[1])

    def test_single_server_gets_everything(self, farm_workload):
        streams = RoundRobinDispatcher().dispatch(farm_workload.jobs, 1)
        assert len(streams) == 1
        assert streams[0] == farm_workload.jobs

    def test_dispatch_validation(self, farm_workload):
        with pytest.raises(ConfigurationError):
            RoundRobinDispatcher().dispatch(farm_workload.jobs, 0)
        with pytest.raises(ConfigurationError):
            RandomDispatcher(weights=[-1.0, 1.0])
        with pytest.raises(ConfigurationError):
            RandomDispatcher(weights=[1.0]).dispatch(farm_workload.jobs, 2)

    def test_per_server_load_drops_with_farm_size(self, farm_workload):
        jobs = farm_workload.jobs
        streams = RoundRobinDispatcher().dispatch(jobs, 3)
        for stream in streams:
            assert stream is not None
            assert stream.offered_load < jobs.offered_load / 2


class TestHomogeneousFarm:
    def make_cluster(self, xeon, spec, num_servers, strategy_factory):
        return ServerFarm.homogeneous(
            num_servers,
            xeon,
            spec,
            strategy_factory,
            lambda index: NaivePreviousPredictor(),
            config=RuntimeConfig(epoch_minutes=5.0, rho_b=0.8, over_provisioning=0.0),
        )

    def test_fixed_policy_farm_accounts_all_jobs(self, xeon, dns_empirical, farm_workload):
        policy = race_to_halt_policy(xeon, C6_S0I)
        cluster = self.make_cluster(
            xeon, dns_empirical, 3, lambda index: FixedPolicyStrategy(policy)
        )
        farm = cluster.run(farm_workload.jobs)
        assert farm.num_jobs == len(farm_workload.jobs)
        assert farm.num_servers == 3
        assert len(farm.active_servers) == 3

    def test_farm_power_scales_with_servers(self, xeon, dns_empirical, farm_workload):
        policy = race_to_halt_policy(xeon, C6_S0I)
        small = self.make_cluster(
            xeon, dns_empirical, 2, lambda index: FixedPolicyStrategy(policy)
        ).run(farm_workload.jobs)
        large = self.make_cluster(
            xeon, dns_empirical, 4, lambda index: FixedPolicyStrategy(policy)
        ).run(farm_workload.jobs)
        assert large.total_average_power > small.total_average_power
        # But each server in the larger farm is less loaded, so its per-server
        # power is lower.
        assert large.average_power_per_server < small.average_power_per_server

    def test_splitting_load_reduces_per_server_response_time(
        self, xeon, dns_empirical, farm_workload
    ):
        policy = race_to_halt_policy(xeon, C6_S0I)
        single = self.make_cluster(
            xeon, dns_empirical, 1, lambda index: FixedPolicyStrategy(policy)
        ).run(farm_workload.jobs)
        farm = self.make_cluster(
            xeon, dns_empirical, 3, lambda index: FixedPolicyStrategy(policy)
        ).run(farm_workload.jobs)
        assert farm.mean_response_time < single.mean_response_time

    def test_sleepscale_farm_beats_race_to_halt_farm(self, xeon, dns_empirical, farm_workload):
        qos = mean_qos_from_baseline(0.8)

        def sleepscale_factory(index):
            return sleepscale_strategy(
                xeon, qos, characterization_jobs=500, seed=index
            )

        sleepscale_farm = ServerFarm.homogeneous(
            3,
            xeon,
            dns_empirical,
            sleepscale_factory,
            lambda index: LmsCusumPredictor(history=10),
            config=RuntimeConfig(epoch_minutes=5.0, rho_b=0.8, over_provisioning=0.35),
        ).run(farm_workload.jobs)
        race_farm = ServerFarm.homogeneous(
            3,
            xeon,
            dns_empirical,
            lambda index: race_to_halt_c6(xeon),
            lambda index: LmsCusumPredictor(history=10),
            config=RuntimeConfig(epoch_minutes=5.0, rho_b=0.8, over_provisioning=0.35),
        ).run(farm_workload.jobs)
        assert sleepscale_farm.meets_budget
        assert sleepscale_farm.total_average_power < race_farm.total_average_power

    def test_summary_and_state_fractions(self, xeon, dns_empirical, farm_workload):
        policy = race_to_halt_policy(xeon, C6_S0I)
        farm = self.make_cluster(
            xeon, dns_empirical, 2, lambda index: FixedPolicyStrategy(policy)
        ).run(farm_workload.jobs)
        summary = farm.summary()
        assert summary["servers"] == 2.0
        assert summary["num_jobs"] == float(len(farm_workload.jobs))
        fractions = farm.state_selection_fractions()
        assert fractions == {"C6S0(i)": 1.0}

    def test_validation(self, xeon, dns_empirical):
        with pytest.raises(ConfigurationError, match="at least one server"):
            ServerFarm.homogeneous(
                0,
                xeon,
                dns_empirical,
                lambda index: race_to_halt_c6(xeon),
                lambda index: NaivePreviousPredictor(),
            )
        with pytest.raises(ConfigurationError):
            FarmResult(per_server=(), mean_service_time=0.1, response_time_budget=5.0)
        with pytest.raises(ConfigurationError):
            FarmResult(
                per_server=(None, None), mean_service_time=0.1, response_time_budget=5.0
            )

    @pytest.mark.parametrize("percentile, responses, expected", PERCENTILE_CONTRACT)
    def test_percentile_contract(self, percentile, responses, expected):
        # Two active slots: the farm-wide percentile spans both of them.
        split = len(responses) // 2
        result = FarmResult(
            per_server=(
                _one_epoch_result(responses[:split]),
                None,
                _one_epoch_result(responses[split:]),
            ),
            mean_service_time=0.1,
            response_time_budget=5.0,
        )
        if expected is ConfigurationError:
            with pytest.raises(ConfigurationError, match=r"\(0, 100\]"):
                result.response_time_percentile(percentile)
        elif math.isnan(expected):
            assert math.isnan(result.response_time_percentile(percentile))
        else:
            assert result.response_time_percentile(percentile) == expected

    def test_idle_server_when_jobs_fewer_than_servers(self, xeon, dns_empirical):
        jobs = JobTrace([0.0, 1.0], [0.1, 0.1])
        policy = race_to_halt_policy(xeon, C6_S0I)
        farm = self.make_cluster(
            xeon, dns_empirical, 4, lambda index: FixedPolicyStrategy(policy)
        ).run(jobs)
        assert farm.num_servers == 4
        assert len(farm.active_servers) == 2
        assert farm.num_jobs == 2


class TestParallelFarm:
    """Process-sharded per-server runs must reproduce the serial farm exactly."""

    def make_cluster(self, xeon, spec, num_servers, max_workers=None):
        return ServerFarm.homogeneous(
            num_servers,
            xeon,
            spec,
            FixedPolicyFactory(race_to_halt_policy(xeon, C6_S0I)),
            naive_predictor,
            config=RuntimeConfig(epoch_minutes=5.0, rho_b=0.8, over_provisioning=0.0),
            max_workers=max_workers,
        )

    def test_parallel_matches_serial(self, xeon, dns_empirical, farm_workload):
        serial = self.make_cluster(xeon, dns_empirical, 4).run(farm_workload.jobs)
        sharded = self.make_cluster(
            xeon, dns_empirical, 4, max_workers=2
        ).run(farm_workload.jobs)
        assert sharded.num_jobs == serial.num_jobs
        assert sharded.total_energy == serial.total_energy
        assert sharded.mean_response_time == serial.mean_response_time
        for fast, slow in zip(sharded.per_server, serial.per_server, strict=True):
            assert (fast is None) == (slow is None)
            if fast is not None:
                np.testing.assert_array_equal(
                    fast.response_times, slow.response_times
                )

    def test_invalid_worker_count_rejected(self, xeon, dns_empirical):
        with pytest.raises(ConfigurationError):
            self.make_cluster(xeon, dns_empirical, 2, max_workers=0)
