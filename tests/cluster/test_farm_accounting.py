"""Farm accounting: the one run path, dispatch speeds and bookkeeping.

Pins that every farm run takes one path — serial and process-sharded runs
agree bit for bit for every dispatcher, parked servers included, and no
``chunk_jobs`` knob selects another — how a farm threads each server's
dispatch speed into its dispatcher, plus the accounting bug batch: cached
``FarmResult.response_times``, explicit ``meets_budget`` with zero
completed jobs, and the guarded parked-server idle proration.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.cluster.dispatch import (
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
)
from repro.cluster.farm import (
    FarmResult,
    ServerFarm,
    ServerSpec,
    prorated_idle_energy,
)
from repro.core.runtime import RuntimeConfig, SleepScaleRuntime
from repro.core.strategies import FixedPolicyStrategy
from repro.exceptions import ConfigurationError
from repro.policies.policy import race_to_halt_policy
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import C6_S0I
from repro.prediction.naive import NaivePreviousPredictor
from repro.simulation.service_scaling import memory_bound, partially_bound
from repro.workloads.generator import generate_trace_driven_jobs
from repro.workloads.jobs import JobTrace
from repro.workloads.traces import constant_trace


def fixed_policy_server(name, power_model, max_frequency=1.0, scaling=None):
    policy = race_to_halt_policy(power_model, C6_S0I)
    return ServerSpec(
        name=name,
        power_model=power_model,
        # Picklable factories: the max_workers=2 legs run on processes.
        strategy_factory=partial(FixedPolicyStrategy, policy),
        predictor_factory=NaivePreviousPredictor,
        config=RuntimeConfig(epoch_minutes=5.0, rho_b=0.8, over_provisioning=0.0),
        scaling=scaling,
        max_frequency=max_frequency,
    )


@pytest.fixture(scope="module")
def busy_workload(dns_empirical):
    trace = constant_trace(0.9, num_samples=15)
    return generate_trace_driven_jobs(
        dns_empirical, trace, seed=23, max_utilization=0.95
    ).jobs


@pytest.fixture(scope="module")
def mixed_servers():
    return (
        fixed_policy_server("xeon-0", xeon_power_model()),
        fixed_policy_server("atom-0", atom_power_model(), max_frequency=0.7),
        fixed_policy_server("atom-1", atom_power_model(), max_frequency=0.7),
    )


class TestOneRunPath:
    @pytest.mark.parametrize(
        "dispatcher_factory",
        [
            RoundRobinDispatcher,
            lambda: RandomDispatcher(seed=5),
            LeastLoadedDispatcher,
            lambda: PowerAwareDispatcher([4.0, 2.0, 2.0]),
        ],
        ids=["round-robin", "random", "least-loaded", "power-aware"],
    )
    def test_process_matches_serial_for_every_dispatcher(
        self, dns_empirical, busy_workload, mixed_servers, dispatcher_factory
    ):
        def build(max_workers=None):
            return ServerFarm(
                servers=mixed_servers,
                spec=dns_empirical,
                dispatcher=dispatcher_factory(),
                max_workers=max_workers,
            )

        serial = build().run(busy_workload)
        sharded = build(max_workers=2).run(busy_workload)
        assert serial.num_jobs == sharded.num_jobs == len(busy_workload)
        assert sharded.total_energy == serial.total_energy
        np.testing.assert_array_equal(sharded.response_times, serial.response_times)
        assert sharded.response_time_budget == serial.response_time_budget
        assert sharded.idle_energies == serial.idle_energies
        assert sharded.server_names == serial.server_names

    @pytest.mark.parametrize("max_workers", [None, 2], ids=["serial", "process"])
    def test_parked_server_walks_a_fresh_runtime(self, dns_empirical, max_workers):
        """A parked server is charged the prorated sleep walk of a runtime
        built for it and never fed, on the serial and the sharded path."""
        trace = constant_trace(0.15, num_samples=15)
        jobs = generate_trace_driven_jobs(dns_empirical, trace, seed=9).jobs
        xeon = fixed_policy_server("xeon-0", xeon_power_model())
        farm = ServerFarm(
            servers=(fixed_policy_server("atom-0", atom_power_model()), xeon),
            spec=dns_empirical,
            dispatcher=PowerAwareDispatcher([1.0, 2.0], max_backlog=1e9),
            max_workers=max_workers,
        )
        result = farm.run(jobs)
        assert result.per_server[1] is None
        horizon = result.per_server[0].total_duration
        idle_run = SleepScaleRuntime(
            power_model=xeon.power_model,
            spec=dns_empirical,
            strategy=xeon.strategy_factory(),
            predictor=xeon.predictor_factory(),
            config=xeon.config,
        ).run(JobTrace.empty(), horizon=horizon)
        expected = prorated_idle_energy(
            idle_run.total_energy, idle_run.total_duration, horizon
        )
        assert expected > 0.0
        assert result.idle_energies[1] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("surface", ["field", "run-argument", "homogeneous"])
    def test_chunk_jobs_knob_is_gone(
        self, dns_empirical, busy_workload, mixed_servers, surface
    ):
        with pytest.raises(TypeError, match="chunk_jobs"):
            if surface == "field":
                ServerFarm(servers=mixed_servers, spec=dns_empirical, chunk_jobs=64)
            elif surface == "run-argument":
                ServerFarm(servers=mixed_servers, spec=dns_empirical).run(
                    busy_workload, chunk_jobs=64
                )
            else:
                xeon = xeon_power_model()
                policy = race_to_halt_policy(xeon, C6_S0I)
                ServerFarm.homogeneous(
                    3,
                    xeon,
                    dns_empirical,
                    lambda index: FixedPolicyStrategy(policy),
                    lambda index: NaivePreviousPredictor(),
                    chunk_jobs=64,
                )


class TestDispatchSpeedThreading:
    def test_server_spec_dispatch_speed(self):
        xeon = fixed_policy_server("x", xeon_power_model())
        capped = fixed_policy_server("a", atom_power_model(), max_frequency=0.5)
        memory = fixed_policy_server(
            "m", xeon_power_model(), max_frequency=0.5, scaling=memory_bound()
        )
        partial = fixed_policy_server(
            "p", xeon_power_model(), max_frequency=0.25, scaling=partially_bound(0.5)
        )
        assert xeon.dispatch_speed == 1.0
        assert capped.dispatch_speed == pytest.approx(0.5)
        # Memory-bound service is frequency-insensitive: no slowdown.
        assert memory.dispatch_speed == 1.0
        assert partial.dispatch_speed == pytest.approx(0.5)

    def test_max_frequency_validation(self):
        with pytest.raises(ConfigurationError, match="max_frequency"):
            fixed_policy_server("x", xeon_power_model(), max_frequency=0.0)
        with pytest.raises(ConfigurationError, match="max_frequency"):
            fixed_policy_server("x", xeon_power_model(), max_frequency=1.5)

    def test_farm_threads_speeds_into_dispatch(self, dns_empirical, busy_workload):
        servers = (
            fixed_policy_server("xeon-0", xeon_power_model()),
            fixed_policy_server("atom-0", atom_power_model(), max_frequency=0.5),
        )
        farm = ServerFarm(
            servers=servers, spec=dns_empirical, dispatcher=LeastLoadedDispatcher()
        )
        assert farm.dispatch_speeds == (1.0, pytest.approx(0.5))
        result = farm.run(busy_workload)
        expected = LeastLoadedDispatcher().assign(
            busy_workload, 2, server_speeds=farm.dispatch_speeds
        )
        counts = np.bincount(expected, minlength=2)
        rows = result.per_server_rows()
        assert [row["num_jobs"] for row in rows] == [counts[0], counts[1]]
        # And the speed-aware split differs from the blind one on this farm.
        blind = LeastLoadedDispatcher().assign(busy_workload, 2)
        assert not np.array_equal(expected, blind)

    def test_homogeneous_farm_threads_speed_model(self, dns_empirical):
        xeon = xeon_power_model()
        farm = ServerFarm.homogeneous(
            2,
            xeon,
            dns_empirical,
            lambda index: FixedPolicyStrategy(race_to_halt_policy(xeon, C6_S0I)),
            lambda index: NaivePreviousPredictor(),
            scaling=partially_bound(0.5),
            max_frequency=0.25,
        )
        assert farm.dispatch_speeds == (pytest.approx(0.5), pytest.approx(0.5))
        assert all(spec.scaling == partially_bound(0.5) for spec in farm.servers)


class TestFarmResultAccounting:
    def make_result(self, dns_empirical, busy_workload):
        farm = ServerFarm(
            servers=(
                fixed_policy_server("xeon-0", xeon_power_model()),
                fixed_policy_server("atom-0", atom_power_model()),
            ),
            spec=dns_empirical,
        )
        return farm.run(busy_workload)

    def test_response_times_cached(self, dns_empirical, busy_workload, monkeypatch):
        result = self.make_result(dns_empirical, busy_workload)
        calls = {"count": 0}
        original = np.concatenate

        def counting_concatenate(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        import repro.cluster.farm as farm_module

        monkeypatch.setattr(farm_module.np, "concatenate", counting_concatenate)
        first = result.response_times
        _ = result.mean_response_time
        _ = result.meets_budget
        _ = result.num_jobs
        _ = result.response_times
        # np.percentile may concatenate internally, so it is excluded from
        # the counted block; identity caching still covers it below.
        assert calls["count"] <= 1
        assert result.response_times is first  # same cached array object
        values = result.response_times
        result.response_time_percentile(95.0)
        assert result.response_times is values

    def test_meets_budget_explicit_with_zero_jobs(self, dns_empirical):
        """A farm that completed no jobs must not 'meet' any budget."""
        xeon = xeon_power_model()
        runtime_result = fixed_policy_server("x", xeon)  # reuse factory pieces
        empty_run = SleepScaleRuntime(
            power_model=xeon,
            spec=dns_empirical,
            strategy=FixedPolicyStrategy(race_to_halt_policy(xeon, C6_S0I)),
            predictor=NaivePreviousPredictor(),
            config=runtime_result.config,
        ).run(JobTrace.empty(), horizon=600.0)
        result = FarmResult(
            per_server=(empty_run,),
            mean_service_time=dns_empirical.mean_service_time,
            response_time_budget=5.0,
        )
        assert result.num_jobs == 0
        assert np.isnan(result.mean_response_time)
        assert result.meets_budget is False

    def test_prorated_idle_energy_guards_zero_spans(self):
        assert prorated_idle_energy(100.0, 50.0, 25.0) == pytest.approx(50.0)
        # A zero-length idle run or a zero horizon must not divide by zero.
        assert prorated_idle_energy(100.0, 0.0, 25.0) == 0.0
        assert prorated_idle_energy(100.0, 50.0, 0.0) == 0.0
        assert prorated_idle_energy(0.0, 0.0, 0.0) == 0.0
