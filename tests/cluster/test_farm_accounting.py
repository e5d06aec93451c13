"""Farm accounting: the one run path, dispatch speeds and bookkeeping.

Pins that every farm run takes one path — serial and process-sharded runs
agree bit for bit for every dispatcher, parked servers included, and no
``chunk_jobs`` knob selects another — what a process shard carries and
leaves behind when it fails, how a farm threads each server's
dispatch speed into its dispatcher, plus the accounting bug batch: cached
``FarmResult.response_times``, explicit ``meets_budget`` with zero
completed jobs, and the guarded parked-server idle proration.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.dispatch import (
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
    group_by_server,
)
from repro.cluster.farm import (
    FarmResult,
    ServerFarm,
    ServerShardTask,
    ServerSpec,
    prorated_idle_energy,
    run_server_shard,
)
from repro.core.runtime import RuntimeConfig, SleepScaleRuntime
from repro.core.strategies import FixedPolicyStrategy
from repro.exceptions import ConfigurationError, ExecutorError
from repro.experiments.scenario_runner import report_from_result, validate_report
from repro.policies.policy import race_to_halt_policy
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import C6_S0I
from repro.prediction.naive import NaivePreviousPredictor
from repro.scenarios import get_scenario
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


@dataclass(frozen=True)
class MarkingStrategyFactory:
    """Picklable factory that leaves a marker file when a shard starts."""

    directory: Path
    marker: str

    def __call__(self):
        time.sleep(0.1)
        (self.directory / self.marker).touch()
        return FixedPolicyStrategy(race_to_halt_policy(xeon_power_model(), C6_S0I))


def failing_strategy_factory():
    raise RuntimeError("shard 0 failed")


def crashing_strategy_factory():
    # Hard worker death: no exception, no cleanup handlers in the worker.
    os._exit(17)


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

    @pytest.mark.parametrize("surface", ["field", "homogeneous"])
    def test_trace_backend_knob_is_gone(self, dns_empirical, mixed_servers, surface):
        with pytest.raises(TypeError, match="trace_backend"):
            if surface == "field":
                ServerFarm(
                    servers=mixed_servers, spec=dns_empirical, trace_backend="mmap"
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
                    trace_backend="mmap",
                )


class TestServerShards:
    """The process work unit, and what a failing shard leaves behind."""

    @staticmethod
    def _tasks(farm, jobs):
        assignment = farm.dispatcher.validated_assignment(
            jobs, farm.num_servers, server_speeds=farm.dispatch_speeds
        )
        (arrivals, demands), ranges = group_by_server(
            assignment, farm.num_servers, jobs.arrival_times, jobs.service_demands
        )
        return [
            ServerShardTask(
                server=server,
                spec=farm.spec,
                arrivals=arrivals[bounds],
                demands=demands[bounds],
            )
            for server, bounds in zip(farm.servers, ranges, strict=True)
        ]

    def test_shard_task_reproduces_the_serial_server(
        self, dns_empirical, busy_workload, mixed_servers
    ):
        serial = ServerFarm(servers=mixed_servers, spec=dns_empirical).run(
            busy_workload
        )
        farm = ServerFarm(servers=mixed_servers, spec=dns_empirical)
        for index, task in enumerate(self._tasks(farm, busy_workload)):
            shard = run_server_shard(task)
            expected = serial.per_server[index]
            np.testing.assert_array_equal(shard.response_times, expected.response_times)
            assert shard.total_energy == expected.total_energy

    def test_shard_task_pickles_only_its_slice(
        self, dns_empirical, busy_workload, mixed_servers
    ):
        farm = ServerFarm(servers=mixed_servers, spec=dns_empirical)
        for task in self._tasks(farm, busy_workload):
            empty = ServerShardTask(
                server=task.server,
                spec=task.spec,
                arrivals=task.arrivals[:0],
                demands=task.demands[:0],
            )
            payload = len(pickle.dumps(task)) - len(pickle.dumps(empty))
            # Two float64 values per job of this server's slice (plus pickle
            # framing), never the grouped arrays the slices are views of.
            assert 16 * len(task.arrivals) <= payload <= 16 * len(task.arrivals) + 64
            assert 2 * len(task.arrivals) < len(busy_workload)

    def test_failed_shard_starts_no_queued_shard(
        self, dns_empirical, busy_workload, tmp_path
    ):
        servers = [fixed_policy_server("xeon-0", xeon_power_model())]
        servers[0] = ServerSpec(
            name="xeon-0",
            power_model=servers[0].power_model,
            strategy_factory=failing_strategy_factory,
            predictor_factory=NaivePreviousPredictor,
            config=servers[0].config,
        )
        for index in range(1, 8):
            template = fixed_policy_server(f"xeon-{index}", xeon_power_model())
            servers.append(
                ServerSpec(
                    name=template.name,
                    power_model=template.power_model,
                    strategy_factory=MarkingStrategyFactory(tmp_path, template.name),
                    predictor_factory=NaivePreviousPredictor,
                    config=template.config,
                )
            )
        farm = ServerFarm(
            servers=tuple(servers),
            spec=dns_empirical,
            dispatcher=RoundRobinDispatcher(),
            executor="process",
            max_workers=1,
        )
        with pytest.raises(RuntimeError, match="shard 0 failed"):
            farm.run(busy_workload)
        # Shards already handed to the worker may still run; the rest not.
        assert len(list(tmp_path.glob("xeon-*"))) <= 4

    @pytest.mark.parametrize(
        "strategy_factory, error",
        [
            (None, None),
            (lambda: None, ExecutorError),
            (crashing_strategy_factory, BrokenProcessPool),
        ],
        ids=["normal-run", "executor-error", "worker-crash"],
    )
    def test_no_worker_process_survives_a_farm_run(
        self, dns_empirical, busy_workload, mixed_servers, strategy_factory, error
    ):
        servers = mixed_servers
        if strategy_factory is not None:
            first = mixed_servers[0]
            servers = (
                ServerSpec(
                    name=first.name,
                    power_model=first.power_model,
                    strategy_factory=strategy_factory,
                    predictor_factory=first.predictor_factory,
                    config=first.config,
                ),
                *mixed_servers[1:],
            )
        farm = ServerFarm(
            servers=servers, spec=dns_empirical, executor="process", max_workers=2
        )
        if error is None:
            assert farm.run(busy_workload).num_jobs == len(busy_workload)
        else:
            with pytest.raises(error):
                farm.run(busy_workload)
        assert multiprocessing.active_children() == []


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

    def test_job_at_the_run_horizon_is_served(self):
        """Regression: a job arriving exactly at the end of the last epoch
        was left out of every epoch, and only the report's job-conservation
        check noticed."""
        built = get_scenario("diurnal").build(seed=0, duration_minutes=5)
        arrivals = built.jobs.arrival_times.copy()
        arrivals[-1] = 300.0
        built = dataclasses.replace(
            built, jobs=JobTrace(arrivals, built.jobs.service_demands)
        )
        result = built.farm.run(built.jobs)
        assert result.num_jobs == len(built.jobs)
        validate_report(report_from_result(built, result))

    def test_prorated_idle_energy_guards_zero_spans(self):
        assert prorated_idle_energy(100.0, 50.0, 25.0) == pytest.approx(50.0)
        # A zero-length idle run or a zero horizon must not divide by zero.
        assert prorated_idle_energy(100.0, 0.0, 25.0) == 0.0
        assert prorated_idle_energy(100.0, 50.0, 0.0) == 0.0
        assert prorated_idle_energy(0.0, 0.0, 0.0) == 0.0
