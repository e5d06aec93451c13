"""Serial and process executors must be result-invisible.

The executor contract for farms (the analogue of the backend, dispatch
-engine and search-engine oracle contracts): whichever executor runs the
per-server epoch loops, a farm produces **bit-identical** ``FarmResult``s —
same total energy, same per-server dispatch assignments (hence per-server
response-time arrays), and same per-epoch policy selections.  This suite
pins that across every registered scenario, for
``ServerFarm.homogeneous`` farms, for chunked runs, and for the other
``fan_out`` call sites (``sweep_states``, ``run_experiments``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster.farm import ServerFarm, ServerSpec
from repro.cluster.dispatch import LeastLoadedDispatcher
from repro.core.qos import mean_qos_from_baseline
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import sleepscale_strategy
from repro.exceptions import ExecutorError
from repro.experiments.runner import run_experiments
from repro.power.platform import xeon_power_model
from repro.prediction.lms_cusum import LmsCusumPredictor
from repro.scenarios import available_scenarios, get_scenario
from repro.simulation.sweep import sweep_states
from repro.power.states import C1_S0I, C3_S0I
from repro.workloads.generator import generate_jobs
from repro.workloads.spec import dns_workload



def _floats_identical(left: float, right: float) -> bool:
    if math.isnan(left) and math.isnan(right):
        return True
    return left == right


def _epoch_signature(result):
    return [
        (
            epoch.index,
            epoch.policy_label,
            epoch.sleep_state,
            epoch.selected_frequency,
            epoch.applied_frequency,
            epoch.over_provisioned,
            epoch.num_jobs,
            epoch.energy_joules,
        )
        for epoch in result.epochs
    ]


def assert_farm_results_identical(expected, actual):
    """Bit-identical FarmResults: energy, assignments, selections."""
    assert actual.num_servers == expected.num_servers
    assert actual.total_energy == expected.total_energy
    assert actual.response_time_budget == expected.response_time_budget
    assert actual.idle_energies == expected.idle_energies
    assert actual.server_names == expected.server_names
    for index, (one, other) in enumerate(
        zip(expected.per_server, actual.per_server)
    ):
        assert (one is None) == (other is None), f"server {index} activity"
        if one is None:
            continue
        # Identical response-time arrays imply identical dispatch
        # assignments (each server saw exactly the same sub-stream).
        assert np.array_equal(one.response_times, other.response_times), (
            f"server {index} response times"
        )
        assert one.total_energy == other.total_energy, f"server {index} energy"
        assert _epoch_signature(one) == _epoch_signature(other), (
            f"server {index} per-epoch selections"
        )
        assert _floats_identical(
            one.mean_response_time, other.mean_response_time
        ), f"server {index} mean response time"


def _tiny_overrides(name: str) -> dict:
    """Shrink any scenario to seconds without knowing it by name."""
    declared = get_scenario(name).parameter_defaults()
    overrides: dict = {"duration_minutes": 4}
    for key, small in (
        ("servers", 2),
        ("xeon_servers", 2),
        ("atom_servers", 2),
    ):
        if key in declared:
            overrides[key] = small
    return overrides


class TestEveryScenarioParity:
    """The equivalence suite the tentpole demands: all registered scenarios."""

    @pytest.fixture(params=sorted(available_scenarios()))
    def name(self, request):
        return request.param

    def test_process_matches_serial(self, name):
        overrides = _tiny_overrides(name)
        serial = get_scenario(name).build(
            seed=9, executor="serial", **overrides
        )
        oracle = serial.run()
        built = get_scenario(name).build(seed=9, executor="process", **overrides)
        built.farm.max_workers = 2
        assert_farm_results_identical(oracle, built.run())


def _strategy_for(index: int):
    return sleepscale_strategy(
        xeon_power_model(),
        mean_qos_from_baseline(0.8),
        characterization_jobs=300,
        seed=index,
    )


def _predictor_for(index: int):
    return LmsCusumPredictor(history=10)


@dataclass(frozen=True)
class _OutsideParentStrategy:
    """Per-index strategy factory that refuses to build in the test process."""

    parent_pid: int

    def __call__(self, index: int):
        if os.getpid() == self.parent_pid:
            raise AssertionError("strategy built in the parent process")
        return _strategy_for(index)


class TestHomogeneousFarmParity:
    def make_cluster(self, spec, executor=None, workers=None, strategy=_strategy_for):
        return ServerFarm.homogeneous(
            3,
            xeon_power_model(),
            spec,
            strategy,
            _predictor_for,
            config=RuntimeConfig(epoch_minutes=1.0, rho_b=0.8),
            max_workers=workers,
            executor=executor,
        )

    @pytest.fixture(scope="class")
    def jobs(self):
        return generate_jobs(
            dns_workload(), num_jobs=3000, utilization=0.5, seed=21
        )

    def test_process_matches_serial(self, jobs):
        spec = dns_workload()
        oracle = self.make_cluster(spec).run(jobs)
        sharded = self.make_cluster(spec, executor="process", workers=2).run(jobs)
        assert_farm_results_identical(oracle, sharded)

    def test_workers_without_executor_run_on_processes(self, jobs):
        """``max_workers=2`` alone selects the process executor.

        The strategy factory raises when called in the test process, so the
        run only completes if every server is built in a worker.
        """
        spec = dns_workload()
        oracle = self.make_cluster(spec).run(jobs)
        sharded = self.make_cluster(
            spec, workers=2, strategy=_OutsideParentStrategy(os.getpid())
        ).run(jobs)
        assert_farm_results_identical(oracle, sharded)


    def test_per_index_factories_pickle(self):
        import pickle

        farm = self.make_cluster(dns_workload())
        pickle.dumps(farm.servers[0].strategy_factory)
        pickle.dumps(farm.servers[-1].predictor_factory)


class TestUnpicklableWork:
    def test_lambda_factory_fails_with_clear_error(self):
        spec = dns_workload()
        power = xeon_power_model()
        server = ServerSpec(
            name="bad",
            power_model=power,
            strategy_factory=lambda: _strategy_for(0),
            predictor_factory=lambda: _predictor_for(0),
            config=RuntimeConfig(epoch_minutes=1.0, rho_b=0.8),
        )
        farm = ServerFarm(
            servers=(server,),
            spec=spec,
            dispatcher=LeastLoadedDispatcher(),
            executor="process",
        )
        jobs = generate_jobs(spec, num_jobs=200, utilization=0.3, seed=1)
        with pytest.raises(ExecutorError, match="pickl"):
            farm.run(jobs)

    def test_invalid_executor_rejected_at_construction(self):
        spec = dns_workload()
        server = ServerSpec(
            name="ok",
            power_model=xeon_power_model(),
            strategy_factory=lambda: _strategy_for(0),
            predictor_factory=lambda: _predictor_for(0),
        )
        for name in ("gpu", "thread"):
            with pytest.raises(ExecutorError, match="unknown executor"):
                ServerFarm(servers=(server,), spec=spec, executor=name)


class TestOtherFanOutSites:
    def test_sweep_states_process_matches_serial(self):
        spec = dns_workload()
        power = xeon_power_model()
        kwargs = dict(num_jobs=600, frequency_step=0.05, seed=5)
        serial = sweep_states(spec, [C1_S0I, C3_S0I], power, 0.3, **kwargs)
        sharded = sweep_states(
            spec,
            [C1_S0I, C3_S0I],
            power,
            0.3,
            executor="process",
            max_workers=2,
            **kwargs,
        )
        assert serial.keys() == sharded.keys()
        for label in serial:
            assert serial[label].points == sharded[label].points

    def test_run_experiments_process_matches_serial(self):
        serial = run_experiments(["table2"])
        sharded = run_experiments(["table2"], executor="process", max_workers=2)
        assert serial["table2"].rows == sharded["table2"].rows


class TestScenarioBuildExecutor:
    def test_build_applies_executor_to_the_farm(self):
        built = get_scenario("diurnal").build(
            executor="process", **_tiny_overrides("diurnal")
        )
        assert built.farm.executor == "process"

    def test_build_rejects_unknown_executor(self):
        with pytest.raises(ExecutorError, match="unknown executor"):
            get_scenario("diurnal").build(executor="gpu")

    def test_run_scenario_rejects_executor_override(self):
        from repro.exceptions import ExperimentError
        from repro.experiments.scenario_runner import run_scenario

        with pytest.raises(ExperimentError, match="executor"):
            run_scenario("diurnal", overrides={"executor": "process"})
