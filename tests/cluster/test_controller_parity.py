"""A setup-free always-on controller must be result-invisible.

The controller contract's oracle leg (the analogue of the executor parity
suite): attaching a ``FarmController`` whose policy is
``always-on`` and whose ``SetupModel`` is free produces **bit-identical**
``FarmResult``s to a plain, uncontrolled ``ServerFarm.run`` — same total
energy, same per-server response-time arrays (hence dispatch assignments),
same per-epoch policy selections.  This suite pins that across every
registered scenario and both executors, plus the
``ServerFarm.homogeneous`` threading and the ``Scenario.build``/CLI
plumbing.  It also holds the deterministic savings gate: reactive
right-sizing saves at least 15% of the always-on energy at equal QoS.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.controller import FarmController, SetupModel
from repro.exceptions import ExperimentError, ScenarioError
from repro.scenarios import available_scenarios, get_scenario
from tests.cluster.test_executor_parity import (
    _tiny_overrides,
    assert_farm_results_identical,
)

#: The executors the contract quantifies over.
GRID = ("serial", "process")


def _free_always_on() -> FarmController:
    return FarmController(policy="always-on", setup=SetupModel.free())


def _plain_oracle(name: str, overrides: dict):
    """Uncontrolled serial reference run for *name*.

    The autoscale scenarios embed a reactive controller by construction, so
    the oracle strips whatever controller the builder attached.
    """
    built = get_scenario(name).build(seed=9, executor="serial", **overrides)
    if built.farm.controller is not None:
        built = dataclasses.replace(
            built, farm=dataclasses.replace(built.farm, controller=None)
        )
    return built.run()


class TestAlwaysOnParityEverywhere:
    """All registered scenarios × {serial,process}."""

    @pytest.fixture(params=sorted(available_scenarios()))
    def name(self, request):
        return request.param

    def test_setup_free_always_on_matches_uncontrolled(self, name):
        overrides = _tiny_overrides(name)
        oracle = _plain_oracle(name, overrides)
        for executor in GRID:
            built = get_scenario(name).build(
                seed=9,
                executor=executor,
                controller=_free_always_on(),
                **overrides,
            )
            built.farm.max_workers = 2
            result = built.run()
            assert_farm_results_identical(oracle, result)
            # The controlled run additionally reports its (full-fleet)
            # schedule and a zero setup bill.
            assert result.setup_energy == 0.0, executor
            assert result.awake_counts is not None, executor
            assert set(result.awake_counts) == {built.farm.num_servers}
            assert result.wake_transitions == ()


class TestPredictivePolicyParity:
    """The ``predictive`` policy is deterministic and executor-invariant.

    Unlike ``always-on``, a predictive controller actually re-sizes the
    fleet, so there is no uncontrolled oracle to compare against; the
    contract is instead that the serial/memory run *is* the oracle and the
    process fast path reproduces it bit-identically.
    """

    def _run(self, executor: str):
        overrides = _tiny_overrides("diurnal")
        built = get_scenario("diurnal").build(
            seed=9,
            executor=executor,
            controller=FarmController(policy="predictive", setup=SetupModel.free()),
            **overrides,
        )
        built.farm.max_workers = 2
        return built.run()

    def test_predictive_matches_serial_oracle_on_every_executor(self):
        oracle = self._run("serial")
        assert oracle.awake_counts is not None
        assert_farm_results_identical(oracle, self._run("process"))

    def test_predictive_repeat_run_is_bit_identical(self):
        assert_farm_results_identical(self._run("serial"), self._run("serial"))


class TestRightSizingSavings:
    """Right-sizing pays: the reactive policy's energy gate at equal QoS.

    ``autoscale-diurnal`` (seed 0, 12 min, 4 shallow-sleep Xeons, 30 s
    setup) is deterministic, so the bound holds on any machine (measured
    39.4% savings).
    """

    SIZES = dict(seed=0, duration_minutes=12, servers=4, setup_latency_s=30.0)

    def test_reactive_saves_15_percent_of_always_on_at_equal_qos(self):
        scenario = get_scenario("autoscale-diurnal")
        always_on = scenario.build(policy="always-on", **self.SIZES).run()
        reactive = scenario.build(policy="reactive", **self.SIZES).run()
        # Both must meet the budget, or "equal QoS" would be vacuous.
        assert always_on.meets_budget
        assert reactive.meets_budget
        assert 1.0 - reactive.total_energy / always_on.total_energy >= 0.15


class TestControllerPlumbing:
    def test_build_policy_name_means_free_setup(self):
        built = get_scenario("diurnal").build(
            controller="always-on", **_tiny_overrides("diurnal")
        )
        controller = built.farm.controller
        assert controller is not None
        assert controller.policy_name == "always-on"
        assert controller.setup.is_free

    def test_build_replaces_the_embedded_controller(self):
        name = "autoscale-diurnal"
        embedded = get_scenario(name).build(**_tiny_overrides(name))
        assert embedded.farm.controller is not None
        assert embedded.farm.controller.policy_name == "reactive"
        swapped = get_scenario(name).build(
            controller=_free_always_on(), **_tiny_overrides(name)
        )
        assert swapped.farm.controller.policy_name == "always-on"

    def test_build_rejects_a_non_controller(self):
        with pytest.raises(ScenarioError, match="FarmController"):
            get_scenario("diurnal").build(controller=object())

    def test_homogeneous_farm_threads_the_controller_through(self):
        from repro.cluster.farm import ServerFarm
        from repro.core.runtime import RuntimeConfig
        from repro.power.platform import xeon_power_model
        from repro.workloads.generator import generate_jobs
        from repro.workloads.spec import dns_workload
        from tests.cluster.test_executor_parity import (
            _predictor_for,
            _strategy_for,
        )

        spec = dns_workload()
        jobs = generate_jobs(spec, num_jobs=1500, utilization=0.4, seed=3)

        def cluster(controller):
            return ServerFarm.homogeneous(
                3,
                xeon_power_model(),
                spec,
                _strategy_for,
                _predictor_for,
                config=RuntimeConfig(epoch_minutes=1.0, rho_b=0.8),
                controller=controller,
            )

        plain = cluster(None)
        controlled = cluster(_free_always_on())
        assert controlled.controller is not None
        assert_farm_results_identical(plain.run(jobs), controlled.run(jobs))

    def test_run_scenario_rejects_controller_override(self):
        from repro.experiments.scenario_runner import run_scenario

        with pytest.raises(ExperimentError, match="controller"):
            run_scenario("diurnal", overrides={"controller": "reactive"})

    def test_run_scenario_rejects_setup_flags_without_controller(self):
        from repro.experiments.scenario_runner import run_scenario

        with pytest.raises(ExperimentError, match="controller"):
            run_scenario(
                "diurnal",
                overrides={"duration_minutes": 4},
                setup_latency_s=30.0,
            )

    def test_report_controller_block_round_trips(self):
        from repro.experiments.scenario_runner import (
            REPORT_SCHEMA,
            run_scenario,
            validate_report,
        )

        report = run_scenario(
            "autoscale-diurnal",
            seed=3,
            overrides={"duration_minutes": 6},
        )
        assert report["schema"] == REPORT_SCHEMA
        validate_report(report)
        block = report["controller"]
        assert block is not None
        assert block["policy"] == "reactive"
        assert block["min_awake"] == 1
        assert block["setup_latency_s"] == 30.0
        assert len(block["awake_counts"]) >= 1

    def test_report_without_controller_has_null_block(self):
        from repro.experiments.scenario_runner import run_scenario, validate_report

        report = run_scenario(
            "diurnal", seed=0, overrides={"duration_minutes": 4}
        )
        assert report["controller"] is None
        validate_report(report)
