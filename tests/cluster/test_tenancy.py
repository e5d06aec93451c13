"""Unit coverage for the multi-tenant QoS surface (PR 10).

Tenant tables (:class:`TenantSpec`, :class:`FarmQos`), server
partitioning, label plumbing through every :class:`JobTrace`
transformation and through dispatch, per-tenant result rows, the
isolation metric suite, and the ``run-scenario`` report/CLI surface.
The bit-identity legs (strictest vs no qos, single-tenant dispatcher
degeneracy) live in ``test_tenancy_parity.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.dispatch import LeastLoadedDispatcher, merge_streams
from repro.cluster.tenancy import (
    CompositeQosConstraint,
    FarmQos,
    PriorityDispatcher,
    TenantSpec,
    WeightedFairDispatcher,
    isolation_report,
    make_tenant_dispatcher,
    tenant_outcomes,
    tenant_partitions,
)
from repro.core.qos import (
    mean_qos_from_baseline,
    percentile_qos_from_baseline,
)
from repro.exceptions import (
    ConfigurationError,
    ExperimentError,
    ScenarioError,
    TraceError,
)
from repro.scenarios import get_scenario
from repro.workloads.jobs import JobTrace


def _mean_qos():
    return mean_qos_from_baseline(0.8)


def _two_tenants():
    return (
        TenantSpec(name="alpha", qos=_mean_qos()),
        TenantSpec(name="beta", qos=_mean_qos(), weight=2.0, priority=1),
    )


def _labelled_trace(num_jobs: int = 40, num_tenants: int = 2) -> JobTrace:
    rng = np.random.default_rng(7)
    arrivals = np.cumsum(rng.exponential(0.05, size=num_jobs))
    demands = rng.exponential(0.02, size=num_jobs)
    labels = rng.integers(0, num_tenants, size=num_jobs)
    return JobTrace(arrivals, demands, tenant_ids=labels)


class TestTenantSpec:
    def test_defaults(self):
        tenant = TenantSpec(name="web", qos=_mean_qos())
        assert tenant.weight == 1.0
        assert tenant.priority == 0

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            TenantSpec(name="", qos=_mean_qos())

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_weight(self, weight):
        with pytest.raises(ConfigurationError, match="weight"):
            TenantSpec(name="web", qos=_mean_qos(), weight=weight)

    def test_rejects_non_qos(self):
        with pytest.raises(ConfigurationError, match="qos"):
            TenantSpec(name="web", qos=object())

    def test_rejects_non_integer_priority(self):
        with pytest.raises(ConfigurationError, match="priority"):
            TenantSpec(name="web", qos=_mean_qos(), priority=1.5)


class TestFarmQos:
    def test_strictest_carries_no_tenants(self):
        qos = FarmQos.strictest()
        assert not qos.is_per_tenant
        assert qos.tenants == ()
        assert qos.composite_constraint() is None
        with pytest.raises(ConfigurationError):
            FarmQos(mode="strictest", tenants=_two_tenants())

    def test_strictest_wraps_an_explicit_constraint(self):
        constraint = _mean_qos()
        assert FarmQos.strictest(constraint).composite_constraint() is constraint

    def test_per_tenant_needs_at_least_one_tenant(self):
        with pytest.raises(ConfigurationError):
            FarmQos.per_tenant()

    def test_per_tenant_rejects_duplicate_names(self):
        tenant = TenantSpec(name="web", qos=_mean_qos())
        with pytest.raises(ConfigurationError, match="unique"):
            FarmQos.per_tenant(tenant, tenant)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            FarmQos(mode="fair-share")

    def test_tenant_names_and_index_of(self):
        qos = FarmQos.per_tenant(*_two_tenants())
        assert qos.is_per_tenant
        assert qos.tenant_names == ("alpha", "beta")
        assert qos.index_of("beta") == 1
        with pytest.raises(ConfigurationError, match="gamma"):
            qos.index_of("gamma")

    def test_composite_constraint_joins_all_tenants(self):
        qos = FarmQos.per_tenant(*_two_tenants())
        composite = qos.composite_constraint()
        assert isinstance(composite, CompositeQosConstraint)
        description = composite.describe()
        assert "[alpha]" in description and "[beta]" in description
        assert " AND " in description


class TestTenantPartitions:
    def test_even_split_with_equal_weights(self):
        tenants = (
            TenantSpec(name="a", qos=_mean_qos()),
            TenantSpec(name="b", qos=_mean_qos()),
        )
        assert tenant_partitions(4, tenants) == ((0, 2), (2, 2))

    def test_weights_shift_the_spare_servers(self):
        tenants = (
            TenantSpec(name="a", qos=_mean_qos(), weight=3.0),
            TenantSpec(name="b", qos=_mean_qos(), weight=1.0),
        )
        assert tenant_partitions(6, tenants) == ((0, 4), (4, 2))

    def test_every_tenant_gets_a_server(self):
        tenants = (
            TenantSpec(name="a", qos=_mean_qos(), weight=100.0),
            TenantSpec(name="b", qos=_mean_qos(), weight=0.001),
        )
        assert tenant_partitions(3, tenants) == ((0, 2), (2, 1))

    def test_rejects_fewer_servers_than_tenants(self):
        with pytest.raises(ConfigurationError, match="at least one server"):
            tenant_partitions(1, _two_tenants())

    def test_rejects_zero_tenants(self):
        with pytest.raises(ConfigurationError, match="zero tenants"):
            tenant_partitions(2, ())


class TestLabelPlumbing:
    def test_labels_validated(self):
        with pytest.raises(TraceError, match="labels"):
            JobTrace([0.0, 1.0], [0.1, 0.1], tenant_ids=[0])
        with pytest.raises(TraceError, match="non-negative"):
            JobTrace([0.0, 1.0], [0.1, 0.1], tenant_ids=[0, -1])
        with pytest.raises(TraceError, match="integers"):
            JobTrace([0.0, 1.0], [0.1, 0.1], tenant_ids=[0.5, 1.0])

    def test_with_tenant_ids_round_trip(self):
        trace = JobTrace([0.0, 1.0], [0.1, 0.1])
        assert trace.tenant_ids is None
        labelled = trace.with_tenant_ids([1, 0])
        assert labelled.tenant_ids is not None
        assert labelled.tenant_ids.tolist() == [1, 0]
        assert labelled.with_tenant_ids(None).tenant_ids is None

    def test_transformations_preserve_labels(self):
        trace = _labelled_trace()
        labels = trace.tenant_ids.tolist()
        assert trace.shifted(5.0).tenant_ids.tolist() == labels
        assert trace.scaled_interarrivals(2.0).tenant_ids.tolist() == labels
        assert trace.head(10).tenant_ids.tolist() == labels[:10]
        assert trace.tail(10).tenant_ids.tolist() == labels[-10:]
        window = trace.slice_by_time(trace.start_time, trace.end_time / 2)
        assert window is not None
        assert window.tenant_ids.tolist() == labels[: len(window)]

    def test_dispatch_round_trip_preserves_labels(self):
        trace = _labelled_trace()
        streams = LeastLoadedDispatcher().dispatch(trace, 3)
        merged = merge_streams(streams)
        assert merged == trace
        assert merged.tenant_ids.tolist() == trace.tenant_ids.tolist()

    def test_merge_rejects_mixed_labelling(self):
        labelled = _labelled_trace(10)
        plain = JobTrace(labelled.arrival_times, labelled.service_demands)
        with pytest.raises(TraceError, match="labelled"):
            merge_streams([labelled, plain])

    def test_equality_sees_labels(self):
        trace = JobTrace([0.0, 1.0], [0.1, 0.1])
        assert trace.with_tenant_ids([0, 1]) != trace.with_tenant_ids([1, 0])
        assert trace.with_tenant_ids([0, 1]) != trace


class TestTenantDispatchers:
    def test_make_tenant_dispatcher_kinds(self):
        tenants = _two_tenants()
        assert isinstance(
            make_tenant_dispatcher("least-loaded", tenants), LeastLoadedDispatcher
        )
        assert isinstance(
            make_tenant_dispatcher("priority", tenants), PriorityDispatcher
        )
        assert isinstance(
            make_tenant_dispatcher("weighted-fair", tenants), WeightedFairDispatcher
        )
        with pytest.raises(ConfigurationError, match="dispatch"):
            make_tenant_dispatcher("round-robin", tenants)

    def test_with_tenants_rebuilds_the_table(self):
        dispatcher = PriorityDispatcher(_two_tenants())
        rebuilt = dispatcher.with_tenants(
            (TenantSpec(name="solo", qos=_mean_qos()),)
        )
        assert rebuilt.tenants[0].name == "solo"

    def test_weighted_fair_confines_each_tenant_to_its_block(self):
        trace = _labelled_trace(200)
        dispatcher = WeightedFairDispatcher(_two_tenants())
        assignment = dispatcher.assign(trace, 6)
        partitions = tenant_partitions(6, dispatcher.tenants)
        for tenant, (start, size) in enumerate(partitions):
            servers = assignment[np.asarray(trace.tenant_ids) == tenant]
            assert servers.min() >= start
            assert servers.max() < start + size

    def test_priority_never_pushes_the_crowd_upward(self):
        """Low-priority jobs stay at or below their own block."""
        trace = _labelled_trace(200)
        dispatcher = PriorityDispatcher(_two_tenants())
        assignment = dispatcher.assign(trace, 4)
        # beta has priority 1 > alpha's 0, so beta owns the top block and
        # alpha's block starts after it (blocks are laid out in
        # descending priority order; alpha may still overflow downward,
        # but there is nothing below it).
        partitions = tenant_partitions(
            4,
            (
                TenantSpec(name="beta", qos=_mean_qos(), weight=2.0, priority=1),
                TenantSpec(name="alpha", qos=_mean_qos()),
            ),
        )
        alpha_start = partitions[1][0]
        alpha_servers = assignment[np.asarray(trace.tenant_ids) == 0]
        assert alpha_servers.min() >= alpha_start

    def test_labelled_trace_required_when_multi_tenant(self):
        plain = JobTrace([0.0, 1.0], [0.1, 0.1])
        dispatcher = WeightedFairDispatcher(_two_tenants())
        with pytest.raises(ConfigurationError, match="label"):
            dispatcher.assign(plain, 4)


class TestTenantOutcomes:
    def test_empty_tenant_meets_vacuously(self):
        qos = FarmQos.per_tenant(*_two_tenants())
        tenant_ids = np.zeros(5, dtype=np.int64)  # all jobs belong to alpha
        response_times = np.full(5, 0.01)
        rows = tenant_outcomes(qos, tenant_ids, response_times, 0.02, 10.0)
        assert rows[0].num_jobs == 5
        assert rows[1].num_jobs == 0
        assert rows[1].meets_budget is True
        assert np.isnan(rows[1].p95)

    def test_needs_per_tenant_qos(self):
        with pytest.raises(ConfigurationError, match="per-tenant"):
            tenant_outcomes(
                FarmQos.strictest(), np.zeros(1), np.zeros(1), 0.02, 1.0
            )


@pytest.fixture(scope="module")
def noisy_results():
    """The noisy-neighbor scenario at a fast length where the flip holds."""
    results = {}
    for dispatcher in ("least-loaded", "priority", "weighted-fair"):
        built = get_scenario("noisy-neighbor").build(
            seed=9,
            duration_minutes=15,
            crowd_start_minute=4,
            crowd_minutes=11,
            dispatcher=dispatcher,
        )
        results[dispatcher] = (built, built.run())
    return results


class TestIsolationFlip:
    """The PR's acceptance gate: tenant-aware dispatch protects the victim."""

    def test_least_loaded_lets_the_crowd_violate_the_victim(self, noisy_results):
        _, result = noisy_results["least-loaded"]
        meets = result.tenant_meets_budget()
        assert meets["victim"] is False

    @pytest.mark.parametrize("dispatcher", ["priority", "weighted-fair"])
    def test_tenant_aware_dispatch_protects_the_victim(
        self, noisy_results, dispatcher
    ):
        _, result = noisy_results[dispatcher]
        assert result.tenant_meets_budget()["victim"] is True

    def test_isolation_report_attributes_the_violation(self, noisy_results):
        built, combined = noisy_results["least-loaded"]
        report_result, rows = isolation_report(built.farm, built.jobs)
        assert report_result.tenant_meets_budget() == (
            combined.tenant_meets_budget()
        )
        by_name = {row.name: row for row in rows}
        victim = by_name["victim"]
        # Alone, the lightly-loaded victim easily meets its p95 SLA; the
        # violation only appears under the shared run — the definition of
        # an interference violation.
        assert victim.meets_budget_solo is True
        assert victim.meets_budget_combined is False
        assert victim.interference_violation is True
        assert victim.p95_delta > 0

    def test_isolation_report_needs_a_per_tenant_farm(self, noisy_results):
        built, _ = noisy_results["least-loaded"]
        farm = dataclasses.replace(built.farm, qos=None)
        with pytest.raises(ConfigurationError, match="per_tenant"):
            isolation_report(farm, built.jobs)

    def test_isolation_report_needs_a_labelled_trace(self, noisy_results):
        built, _ = noisy_results["least-loaded"]
        plain = built.jobs.with_tenant_ids(None)
        with pytest.raises(ConfigurationError, match="label"):
            isolation_report(built.farm, plain)


class TestScenarioQosKnob:
    def test_build_rejects_a_non_qos(self):
        with pytest.raises(ScenarioError, match="FarmQos"):
            get_scenario("diurnal").build(qos=object(), duration_minutes=4)

    def test_build_attaches_farm_qos(self):
        qos = FarmQos.strictest()
        built = get_scenario("diurnal").build(qos=qos, duration_minutes=4)
        assert built.farm.qos is qos

    def test_bare_constraint_is_rejected_naming_the_fix(self):
        constraint = percentile_qos_from_baseline(0.8, 0.01)
        with pytest.raises(ScenarioError, match=r"FarmQos\.strictest\(constraint\)"):
            get_scenario("diurnal").build(qos=constraint, duration_minutes=4)
        farm = get_scenario("diurnal").build(duration_minutes=4).farm
        with pytest.raises(
            ConfigurationError, match=r"FarmQos\.strictest\(constraint\)"
        ):
            dataclasses.replace(farm, qos=constraint)
        # The named fix is accepted.
        wrapped = dataclasses.replace(farm, qos=FarmQos.strictest(constraint))
        assert wrapped.qos.composite_constraint() is constraint

    def test_qos_is_a_reserved_parameter_name(self):
        from repro.scenarios.base import Scenario

        assert "qos" in Scenario.RESERVED_NAMES


class TestScenarioRunnerTenants:
    def test_plain_scenario_reports_an_empty_tenants_block(self):
        from repro.experiments.scenario_runner import (
            run_scenario,
            validate_report,
        )

        report = run_scenario("diurnal", overrides={"duration_minutes": 4})
        validate_report(report)
        assert report["tenants"] == {
            "mode": "none",
            "constraint": None,
            "rows": [],
            "isolation": None,
        }

    def test_per_tenant_scenario_reports_rows(self):
        from repro.experiments.scenario_runner import (
            run_scenario,
            validate_report,
        )

        report = run_scenario(
            "noisy-neighbor", overrides={"duration_minutes": 5}
        )
        validate_report(report)
        block = report["tenants"]
        assert block["mode"] == "per-tenant"
        assert [row["name"] for row in block["rows"]] == ["crowd", "victim"]
        assert sum(row["num_jobs"] for row in block["rows"]) == (
            report["workload"]["num_jobs"]
        )

    def test_tenant_override_changes_weight_and_qos(self):
        from repro.experiments.scenario_runner import (
            run_scenario,
            validate_report,
        )

        report = run_scenario(
            "noisy-neighbor",
            overrides={"duration_minutes": 5},
            tenants=["victim:qos=p99:weight=3:priority=2"],
        )
        validate_report(report)
        victim = next(
            row for row in report["tenants"]["rows"] if row["name"] == "victim"
        )
        assert victim["weight"] == 3.0
        assert victim["priority"] == 2
        assert victim["qos"].startswith("p99")

    def test_isolation_flag_fills_the_isolation_rows(self):
        from repro.experiments.scenario_runner import (
            run_scenario,
            validate_report,
        )

        report = run_scenario(
            "noisy-neighbor",
            overrides={"duration_minutes": 5},
            isolation=True,
        )
        validate_report(report)
        rows = report["tenants"]["isolation"]
        assert rows is not None
        assert {row["name"] for row in rows} == {"crowd", "victim"}

    @pytest.mark.parametrize(
        ("tenant", "match"),
        [
            ("bogus:weight=2", "unknown tenant"),
            ("victim:qos=p50", "qos"),
            ("victim", "form"),
            ("victim:weight=zero", "number"),
            ("victim:weight=0", "positive"),
            ("victim:priority=high", "integer"),
            ("victim:shares=2", "unknown tenant setting"),
        ],
    )
    def test_bad_tenant_specs_fail_loudly(self, tenant, match):
        from repro.experiments.scenario_runner import run_scenario

        with pytest.raises(ExperimentError, match=match):
            run_scenario(
                "noisy-neighbor",
                overrides={"duration_minutes": 5},
                tenants=[tenant],
            )

    def test_tenant_flags_need_a_per_tenant_scenario(self):
        from repro.experiments.scenario_runner import run_scenario

        with pytest.raises(ExperimentError, match="per-tenant"):
            run_scenario(
                "diurnal",
                overrides={"duration_minutes": 4},
                tenants=["x:weight=2"],
            )
        with pytest.raises(ExperimentError, match="per-tenant"):
            run_scenario(
                "diurnal", overrides={"duration_minutes": 4}, isolation=True
            )

    def test_qos_is_a_reserved_runner_override(self):
        from repro.experiments.scenario_runner import run_scenario

        with pytest.raises(ExperimentError, match="qos"):
            run_scenario("diurnal", overrides={"qos": "strictest"})

    def test_cli_tenant_and_isolation_flags(self, tmp_path, capsys):
        import json

        from repro.experiments.scenario_runner import main, validate_report

        output = tmp_path / "report.json"
        code = main(
            [
                "noisy-neighbor",
                "--set",
                "duration_minutes=5",
                "--tenant",
                "victim:weight=2",
                "--isolation",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads(output.read_text())
        validate_report(report)
        victim = next(
            row for row in report["tenants"]["rows"] if row["name"] == "victim"
        )
        assert victim["weight"] == 2.0
        assert report["tenants"]["isolation"] is not None

    def test_validate_report_rejects_job_leakage(self):
        from repro.experiments.scenario_runner import (
            run_scenario,
            validate_report,
        )

        report = run_scenario(
            "noisy-neighbor", overrides={"duration_minutes": 5}
        )
        report["tenants"]["rows"][0]["num_jobs"] += 1
        with pytest.raises(ExperimentError, match="conservation"):
            validate_report(report)


class TestMulticlassPromotion:
    def test_multiclass_reports_per_class_rows(self):
        built = get_scenario("multiclass").build(seed=3, duration_minutes=5)
        result = built.run()
        rows = {row.name: row for row in result.tenant_rows()}
        assert set(rows) == {"dns", "google"}
        assert rows["dns"].num_jobs + rows["google"].num_jobs == len(built.jobs)
        # Each class is judged in absolute seconds against its own
        # service time, so the budgets differ by orders of magnitude.
        assert rows["dns"].qos_description != rows["google"].qos_description
