"""Bit-identity legs of the multi-tenant QoS contract (REP003 evidence).

Two oracles are pinned here:

* **farm-qos** — attaching ``FarmQos.strictest()`` (the "strictest"
  mode, with or without an explicit constraint) to any scenario's farm
  is bit-identical to attaching no qos at all, across every registered
  scenario and the executor × trace-backend grid; "per-tenant" mode is
  additionally result-invisible at farm level (same energy, same
  response times — only the ``tenancy`` accounting is new).
* **tenant-dispatch** — with a single tenant, the "priority" and
  "weighted-fair" dispatchers degenerate to the tenant-blind
  "least-loaded" oracle byte for byte (the single block spans the whole
  fleet), and chunked dispatch equals one-shot dispatch for both.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.dispatch import LeastLoadedDispatcher
from repro.cluster.tenancy import (
    FarmQos,
    PriorityDispatcher,
    TenantSpec,
    WeightedFairDispatcher,
)
from repro.core.qos import mean_qos_from_baseline
from repro.scenarios import available_scenarios, get_scenario
from tests.cluster.test_executor_parity import (
    _tiny_overrides,
    assert_farm_results_identical,
)

#: Executor × trace-backend grid the farm-qos contract quantifies over on
#: the representative scenario (every scenario is pinned serial/memory).
GRID = tuple(
    (executor, backend)
    for executor in ("serial", "process")
    for backend in ("memory", "mmap")
)


def _plain_oracle(name: str, overrides: dict):
    """Qos-free serial/memory reference run for *name*.

    The tenant scenarios embed a per-tenant FarmQos by construction, so
    the oracle strips whatever qos the builder attached.
    """
    built = get_scenario(name).build(seed=9, executor="serial", **overrides)
    if built.farm.qos is not None:
        built = dataclasses.replace(
            built, farm=dataclasses.replace(built.farm, qos=None)
        )
    return built.run()


class TestStrictestParityEverywhere:
    """``FarmQos.strictest()`` vs no qos: every registered scenario."""

    @pytest.fixture(params=sorted(available_scenarios()))
    def name(self, request):
        return request.param

    def test_strictest_matches_no_qos(self, name):
        overrides = _tiny_overrides(name)
        oracle = _plain_oracle(name, overrides)
        built = get_scenario(name).build(
            seed=9, executor="serial", qos=FarmQos.strictest(), **overrides
        )
        result = built.run()
        assert_farm_results_identical(oracle, result)
        # Strictest mode carries no tenant accounting.
        assert result.tenancy is None
        assert result.tenant_rows() == ()


class TestStrictestParityAcrossTheGrid:
    """The representative scenario across executors and trace backends."""

    def test_strictest_matches_no_qos_on_every_cell(self):
        overrides = _tiny_overrides("diurnal")
        oracle = _plain_oracle("diurnal", overrides)
        for executor, backend in GRID:
            built = get_scenario("diurnal").build(
                seed=9,
                executor=executor,
                trace_backend=backend,
                qos=FarmQos.strictest(),
                **overrides,
            )
            built.farm.max_workers = 2
            assert_farm_results_identical(oracle, built.run())


class TestPerTenantResultInvisibility:
    """"per-tenant" mode adds accounting without changing farm results."""

    @pytest.fixture(params=sorted(available_scenarios()))
    def name(self, request):
        return request.param

    def test_per_tenant_qos_only_adds_accounting(self, name):
        built = get_scenario(name).build(seed=9, **_tiny_overrides(name))
        qos = built.farm.qos
        if qos is None or not qos.is_per_tenant:
            pytest.skip("scenario is not multi-tenant")
        stripped = dataclasses.replace(
            built, farm=dataclasses.replace(built.farm, qos=None)
        )
        result = built.run()
        assert_farm_results_identical(stripped.run(), result)
        assert result.tenancy is not None
        rows = result.tenant_rows()
        assert [row.name for row in rows] == list(qos.tenant_names)
        assert sum(row.num_jobs for row in rows) == len(built.jobs)

    def test_per_tenant_grid_parity_on_noisy_neighbor(self):
        overrides = _tiny_overrides("noisy-neighbor")
        scenario = get_scenario("noisy-neighbor")
        oracle_built = scenario.build(seed=9, executor="serial", **overrides)
        oracle = oracle_built.run()
        oracle_rows = oracle.tenant_rows()
        for executor, backend in GRID:
            built = scenario.build(
                seed=9, executor=executor, trace_backend=backend, **overrides
            )
            built.farm.max_workers = 2
            result = built.run()
            assert_farm_results_identical(oracle, result)
            assert result.tenant_rows() == oracle_rows, (executor, backend)


def _single_tenant():
    return (TenantSpec(name="only", qos=mean_qos_from_baseline(0.8)),)


def _stream(num_jobs: int = 400, labelled: bool = True):
    from repro.workloads.jobs import JobTrace

    rng = np.random.default_rng(11)
    arrivals = np.cumsum(rng.exponential(0.02, size=num_jobs))
    demands = rng.exponential(0.015, size=num_jobs)
    labels = np.zeros(num_jobs, dtype=np.int64) if labelled else None
    return JobTrace(arrivals, demands, tenant_ids=labels)


class TestSingleTenantDegeneracy:
    """One tenant ⇒ the "least-loaded" oracle, byte for byte."""

    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize(
        "dispatcher_cls", [PriorityDispatcher, WeightedFairDispatcher]
    )
    def test_single_tenant_matches_least_loaded(self, dispatcher_cls, labelled):
        jobs = _stream(labelled=labelled)
        oracle = LeastLoadedDispatcher().assign(jobs, 5)
        fast = dispatcher_cls(_single_tenant()).assign(jobs, 5)
        assert np.array_equal(oracle, fast)

    @pytest.mark.parametrize(
        "dispatcher_cls", [PriorityDispatcher, WeightedFairDispatcher]
    )
    def test_single_tenant_matches_with_heterogeneous_speeds(
        self, dispatcher_cls
    ):
        jobs = _stream()
        speeds = [1.0, 0.5, 2.0]
        oracle = LeastLoadedDispatcher().assign(jobs, 3, server_speeds=speeds)
        fast = dispatcher_cls(_single_tenant()).assign(
            jobs, 3, server_speeds=speeds
        )
        assert np.array_equal(oracle, fast)


class TestChunkedDispatchParity:
    """Chunked == one-shot for both tenant dispatchers (streaming contract)."""

    def _two_tenant_stream(self, num_jobs: int = 500):
        from repro.workloads.jobs import JobTrace

        rng = np.random.default_rng(13)
        arrivals = np.cumsum(rng.exponential(0.02, size=num_jobs))
        demands = rng.exponential(0.015, size=num_jobs)
        labels = rng.integers(0, 2, size=num_jobs)
        return JobTrace(arrivals, demands, tenant_ids=labels)

    @pytest.mark.parametrize(
        "dispatcher_cls", [PriorityDispatcher, WeightedFairDispatcher]
    )
    def test_chunked_assignment_matches_one_shot(self, dispatcher_cls):
        tenants = (
            TenantSpec(name="a", qos=mean_qos_from_baseline(0.8)),
            TenantSpec(
                name="b", qos=mean_qos_from_baseline(0.8), weight=2.0, priority=1
            ),
        )
        jobs = self._two_tenant_stream()
        dispatcher = dispatcher_cls(tenants)
        one_shot = dispatcher.assign(jobs, 5)
        assigner = dispatcher.assigner(
            5, total_jobs=len(jobs), tenant_ids=jobs.tenant_ids
        )
        chunks = []
        for start in range(0, len(jobs), 64):
            chunks.append(
                assigner.assign_chunk(
                    jobs.arrival_times[start : start + 64],
                    jobs.service_demands[start : start + 64],
                )
            )
        assert np.array_equal(one_shot, np.concatenate(chunks))
