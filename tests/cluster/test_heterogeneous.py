"""Heterogeneous farm and work-tracking dispatcher invariants.

The invariants pinned here are the ones the scenario reports rely on:

* **job conservation** — every dispatcher accounts for every job exactly once;
* **no idle-server starvation** — the least-loaded dispatcher never routes a
  job to a backlogged server while another server is idle;
* **efficiency-first packing** — the power-aware dispatcher keeps light load
  on the most efficient server and spills over under pressure;
* heterogeneous :class:`ServerFarm` runs mix platforms correctly and report
  against the strictest per-server budget.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.cluster.dispatch import (
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
    merge_streams,
)
from repro.cluster.farm import ServerFarm, ServerSpec
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import FixedPolicyStrategy
from repro.exceptions import ConfigurationError
from repro.policies.policy import race_to_halt_policy
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import C6_S0I
from repro.prediction.naive import NaivePreviousPredictor
from repro.workloads.generator import generate_trace_driven_jobs
from repro.workloads.jobs import JobTrace
from repro.workloads.traces import constant_trace


@pytest.fixture(scope="module")
def busy_workload(dns_empirical):
    """15 minutes of DNS-like jobs at a farm-level utilisation of ~0.9."""
    trace = constant_trace(0.9, num_samples=15)
    return generate_trace_driven_jobs(
        dns_empirical, trace, seed=23, max_utilization=0.95
    ).jobs


def replay_backlogs(jobs, assignment, num_servers):
    """Recompute each server's outstanding work at every job's arrival."""
    busy_until = np.zeros(num_servers)
    backlogs = np.empty((len(jobs), num_servers))
    for index, (arrival, demand) in enumerate(
        zip(jobs.arrival_times, jobs.service_demands)
    ):
        backlogs[index] = np.maximum(busy_until - arrival, 0.0)
        server = assignment[index]
        busy_until[server] = max(busy_until[server], arrival) + demand
    return backlogs


class TestLeastLoadedDispatcher:
    def test_job_conservation(self, busy_workload):
        streams = LeastLoadedDispatcher().dispatch(busy_workload, 3)
        assert sum(len(s) for s in streams if s is not None) == len(busy_workload)
        assert merge_streams(streams) == busy_workload

    def test_no_idle_server_starvation(self, busy_workload):
        """A job never lands on a busy server while another server is idle."""
        num_servers = 3
        dispatcher = LeastLoadedDispatcher()
        assignment = dispatcher.assign(busy_workload, num_servers)
        backlogs = replay_backlogs(busy_workload, assignment, num_servers)
        for index in range(len(busy_workload)):
            chosen = assignment[index]
            if backlogs[index, chosen] > 0:
                assert not np.any(backlogs[index] == 0.0), (
                    f"job {index} sent to a busy server while another was idle"
                )

    def test_every_server_gets_work_under_load(self, busy_workload):
        assignment = LeastLoadedDispatcher().assign(busy_workload, 4)
        assert set(np.unique(assignment)) == {0, 1, 2, 3}

    def test_picks_least_loaded_not_round_robin(self):
        # One huge job saturates server 0; the following small jobs must all
        # avoid it until its backlog drains.
        jobs = JobTrace([0.0, 0.1, 0.2, 0.3], [10.0, 0.1, 0.1, 0.1])
        assignment = LeastLoadedDispatcher().assign(jobs, 2)
        assert assignment[0] == 0
        assert list(assignment[1:]) == [1, 1, 1]

    def test_deterministic(self, busy_workload):
        first = LeastLoadedDispatcher().assign(busy_workload, 3)
        second = LeastLoadedDispatcher().assign(busy_workload, 3)
        np.testing.assert_array_equal(first, second)


class TestPowerAwareDispatcher:
    def test_job_conservation(self, busy_workload):
        dispatcher = PowerAwareDispatcher([10.0, 20.0, 30.0])
        streams = dispatcher.dispatch(busy_workload, 3)
        assert sum(len(s) for s in streams if s is not None) == len(busy_workload)
        assert merge_streams(streams) == busy_workload

    def test_light_load_packs_onto_most_efficient_server(self):
        # Widely spaced small jobs: the efficient server never saturates, so
        # everything lands on it and the others can sleep.
        arrivals = np.arange(50, dtype=float)
        demands = np.full(50, 0.01)
        jobs = JobTrace(arrivals, demands)
        assignment = PowerAwareDispatcher([30.0, 10.0, 20.0]).assign(jobs, 3)
        assert np.all(assignment == 1)  # index of the lowest idle power

    def test_overload_spills_to_next_efficient_server(self):
        # Back-to-back jobs far exceeding one server's capacity must spill.
        jobs = JobTrace(np.zeros(10), np.full(10, 1.0))
        assignment = PowerAwareDispatcher([10.0, 20.0], max_backlog=2.0).assign(
            jobs, 2
        )
        assert set(np.unique(assignment)) == {0, 1}
        # The efficient server still takes the larger share.
        assert np.sum(assignment == 0) >= np.sum(assignment == 1)

    def test_from_power_models_prefers_atom(self):
        xeon, atom = xeon_power_model(), atom_power_model()
        assert atom.idle_power(1.0) < xeon.idle_power(1.0)
        dispatcher = PowerAwareDispatcher.from_power_models([xeon, atom])
        arrivals = np.arange(20, dtype=float)
        jobs = JobTrace(arrivals, np.full(20, 0.01))
        assignment = dispatcher.assign(jobs, 2)
        assert np.all(assignment == 1)

    def test_validation(self, busy_workload):
        with pytest.raises(ConfigurationError):
            PowerAwareDispatcher([])
        with pytest.raises(ConfigurationError):
            PowerAwareDispatcher([-1.0, 2.0])
        with pytest.raises(ConfigurationError):
            PowerAwareDispatcher([1.0, 2.0], max_backlog=0.0)
        with pytest.raises(ConfigurationError):
            PowerAwareDispatcher([1.0]).dispatch(busy_workload, 2)


def fixed_policy_server(name, power_model, rho_b=0.8):
    policy = race_to_halt_policy(power_model, C6_S0I)
    return ServerSpec(
        name=name,
        power_model=power_model,
        # Picklable factories: some farms below run on the process executor.
        strategy_factory=partial(FixedPolicyStrategy, policy),
        predictor_factory=NaivePreviousPredictor,
        config=RuntimeConfig(epoch_minutes=5.0, rho_b=rho_b, over_provisioning=0.0),
    )


class TestServerFarm:
    def test_mixed_platform_farm_runs(self, dns_empirical, busy_workload):
        farm = ServerFarm(
            servers=(
                fixed_policy_server("xeon-0", xeon_power_model()),
                fixed_policy_server("atom-0", atom_power_model()),
                fixed_policy_server("atom-1", atom_power_model()),
            ),
            spec=dns_empirical,
        )
        assert farm.is_heterogeneous
        assert farm.platform_names == ("xeon", "atom")
        result = farm.run(busy_workload)
        assert result.num_jobs == len(busy_workload)
        assert result.server_names == ("xeon-0", "atom-0", "atom-1")
        rows = result.per_server_rows()
        assert [row["server"] for row in rows] == ["xeon-0", "atom-0", "atom-1"]
        assert sum(row["num_jobs"] for row in rows) == len(busy_workload)

    def test_strictest_budget_wins(self, dns_empirical, busy_workload):
        # rho_b 0.6 implies budget 2.5; rho_b 0.8 implies 5.  The farm must
        # answer to the stricter 2.5.
        farm = ServerFarm(
            servers=(
                fixed_policy_server("strict", xeon_power_model(), rho_b=0.6),
                fixed_policy_server("lax", xeon_power_model(), rho_b=0.8),
            ),
            spec=dns_empirical,
        )
        result = farm.run(busy_workload)
        assert result.response_time_budget == pytest.approx(2.5)

    def test_matches_homogeneous_constructor(self, dns_empirical, busy_workload):
        xeon = xeon_power_model()
        policy = race_to_halt_policy(xeon, C6_S0I)
        config = RuntimeConfig(epoch_minutes=5.0, rho_b=0.8, over_provisioning=0.0)
        cluster = ServerFarm.homogeneous(
            3,
            xeon,
            dns_empirical,
            lambda index: FixedPolicyStrategy(policy),
            lambda index: NaivePreviousPredictor(),
            config=config,
        )
        farm = ServerFarm(
            servers=tuple(
                fixed_policy_server(f"server-{index}", xeon)
                for index in range(3)
            ),
            spec=dns_empirical,
        )
        from_cluster = cluster.run(busy_workload)
        from_farm = farm.run(busy_workload)
        assert from_cluster.num_jobs == from_farm.num_jobs
        assert from_cluster.total_energy == pytest.approx(from_farm.total_energy)
        np.testing.assert_array_equal(
            np.sort(from_cluster.response_times), np.sort(from_farm.response_times)
        )

    def test_process_matches_serial(self, dns_empirical, busy_workload):
        def build(max_workers=None):
            return ServerFarm(
                servers=(
                    fixed_policy_server("xeon-0", xeon_power_model()),
                    fixed_policy_server("atom-0", atom_power_model()),
                ),
                spec=dns_empirical,
                max_workers=max_workers,
            )

        serial = build().run(busy_workload)
        sharded = build(max_workers=2).run(busy_workload)
        assert sharded.total_energy == serial.total_energy
        np.testing.assert_array_equal(
            sharded.response_times, serial.response_times
        )

    def test_power_aware_heterogeneous_farm_saves_energy_at_light_load(
        self, dns_empirical
    ):
        """Packing light load onto the Atom beats splitting it evenly."""
        trace = constant_trace(0.2, num_samples=15)
        jobs = generate_trace_driven_jobs(dns_empirical, trace, seed=5).jobs
        servers = (
            fixed_policy_server("xeon-0", xeon_power_model()),
            fixed_policy_server("atom-0", atom_power_model()),
        )
        models = [server.power_model for server in servers]
        packed = ServerFarm(
            servers=servers,
            spec=dns_empirical,
            dispatcher=PowerAwareDispatcher.from_power_models(models),
        ).run(jobs)
        spread = ServerFarm(servers=servers, spec=dns_empirical).run(jobs)
        assert packed.total_average_power < spread.total_average_power

    def test_parked_server_still_burns_sleep_power(self, dns_empirical):
        """Farm power must not drop discontinuously when a server gets 0 jobs.

        A power-aware dispatcher at light load parks the Xeon entirely; the
        farm must still charge it for walking its sleep sequence, so the
        parked-Xeon farm draws more than the Atom alone but less than a farm
        where the Xeon serves traffic.
        """
        trace = constant_trace(0.15, num_samples=15)
        jobs = generate_trace_driven_jobs(dns_empirical, trace, seed=9).jobs
        xeon, atom = xeon_power_model(), atom_power_model()
        farm = ServerFarm(
            servers=(
                fixed_policy_server("atom-0", atom),
                fixed_policy_server("xeon-0", xeon),
            ),
            spec=dns_empirical,
            # Atom first in efficiency ranking; backlog threshold high enough
            # that the Xeon never wakes.
            dispatcher=PowerAwareDispatcher([1.0, 2.0], max_backlog=1e9),
        )
        result = farm.run(jobs)
        assert result.per_server[1] is None  # the Xeon really was parked
        assert result.idle_energies is not None
        assert result.idle_energies[1] > 0.0
        atom_only_energy = result.per_server[0].total_energy
        assert result.total_energy == pytest.approx(
            atom_only_energy + result.idle_energies[1]
        )
        # The parked server's row reports its sleep-walk power, not NaN.
        xeon_row = result.per_server_rows()[1]
        assert xeon_row["num_jobs"] == 0.0
        assert xeon_row["average_power_w"] > 0.0
        # The per-server mean includes the parked Xeon's idle power too.
        atom_power = result.per_server[0].average_power
        assert result.average_power_per_server == pytest.approx(
            (atom_power + result.idle_energies[1] / result.duration) / 2
        )

    def test_validation(self, dns_empirical):
        with pytest.raises(ConfigurationError):
            ServerFarm(servers=(), spec=dns_empirical)
        with pytest.raises(ConfigurationError):
            ServerFarm(
                servers=(
                    fixed_policy_server("same", xeon_power_model()),
                    fixed_policy_server("same", xeon_power_model()),
                ),
                spec=dns_empirical,
            )
        with pytest.raises(ConfigurationError):
            ServerFarm(
                servers=(fixed_policy_server("a", xeon_power_model()),),
                spec=dns_empirical,
                max_workers=0,
            )
        with pytest.raises(ConfigurationError):
            ServerSpec(
                name="",
                power_model=xeon_power_model(),
                strategy_factory=lambda: None,
                predictor_factory=lambda: None,
            )
