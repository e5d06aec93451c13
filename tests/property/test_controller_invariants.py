"""Property-based tests for the farm controller contract.

Fuzzes the planner, the regime-masked dispatch and the farm-level energy
accounting with hypothesis: job conservation under scale-down, no job ever
routed to a parked or still-waking server, setup energy equal to the sum
over paid wake transitions, awake counts clamped to
``[min_awake, n_servers]``, energy accounting closing exactly, and — the
regression this PR fixes — each parked span charged **exactly once**
(deep-sleep power for the parked span, sleep-walk proration only for the
remainder), never both rates over the same seconds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.controller import (
    FarmController,
    RightSizingPolicy,
    SetupModel,
    controller_assignment,
)
from repro.cluster.dispatch import (
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
)
from repro.cluster.farm import (
    PARKED_STATE,
    ServerFarm,
    ServerSpec,
    prorated_idle_energy,
)
from repro.cluster.tenancy import PriorityDispatcher, TenantSpec, WeightedFairDispatcher
from repro.core.qos import mean_qos_from_baseline
from repro.exceptions import ConfigurationError
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import sleepscale_strategy
from repro.power.platform import xeon_power_model
from repro.prediction.lms_cusum import LmsCusumPredictor
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import dns_workload

_EPOCH_SECONDS = 60.0


class ScriptedPolicy(RightSizingPolicy):
    """Replays a fixed target sequence: arbitrary surge/trough patterns."""

    name = "scripted"

    def __init__(self, targets):
        self._targets = tuple(int(t) for t in targets)

    def reset(self, num_servers: int, min_awake: int) -> None:
        super().reset(num_servers, min_awake)
        self._cursor = 0

    def target_awake(self, observed_load: float, current_awake: int) -> int:
        if self._cursor < len(self._targets):
            target = self._targets[self._cursor]
            self._cursor += 1
            return target
        return current_awake


def _trace_over(num_epochs: int, jobs_per_epoch: int = 4) -> JobTrace:
    """Evenly spread deterministic arrivals covering all *num_epochs*."""
    arrivals = []
    for epoch in range(num_epochs):
        start = epoch * _EPOCH_SECONDS
        for j in range(jobs_per_epoch):
            arrivals.append(start + (j + 0.5) * _EPOCH_SECONDS / jobs_per_epoch)
    times = np.asarray(arrivals, dtype=float)
    return JobTrace(times, np.full(times.size, 0.05))


def _plan(num_servers, min_awake, latency, targets, num_epochs):
    controller = FarmController(
        policy=ScriptedPolicy(targets),
        setup=SetupModel(latency_s=latency),
        min_awake=min_awake,
    )
    trace = _trace_over(num_epochs)
    schedule = controller.plan(
        trace.arrival_times,
        trace.service_demands,
        num_servers=num_servers,
        epoch_seconds=_EPOCH_SECONDS,
    )
    return controller, trace, schedule


#: One fuzzed planning instance: fleet size, floor, setup latency and an
#: arbitrary (even out-of-range) commanded-target script.
plan_inputs = st.tuples(
    st.integers(min_value=1, max_value=6),          # num_servers
    st.integers(min_value=1, max_value=6),          # min_awake (may exceed n)
    st.floats(min_value=0.0, max_value=150.0),      # setup latency
    st.lists(st.integers(min_value=-2, max_value=9), min_size=1, max_size=10),
    st.integers(min_value=2, max_value=10),         # num_epochs
)


class TestScheduleInvariants:
    @given(inputs=plan_inputs)
    @settings(max_examples=200, deadline=None)
    def test_awake_counts_stay_clamped(self, inputs):
        num_servers, min_awake, latency, targets, num_epochs = inputs
        _, _, schedule = _plan(num_servers, min_awake, latency, targets, num_epochs)
        floor = min(min_awake, num_servers)
        assert len(schedule.awake_counts) == schedule.num_epochs == num_epochs
        for count in schedule.awake_counts:
            assert floor <= count <= num_servers

    @given(inputs=plan_inputs)
    @settings(max_examples=200, deadline=None)
    def test_regimes_tile_time_and_respect_the_floor(self, inputs):
        num_servers, min_awake, latency, targets, num_epochs = inputs
        _, _, schedule = _plan(num_servers, min_awake, latency, targets, num_epochs)
        floor = min(min_awake, num_servers)
        assert schedule.regimes[0][0] == 0.0
        assert math.isinf(schedule.regimes[-1][1])
        for (_, end, members), (start, _, _) in zip(
            schedule.regimes, schedule.regimes[1:]
        ):
            assert end == start, "regimes must be contiguous"
        for _, _, members in schedule.regimes:
            assert len(members) >= floor, "serviceable set fell below min_awake"
            assert len(set(members)) == len(members)
            assert all(0 <= m < num_servers for m in members)

    @given(inputs=plan_inputs)
    @settings(max_examples=200, deadline=None)
    def test_wake_counts_match_the_transition_log(self, inputs):
        num_servers, min_awake, latency, targets, num_epochs = inputs
        _, _, schedule = _plan(num_servers, min_awake, latency, targets, num_epochs)
        wakes = sum(1 for _, _, kind in schedule.transitions if kind == "wake")
        parks = sum(1 for _, _, kind in schedule.transitions if kind == "park")
        assert sum(schedule.wake_counts) == wakes
        assert wakes + parks == len(schedule.transitions)
        # A server is parked at most for the whole horizon.
        for parked in schedule.parked_seconds:
            assert 0.0 <= parked <= schedule.horizon

    @given(inputs=plan_inputs)
    @settings(max_examples=200, deadline=None)
    def test_setup_energy_is_transitions_times_cost(self, inputs):
        num_servers, min_awake, latency, targets, num_epochs = inputs
        controller, _, schedule = _plan(
            num_servers, min_awake, latency, targets, num_epochs
        )
        peak = 250.0
        expected = sum(schedule.wake_counts) * controller.setup.transition_energy(peak)
        total = sum(
            schedule.wake_counts[i] * controller.setup.transition_energy(peak)
            for i in range(num_servers)
        )
        assert total == pytest.approx(expected, rel=1e-12)
        assert total == pytest.approx(
            sum(1 for _, _, kind in schedule.transitions if kind == "wake")
            * latency
            * peak,
            rel=1e-12,
            abs=1e-9,
        )


class TestAssignmentInvariants:
    @given(inputs=plan_inputs, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=150, deadline=None)
    def test_every_job_lands_on_a_serviceable_server(self, inputs, seed):
        num_servers, min_awake, latency, targets, num_epochs = inputs
        _, trace, schedule = _plan(num_servers, min_awake, latency, targets, num_epochs)
        for dispatcher in (LeastLoadedDispatcher(), RandomDispatcher(seed=seed)):
            assignment = controller_assignment(
                trace, dispatcher, schedule, num_servers=num_servers
            )
            # Job conservation: every job assigned, exactly once, in range.
            assert assignment.shape == (len(trace),)
            assert assignment.min() >= 0
            assert assignment.max() < num_servers
            for arrival, server in zip(trace.arrival_times, assignment):
                members = schedule.serviceable_at(float(arrival))
                assert int(server) in members, (
                    f"job at t={arrival} routed to non-serviceable "
                    f"server {server} (serviceable: {members})"
                )


def _tenants(count):
    qos = mean_qos_from_baseline(0.8)
    return tuple(
        TenantSpec(name=f"t{index}", qos=qos, weight=1.0 + index, priority=index)
        for index in range(count)
    )


#: One instance of every dispatcher kind over the 6-server fleet below.
_BYPASS_DISPATCHERS = {
    "least-loaded-heap": LeastLoadedDispatcher(engine="heap"),
    "least-loaded-loop": LeastLoadedDispatcher(engine="loop"),
    "power-aware": PowerAwareDispatcher([90.0, 30.0, 60.0, 30.0, 120.0, 45.0]),
    "round-robin": RoundRobinDispatcher(),
    "random": RandomDispatcher(seed=5),
    "random-weighted": RandomDispatcher(seed=5, weights=[1, 2, 3, 1, 2, 3]),
    "weighted-fair": WeightedFairDispatcher(_tenants(1)),
    "weighted-fair-loop": WeightedFairDispatcher(_tenants(1), engine="loop"),
    "priority": PriorityDispatcher(_tenants(1)),
}
_SPEEDS = (1.0, 0.5, 1.0, 0.75, 1.0, 0.5)


def _mixed_schedule(regimes):
    """A planned 6-server schedule with its regimes replaced by *regimes*."""
    _, _, schedule = _plan(6, 1, 0.0, (6,), 8)
    return dataclasses.replace(schedule, regimes=regimes)


#: 1-, 2- and 4-member regimes, including single members other than 0.
_MIXED_REGIMES = (
    (0.0, 60.0, (0, 1, 2, 3, 4, 5)),
    (60.0, 120.0, (4,)),
    (120.0, 180.0, (1, 5)),
    (180.0, 240.0, (0, 2, 3, 5)),
    (240.0, 300.0, (2,)),
    (300.0, 360.0, (0, 1, 2, 3)),
    (360.0, 420.0, (3, 4)),
    (420.0, math.inf, (0,)),
)


def _labelled_trace(seed, tenants=1):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 8 * _EPOCH_SECONDS, size=600))
    demands = rng.exponential(0.4, size=arrivals.size)
    labels = rng.integers(0, tenants, size=arrivals.size)
    return JobTrace(arrivals, demands, tenant_ids=labels)


def _reference_assignment(jobs, dispatcher, schedule, server_speeds):
    """Every regime through its restricted dispatcher, one-server ones too."""
    arrivals, demands = jobs.arrival_times, jobs.service_demands
    assignment = np.full(len(jobs), -1, dtype=np.int64)
    for start, end, members in schedule.regimes:
        lo = int(np.searchsorted(arrivals, start, side="left"))
        hi = int(np.searchsorted(arrivals, end, side="left"))
        if hi <= lo:
            continue
        assigner = dispatcher.restrict(members).assigner(
            len(members),
            server_speeds=(
                None
                if server_speeds is None
                else tuple(server_speeds[i] for i in members)
            ),
            tenant_ids=jobs.tenant_ids[lo:hi],
        )
        local = assigner.assign_chunk(arrivals[lo:hi], demands[lo:hi])
        assignment[lo:hi] = np.asarray(members, dtype=np.int64)[local]
    return assignment


class TestOneServerBypass:
    """A one-server regime skips the per-job step without changing a job."""

    @pytest.mark.parametrize("kind", sorted(_BYPASS_DISPATCHERS))
    @pytest.mark.parametrize("server", [0, 3, 5])
    def test_restricted_single_server_assigns_all_zeros(self, kind, server):
        jobs = _labelled_trace(seed=server)
        dispatcher = _BYPASS_DISPATCHERS[kind]
        assigner = dispatcher.restrict([server]).assigner(
            1,
            server_speeds=(_SPEEDS[server],),
            tenant_ids=jobs.tenant_ids,
        )
        local = assigner.assign_chunk(jobs.arrival_times, jobs.service_demands)
        assert np.array_equal(local, np.zeros(len(jobs), dtype=np.int64))

    @pytest.mark.parametrize("kind", sorted(_BYPASS_DISPATCHERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_regimes_equal_the_restricted_dispatcher(self, kind, seed):
        jobs = _labelled_trace(seed)
        schedule = _mixed_schedule(_MIXED_REGIMES)
        dispatcher = _BYPASS_DISPATCHERS[kind]
        for speeds in (None, _SPEEDS):
            got = controller_assignment(
                jobs, dispatcher, schedule, num_servers=6, server_speeds=speeds
            )
            expected = _reference_assignment(jobs, dispatcher, schedule, speeds)
            assert np.array_equal(got, expected), (kind, speeds)

    @pytest.mark.parametrize(
        "dispatcher",
        [WeightedFairDispatcher(_tenants(2)), PriorityDispatcher(_tenants(2))],
        ids=["weighted-fair", "priority"],
    )
    def test_tenant_dispatcher_still_rejects_a_one_server_regime(self, dispatcher):
        # Two tenants cannot share one server: the bypass keeps the error
        # the restricted dispatcher raises, and the 2- and 4-member
        # regimes alone still match the reference loop.
        jobs = _labelled_trace(seed=4, tenants=2)
        schedule = _mixed_schedule(_MIXED_REGIMES)
        with pytest.raises(ConfigurationError, match="cannot host 2 tenant"):
            _reference_assignment(jobs, dispatcher, schedule, None)
        with pytest.raises(ConfigurationError, match="cannot host 2 tenant"):
            controller_assignment(jobs, dispatcher, schedule, num_servers=6)
        wide = _mixed_schedule(
            (
                (0.0, 180.0, (1, 5)),
                (180.0, 300.0, (0, 2, 3, 5)),
                (300.0, math.inf, (2, 4)),
            )
        )
        assert np.array_equal(
            controller_assignment(jobs, dispatcher, wide, num_servers=6),
            _reference_assignment(jobs, dispatcher, wide, None),
        )


energies = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
spans = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestProratedIdleEnergy:
    @given(energy=energies, duration=spans, horizon=spans, covered=spans)
    @settings(max_examples=300, deadline=None)
    def test_closed_form(self, energy, duration, horizon, covered):
        value = prorated_idle_energy(
            energy, duration, horizon, already_covered=covered
        )
        remaining = horizon - covered
        if remaining <= 0 or duration <= 0:
            assert value == 0.0
        else:
            assert value == energy / duration * remaining
        assert value >= 0.0

    @given(energy=energies, duration=spans, horizon=spans, covered=spans,
           extra=spans)
    @settings(max_examples=300, deadline=None)
    def test_covering_more_never_charges_more(
        self, energy, duration, horizon, covered, extra
    ):
        less = prorated_idle_energy(energy, duration, horizon,
                                    already_covered=covered)
        more = prorated_idle_energy(energy, duration, horizon,
                                    already_covered=covered + extra)
        assert more <= less

    @given(energy=energies, duration=spans, horizon=spans)
    @settings(max_examples=300, deadline=None)
    def test_default_matches_the_historical_behaviour(
        self, energy, duration, horizon
    ):
        value = prorated_idle_energy(energy, duration, horizon)
        if duration <= 0 or horizon <= 0:
            assert value == 0.0
        else:
            assert value == energy / duration * horizon


# ---------------------------------------------------------------------------
# Farm-level invariants (real runs: few, small examples)
# ---------------------------------------------------------------------------

_POWER = xeon_power_model()
_SPEC = dns_workload()


def _xeon_strategy():
    return sleepscale_strategy(
        _POWER,
        mean_qos_from_baseline(0.8),
        characterization_jobs=300,
        seed=0,
    )


def _xeon_predictor():
    return LmsCusumPredictor(history=10)


def _base_farm(dispatcher):
    servers = tuple(
        ServerSpec(
            name=f"xeon-{index}",
            power_model=_POWER,
            strategy_factory=_xeon_strategy,
            predictor_factory=_xeon_predictor,
            config=RuntimeConfig(epoch_minutes=1.0, rho_b=0.8),
        )
        for index in range(2)
    )
    return ServerFarm(servers=servers, spec=_SPEC, dispatcher=dispatcher)


class TestFarmEnergyClosure:
    @given(
        targets=st.lists(
            st.integers(min_value=1, max_value=2), min_size=3, max_size=6
        ),
        latency=st.floats(min_value=0.0, max_value=90.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_active_plus_idle_plus_setup_is_total(self, targets, latency):
        num_epochs = len(targets) + 1
        trace = _trace_over(num_epochs)
        controller = FarmController(
            policy=ScriptedPolicy(targets),
            setup=SetupModel(latency_s=latency),
            min_awake=1,
            epoch_minutes=1.0,
        )
        farm = dataclasses.replace(
            _base_farm(LeastLoadedDispatcher()), controller=controller
        )
        result = farm.run(trace)
        active = sum(r.total_energy for r in result.per_server if r is not None)
        assert result.total_energy == pytest.approx(
            active + sum(result.idle_energies) + result.setup_energy,
            rel=1e-12,
        )
        # Setup bill closes against an independent re-plan (pure function).
        schedule = controller.plan(
            trace.arrival_times,
            trace.service_demands,
            num_servers=2,
            epoch_seconds=_EPOCH_SECONDS,
        )
        expected_setup = sum(
            schedule.wake_counts[i]
            * controller.setup.transition_energy(_POWER.peak_power())
            for i in range(2)
        )
        assert result.setup_energy == pytest.approx(expected_setup, rel=1e-12)
        assert result.awake_counts == schedule.awake_counts
        assert result.wake_transitions == schedule.transitions


class TestParkedSpanChargedOnce:
    """The double-count regression: a server parked mid-run that the
    dispatcher never routes to is charged deep-sleep power for the parked
    span and sleep-walk proration for the remainder — each second exactly
    once, never under both rates."""

    @given(
        park_epoch=st.integers(min_value=1, max_value=4),
        tail_epochs=st.integers(min_value=1, max_value=3),
        latency=st.floats(min_value=0.0, max_value=45.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_parked_span_charged_exactly_once(
        self, park_epoch, tail_epochs, latency
    ):
        num_epochs = park_epoch + tail_epochs + 1
        trace = _trace_over(num_epochs)
        # All traffic pinned to server 0, so server 1 is never routed to in
        # either run and its idle charge is directly comparable.
        dispatcher = RandomDispatcher(seed=0, weights=(1.0, 0.0))
        plain = _base_farm(dispatcher)
        uncontrolled = plain.run(trace)
        sleep_walk_full = uncontrolled.idle_energies[1]
        horizon = max(
            r.total_duration for r in uncontrolled.per_server if r is not None
        )
        assert sleep_walk_full > 0.0

        targets = [2] * (park_epoch - 1) + [1]
        controller = FarmController(
            policy=ScriptedPolicy(targets),
            setup=SetupModel(latency_s=latency),
            min_awake=1,
            epoch_minutes=1.0,
        )
        controlled = dataclasses.replace(plain, controller=controller).run(trace)
        schedule = controller.plan(
            trace.arrival_times,
            trace.service_demands,
            num_servers=2,
            epoch_seconds=_EPOCH_SECONDS,
        )
        covered = min(max(schedule.parked_seconds[1], 0.0), horizon)
        assert covered == pytest.approx(
            schedule.horizon - park_epoch * _EPOCH_SECONDS
        )
        parked_power = _POWER.system_power(PARKED_STATE)
        expected = (
            sleep_walk_full * (horizon - covered) / horizon
            + parked_power * covered
        )
        assert controlled.idle_energies[1] == pytest.approx(expected, rel=1e-9)
        # The pre-fix behaviour billed the sleep walk over the FULL horizon
        # on top of the parked charge; pin that the charge is strictly less.
        double_billed = sleep_walk_full + parked_power * covered
        assert controlled.idle_energies[1] < double_billed

    def test_park_at_first_boundary_uses_deep_sleep_rate_only(self):
        """Parked for (almost) the whole run: the idle charge approaches
        pure deep-sleep power, far below the shallow sleep-walk rate."""
        trace = _trace_over(6)
        dispatcher = RandomDispatcher(seed=0, weights=(1.0, 0.0))
        plain = _base_farm(dispatcher)
        uncontrolled = plain.run(trace)
        controller = FarmController(
            policy=ScriptedPolicy([1]), setup=SetupModel.free(), min_awake=1,
            epoch_minutes=1.0,
        )
        controlled = dataclasses.replace(plain, controller=controller).run(trace)
        assert controlled.idle_energies[1] < uncontrolled.idle_energies[1]
