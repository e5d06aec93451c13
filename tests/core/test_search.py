"""Tests for the policy-search engine (frontier vs. full-grid oracle).

The central contract: for any inputs, ``search="frontier"`` selects the
**identical** policy to the full-grid search.  The fuzz classes sweep
policy-space shapes, QoS constraint types, both simulation backends and both
platform presets; the structural classes pin the lazy candidate grid, the
fallback paths, the utilisation range, the characterisation table and the
cacheless farm surface.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.cluster.farm import ServerFarm
from repro.core.policy_manager import PolicyManager
from repro.core.qos import (
    QosConstraint,
    mean_qos_from_baseline,
    percentile_qos_from_baseline,
)
from repro.core.runtime import RuntimeConfig, SleepScaleRuntime
from repro.core.search import (
    SEARCH_FRONTIER,
    SEARCH_FULL,
    _PolicyGrid,
    validate_search,
)
from repro.core.strategies import sleepscale_strategy
from repro.exceptions import ConfigurationError
from repro.policies.space import (
    PolicySpace,
    dvfs_only_space,
    full_space,
    single_state_space,
)
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import C3_S0I, C6_S0I, LOW_POWER_STATES
from repro.prediction.naive import NaivePreviousPredictor
from repro.workloads.generator import generate_jobs
from repro.workloads.jobs import JobTrace


def _managers(power_model, space, qos, backend="vectorized"):
    """A (full oracle, frontier) pair over identical configuration."""
    full = PolicyManager(power_model, space, qos, seed=0, backend=backend)
    frontier = PolicyManager(
        power_model,
        space,
        qos,
        seed=0,
        backend=backend,
        search=SEARCH_FRONTIER,
    )
    return full, frontier


class TestValidation:
    def test_search_modes(self):
        assert validate_search("full") == SEARCH_FULL
        assert validate_search("frontier") == SEARCH_FRONTIER
        with pytest.raises(ConfigurationError):
            validate_search("heap")


class TestLazyGrid:
    """The lazy grid must enumerate exactly like candidate_policies."""

    @pytest.mark.parametrize("utilization", [0.0, 0.15, 0.5, 0.9])
    def test_matches_candidate_policies(self, xeon, utilization):
        spaces = [
            full_space(xeon, frequency_step=0.05),
            dvfs_only_space(xeon, frequency_step=0.1),
            single_state_space(xeon, C3_S0I, frequency_step=0.07),
            PolicySpace(power_model=xeon, deep_entry_delays=(0.5, 2.0)),
            PolicySpace(power_model=xeon, use_pstates=True, include_dvfs_only=True),
        ]
        for space in spaces:
            grid = _PolicyGrid.build(space, utilization)
            assert grid is not None
            assert grid.policies == space.candidate_policies(utilization)

    @pytest.mark.parametrize("model", ["xeon", "atom", "custom-latencies"])
    def test_cells_match_candidate_policies_per_model(self, model):
        power_model = {
            "xeon": xeon_power_model,
            "atom": atom_power_model,
            "custom-latencies": lambda: xeon_power_model(
                wake_up_latencies={
                    state: 0.004 * (index + 1)
                    for index, state in enumerate(LOW_POWER_STATES)
                }
            ),
        }[model]()
        space = PolicySpace(
            power_model=power_model, deep_entry_delays=(0.5,), include_dvfs_only=True
        )
        for utilization in (0.02, 0.3, 0.7):
            expected = space.candidate_policies(utilization)
            grid = _PolicyGrid.build(space, utilization)
            # Probe cells out of enumeration order, as a search does.
            cells = [
                (freq_index, variant_index)
                for freq_index in range(grid.num_frequencies)
                for variant_index in range(grid.num_variants)
            ]
            for cell in cells[::-3] + cells:
                policy = grid.policy_at(*cell)
                assert policy == expected[cell[0] * grid.num_variants + cell[1]]
                assert policy.label == expected[
                    cell[0] * grid.num_variants + cell[1]
                ].label
            assert grid.policies == expected

    def test_subclassed_space_is_not_gridded(self, xeon):
        class CustomSpace(PolicySpace):
            pass

        space = CustomSpace(power_model=xeon)
        assert _PolicyGrid.build(space, 0.3) is None

    def test_subclassed_space_still_selects_oracle_identically(self, xeon, dns_ideal):
        class CustomSpace(PolicySpace):
            pass

        space = CustomSpace(power_model=xeon)
        qos = mean_qos_from_baseline(0.8)
        full, frontier = _managers(xeon, space, qos)
        jobs = generate_jobs(
            dns_ideal, num_jobs=300, utilization=0.3,
            rng=np.random.default_rng(0),
        )
        assert frontier.select(jobs, 0.3).policy == full.select(jobs, 0.3).policy


def _assert_equivalent(
    power_model, dns, backend, space_kind, qos_kind, step, utilization,
    jobs_seed, num_jobs,
):
    """Frontier and full-grid managers select identically on one draw."""
    space = {
        "full": lambda: full_space(power_model, frequency_step=step),
        "single": lambda: single_state_space(
            power_model, C6_S0I, frequency_step=step
        ),
        "dvfs": lambda: dvfs_only_space(power_model, frequency_step=step),
        "deep": lambda: PolicySpace(
            power_model=power_model,
            frequency_step=step,
            deep_entry_delays=(0.05,),
        ),
    }[space_kind]()
    qos = (
        mean_qos_from_baseline(0.8)
        if qos_kind == "mean"
        else percentile_qos_from_baseline(0.8, dns.mean_service_time)
    )
    jobs = generate_jobs(
        dns,
        num_jobs=num_jobs,
        utilization=utilization,
        rng=np.random.default_rng(jobs_seed),
    )
    full, frontier = _managers(power_model, space, qos, backend=backend)
    oracle = full.select(jobs, utilization)
    fast = frontier.select(jobs, utilization)
    assert fast.policy == oracle.policy
    assert fast.feasible == oracle.feasible
    assert fast.best.average_power == oracle.best.average_power


class TestFrontierFullEquivalence:
    """The headline contract: identical selected policy on every case."""

    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    @pytest.mark.parametrize("space_kind", ["full", "single", "dvfs", "deep"])
    @pytest.mark.parametrize("qos_kind", ["mean", "percentile"])
    def test_equivalence_fuzz(
        self, xeon, atom, dns_ideal, backend, space_kind, qos_kind
    ):
        # crc32, not hash(): string hashing changes with PYTHONHASHSEED, and
        # every run must draw the same cases.
        key = f"{backend}/{space_kind}/{qos_kind}".encode()
        rng = np.random.default_rng(zlib.crc32(key))
        cases = 2 if backend == "reference" else 4
        for index in range(cases):
            step = 0.05 if backend == "reference" else (0.05, 0.02)[index % 2]
            utilization = float(rng.uniform(0.02, 0.95))
            _assert_equivalent(
                xeon if index % 2 == 0 else atom,
                dns_ideal,
                backend,
                space_kind,
                qos_kind,
                step,
                utilization,
                jobs_seed=int(rng.integers(1 << 30)),
                num_jobs=250 if backend == "reference" else 700,
            )

    @pytest.mark.parametrize(
        ("space_kind", "utilization", "jobs_seed"),
        [
            ("full", 0.083885101905616, 135939283),
            ("full", 0.07693773837751156, 398926077),
            ("deep", 0.08161663088466843, 451439759),
        ],
    )
    def test_cheaper_valley_behind_bump(
        self, atom, dns_ideal, space_kind, utilization, jobs_seed
    ):
        """Percentile-QoS columns with two valleys split by a ~0.2% bump.

        On the first draw the oracle picks f=0.63 (21.979 W); the valley
        across the bump, f=0.71 (21.995 W), must not stop the winner walk.
        The fuzz above drew these cases when it was seeded from ``hash()``
        under ``PYTHONHASHSEED`` 4, 13 and 21.
        """
        _assert_equivalent(
            atom,
            dns_ideal,
            "vectorized",
            space_kind,
            "percentile",
            0.02,
            utilization,
            jobs_seed,
            num_jobs=700,
        )

    def test_warm_started_sequence_stays_exact(self, xeon, dns_ideal):
        """Consecutive selects at drifting utilisations (the epoch-loop shape)."""
        qos = mean_qos_from_baseline(0.8)
        space = full_space(xeon, frequency_step=0.02)
        full, frontier = _managers(xeon, space, qos)
        rng = np.random.default_rng(11)
        utilization = 0.1
        for _ in range(12):
            utilization = float(
                np.clip(utilization + rng.uniform(-0.05, 0.07), 0.02, 0.9)
            )
            jobs = generate_jobs(
                dns_ideal, num_jobs=600, utilization=utilization, rng=rng
            )
            assert (
                frontier.select(jobs, utilization).policy
                == full.select(jobs, utilization).policy
            )

    def test_zero_job_trace_matches_full(self, xeon):
        qos = mean_qos_from_baseline(0.8)
        space = full_space(xeon, frequency_step=0.1)
        full, frontier = _managers(xeon, space, qos)
        empty = JobTrace.empty()
        oracle = full.select(empty, 0.3)
        fast = frontier.select(empty, 0.3)
        assert fast.policy == oracle.policy
        assert fast.feasible == oracle.feasible is False

    def test_frontier_selection_carries_only_winner(self, xeon, dns_ideal):
        qos = mean_qos_from_baseline(0.8)
        space = full_space(xeon, frequency_step=0.05)
        full, frontier = _managers(xeon, space, qos)
        jobs = generate_jobs(
            dns_ideal, num_jobs=500, utilization=0.3,
            rng=np.random.default_rng(1),
        )
        fast = frontier.select(jobs, 0.3)
        oracle = full.select(jobs, 0.3)
        if fast.feasible:
            assert fast.evaluations == (fast.best,)
        assert len(oracle.evaluations) == space.size(0.3)


class _InvertedQos(QosConstraint):
    """Met only when the system is *slow*: slack decreases in frequency.

    This breaks the frontier's feasible-set-is-a-suffix assumption on
    purpose — the feasible set is a prefix — so every column's top probe is
    infeasible and the engine must take the full-grid fallback.
    """

    def __init__(self, minimum_normalized_response: float):
        self._minimum = minimum_normalized_response

    def is_met(self, result) -> bool:
        return result.normalized_mean_response_time >= self._minimum

    def slack(self, result) -> float:
        return result.normalized_mean_response_time - self._minimum

    def describe(self) -> str:  # pragma: no cover - not exercised
        return f"mu*E[R] >= {self._minimum}"


class TestFallbacks:
    def test_non_monotone_space_takes_fallback_and_stays_exact(
        self, xeon, dns_ideal
    ):
        qos = _InvertedQos(1.8)
        space = full_space(xeon, frequency_step=0.05)
        full, frontier = _managers(xeon, space, qos)
        rng = np.random.default_rng(5)
        for utilization in (0.1, 0.3, 0.55):
            jobs = generate_jobs(
                dns_ideal, num_jobs=600, utilization=utilization, rng=rng
            )
            oracle = full.select(jobs, utilization)
            fast = frontier.select(jobs, utilization)
            assert fast.policy == oracle.policy
            assert fast.feasible == oracle.feasible
        stats = frontier.search_stats
        assert stats is not None
        # The broken monotonicity must have been detected, not silently
        # trusted: every column went through the exhaustive fallback.
        assert stats.fallback_columns > 0
        assert stats.candidates_evaluated == stats.candidates_seen

    def test_infeasible_everywhere_matches_oracle(self, xeon, dns_ideal):
        # An impossibly tight budget: nothing meets it, so the engine must
        # reproduce the oracle's largest-slack ranking over the full table.
        qos = mean_qos_from_baseline(0.8)
        tight = percentile_qos_from_baseline(0.8, dns_ideal.mean_service_time)
        del qos
        space = full_space(xeon, frequency_step=0.05)
        from repro.core.qos import PercentileResponseTimeConstraint

        needle = PercentileResponseTimeConstraint(deadline=1e-6)
        full, frontier = _managers(xeon, space, needle)
        del tight
        jobs = generate_jobs(
            dns_ideal, num_jobs=400, utilization=0.4,
            rng=np.random.default_rng(9),
        )
        oracle = full.select(jobs, 0.4)
        fast = frontier.select(jobs, 0.4)
        assert oracle.feasible is False
        assert fast.policy == oracle.policy
        assert fast.feasible is False


class TestUtilizationRange:
    """The frontier manager searches the caller's utilisation, unclamped."""

    @staticmethod
    def _setup(xeon, spec):
        space = full_space(xeon, frequency_step=0.01)
        full, frontier = _managers(xeon, space, mean_qos_from_baseline(0.8))
        jobs = generate_jobs(
            spec, num_jobs=400, utilization=0.5, rng=np.random.default_rng(13)
        )
        return full, frontier, jobs

    @pytest.mark.parametrize("utilization", [0.985, 0.99, 0.995])
    def test_near_saturation_matches_oracle(self, xeon, dns_ideal, utilization):
        full, frontier, jobs = self._setup(xeon, dns_ideal)
        oracle = full.select(jobs, utilization)
        fast = frontier.select(jobs, utilization)
        assert fast.policy == oracle.policy
        assert fast.best.average_power == oracle.best.average_power

    @pytest.mark.parametrize("utilization", [-0.1, 1.0, float("nan")])
    def test_out_of_range_rejected_by_both(self, xeon, dns_ideal, utilization):
        full, frontier, jobs = self._setup(xeon, dns_ideal)
        for manager in (full, frontier):
            with pytest.raises(ConfigurationError):
                manager.select(jobs, utilization)


class TestCharacterization:
    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    @pytest.mark.parametrize("utilization", [0.05, 0.45, 0.9])
    def test_frontier_manager_table_matches_full(
        self, xeon, dns_ideal, backend, utilization
    ):
        space = full_space(xeon, frequency_step=0.1)
        full, frontier = _managers(
            xeon, space, mean_qos_from_baseline(0.8), backend=backend
        )
        jobs = generate_jobs(
            dns_ideal, num_jobs=300, utilization=utilization,
            rng=np.random.default_rng(14),
        )

        def rows(table):
            return [(e.policy, e.average_power, e.qos_slack) for e in table]

        oracle = full.characterize(jobs, utilization)
        assert len(oracle) == space.size(utilization)
        assert rows(frontier.characterize(jobs, utilization)) == rows(oracle)


class TestEngineSurface:
    def test_manager_exposes_mode_and_stats(self, xeon):
        qos = mean_qos_from_baseline(0.8)
        plain = PolicyManager(xeon, full_space(xeon), qos)
        assert plain.search == SEARCH_FULL
        assert plain.search_stats is None
        fast = PolicyManager(xeon, full_space(xeon), qos, search=SEARCH_FRONTIER)
        assert fast.search == SEARCH_FRONTIER
        assert fast.search_stats is not None

    def test_invalid_mode_rejected(self, xeon):
        with pytest.raises(ConfigurationError):
            PolicyManager(
                xeon, full_space(xeon), mean_qos_from_baseline(0.8),
                search="bisect",
            )

class TestRuntimeIntegration:
    """The engine inside the epoch loop: run() and stream() parity."""

    def _runtime(self, xeon, spec, search):
        strategy = sleepscale_strategy(
            xeon,
            mean_qos_from_baseline(0.8),
            characterization_jobs=200,
            seed=0,
            search=search,
        )
        runtime = SleepScaleRuntime(
            xeon,
            spec,
            strategy,
            NaivePreviousPredictor(),
            RuntimeConfig(
                epoch_minutes=1.0, rho_b=0.8, over_provisioning=0.35
            ),
        )
        return runtime, strategy

    def test_epoch_loop_parity_run_and_stream(self, xeon, dns_ideal):
        jobs = generate_jobs(
            dns_ideal, num_jobs=1500, utilization=0.4,
            rng=np.random.default_rng(10),
        )
        full_rt, _ = self._runtime(xeon, dns_ideal, SEARCH_FULL)
        oracle = full_rt.run(jobs)
        frontier_rt, strategy = self._runtime(xeon, dns_ideal, SEARCH_FRONTIER)
        fast = frontier_rt.run(jobs)
        assert [e.policy_label for e in fast.epochs] == [
            e.policy_label for e in oracle.epochs
        ]
        assert [e.selected_frequency for e in fast.epochs] == [
            e.selected_frequency for e in oracle.epochs
        ]
        assert fast.total_energy == oracle.total_energy
        assert fast.extra["search"] == SEARCH_FRONTIER
        assert oracle.extra["search"] == SEARCH_FULL
        # Streamed chunks reproduce the one-shot run exactly.
        streamed_rt, _ = self._runtime(xeon, dns_ideal, SEARCH_FRONTIER)
        session = streamed_rt.stream()
        third = len(jobs) // 3
        session.feed(jobs.arrival_times[:third], jobs.service_demands[:third])
        session.feed(jobs.arrival_times[third:], jobs.service_demands[third:])
        chunked = session.finish()
        assert chunked.total_energy == fast.total_energy
        assert [e.policy_label for e in chunked.epochs] == [
            e.policy_label for e in fast.epochs
        ]


class TestFarmSurface:
    """Farms carry no characterisation cache; only a read-only ``None`` stays."""

    @staticmethod
    def _homogeneous(xeon, spec, **fields):
        return ServerFarm.homogeneous(
            2,
            xeon,
            spec,
            lambda index: sleepscale_strategy(
                xeon,
                mean_qos_from_baseline(0.8),
                characterization_jobs=150,
                seed=index,
                search=SEARCH_FRONTIER,
            ),
            lambda index: NaivePreviousPredictor(),
            config=RuntimeConfig(epoch_minutes=1.0),
            **fields,
        )

    def test_search_cache_property_is_none(self, xeon, dns_ideal):
        assert self._homogeneous(xeon, dns_ideal).search_cache is None

    def test_search_cache_argument_rejected(self, xeon, dns_ideal):
        with pytest.raises(TypeError):
            self._homogeneous(xeon, dns_ideal, search_cache=object())
