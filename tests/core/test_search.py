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
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.farm import ServerFarm
from repro.core.policy_manager import PolicyManager
from repro.core.qos import (
    MeanResponseTimeConstraint,
    QosConstraint,
    mean_qos_from_baseline,
    percentile_qos_from_baseline,
)
from repro.core.runtime import RuntimeConfig, SleepScaleRuntime
from repro.core.search import (
    SEARCH_FRONTIER,
    SEARCH_FULL,
    FrontierSearch,
    SearchStats,
    _PolicyGrid,
    _Probe,
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
        space = PolicySpace(power_model=power_model, include_dvfs_only=True)
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

    @pytest.mark.parametrize("model", ["xeon", "atom"])
    def test_floor_terms_match_the_cell_sequences(self, model):
        power_model = {"xeon": xeon_power_model, "atom": atom_power_model}[model]()
        space = PolicySpace(power_model=power_model, include_dvfs_only=True)
        grid = _PolicyGrid.build(space, 0.3)
        for variant in range(grid.num_variants):
            powers, wake = grid.floor_terms(variant)
            cells = [
                grid.sequence_at(freq_index, variant)
                for freq_index in range(grid.num_frequencies)
            ]
            assert all(len(sleep) == 1 for sleep in cells)
            assert powers == [sleep[0].power for sleep in cells]
            assert all(sleep[0].wake_up_latency == wake for sleep in cells)
            assert all(sleep[0].entry_delay == 0.0 for sleep in cells)

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
) -> SearchStats:
    """Frontier and full-grid managers select identically on one draw.

    Returns the frontier engine's counters (``benchmarks/search_fuzz.py``
    reads its pruned columns).
    """
    space = {
        "full": lambda: full_space(power_model, frequency_step=step),
        "single": lambda: single_state_space(
            power_model, C6_S0I, frequency_step=step
        ),
        "dvfs": lambda: dvfs_only_space(power_model, frequency_step=step),
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
    return frontier.search_stats


class TestFrontierFullEquivalence:
    """The headline contract: identical selected policy on every case."""

    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    @pytest.mark.parametrize("space_kind", ["full", "single", "dvfs"])
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
        ],
    )
    def test_cheaper_valley_behind_bump(
        self, atom, dns_ideal, space_kind, utilization, jobs_seed
    ):
        """Percentile-QoS columns with two valleys split by a ~0.2% bump.

        On the first draw the oracle picks f=0.63 (21.979 W) and the other
        valley, across the bump, sits at f=0.71 (21.995 W); the floor walk
        must rank both.  The fuzz above drew these cases when it was seeded
        from ``hash()`` under ``PYTHONHASHSEED`` 4 and 13.
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

    def test_pruned_columns_still_select_like_full(self, xeon, atom, dns_ideal):
        """Columns skipped on their power floor never hold the oracle's pick."""
        qos = mean_qos_from_baseline(0.8)
        for power_model in (xeon, atom):
            space = full_space(power_model, frequency_step=0.02)
            full, frontier = _managers(power_model, space, qos)
            rng = np.random.default_rng(21)
            for utilization in (0.05, 0.2, 0.45, 0.7):
                jobs = generate_jobs(
                    dns_ideal, num_jobs=700, utilization=utilization, rng=rng
                )
                oracle = full.select(jobs, utilization)
                fast = frontier.select(jobs, utilization)
                assert fast.policy == oracle.policy
                assert fast.best.average_power == oracle.best.average_power
            stats = frontier.search_stats
            assert stats.pruned_columns > 0
            assert 0 < stats.candidates_pruned < stats.candidates_seen
            assert stats.as_dict()["pruned_columns"] == stats.pruned_columns

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


class TestFloorWalk:
    """``FrontierSearch.run`` on synthetic columns with known floors."""

    #: A first valley at index 1 (8 W) and a cheaper one at index 6 (6 W)
    #: behind a bump far wider than any tolerance a walk could carry.
    POWERS = [10.0, 8.0, 9.0, 9.5, 10.0, 11.0, 6.0, 12.0, 13.0]

    @staticmethod
    def _run(columns, budget=10.0, ceilings=None):
        """Search *columns*, a list of ``(powers, floors)`` per variant.

        The normalised response time falls from 5.0 by 0.1 per index, so
        slack rises in frequency and *budget* sets the feasibility boundary
        (every cell meets the default budget).  *ceilings* holds each
        column's slack ceilings per cell, as ``FrontierSearch.run`` takes
        them; a number stands for every cell of its column.
        """
        size = len(columns[0][0])
        if ceilings is not None:
            ceilings = [
                [ceiling] * size if isinstance(ceiling, float) else ceiling
                for ceiling in ceilings
            ]
        grid = SimpleNamespace(
            num_frequencies=size,
            num_variants=len(columns),
            frequencies=[0.2 + 0.1 * index for index in range(size)],
        )
        qos = MeanResponseTimeConstraint(normalized_budget=budget)
        probed = []

        def probe(freq_index, variant_index):
            probed.append((freq_index, variant_index))
            solution = SimpleNamespace(
                average_power=columns[variant_index][0][freq_index],
                normalized_mean_response_time=5.0 - 0.1 * freq_index,
            )
            return _Probe(solution, qos)

        stats = SearchStats()
        winner = FrontierSearch().run(
            grid, probe, stats, lambda variant: columns[variant][1], ceilings
        )
        return winner, set(probed), stats

    def test_cheaper_valley_behind_a_bump_wins(self):
        winner, _, stats = self._run([(self.POWERS, [0.0] * len(self.POWERS))])
        assert winner[:2] == (6, 0)
        assert winner[2].power == 6.0
        assert stats.fallback_columns == 0
        assert stats.candidates_pruned == 0

    def test_tight_floors_skip_cells(self):
        floors = [power - 1e-6 for power in self.POWERS]
        winner, probed, stats = self._run([(self.POWERS, floors)])
        assert winner[:2] == (6, 0)
        assert len(probed) < len(self.POWERS)
        assert stats.candidates_pruned == len(self.POWERS) - len(probed)

    def test_power_ties_go_to_the_lower_index(self):
        winner, _, _ = self._run([([10.0, 7.0, 9.0, 7.0, 8.0], [0.0] * 5)])
        assert winner[:2] == (1, 0)

    def test_cheaper_infeasible_prefix_never_wins(self):
        # Budget 4.65 makes indices 0-3 infeasible; their 1 W never counts.
        powers = [1.0, 1.0, 1.0, 1.0, 10.0, 9.0, 12.0, 8.0, 13.0]
        winner, _, stats = self._run([(powers, [0.0] * len(powers))], budget=4.65)
        assert winner[:2] == (7, 0)
        assert winner[2].meets
        assert stats.fallback_columns == 0

    def test_column_whose_floors_clear_the_incumbent_is_skipped(self):
        size = len(self.POWERS)
        dearer = ([20.0] * size, [7.0] * size)  # least floor above 6 W
        winner, probed, stats = self._run([(self.POWERS, [0.0] * size), dearer])
        assert winner[:2] == (6, 0)
        assert stats.pruned_columns == 1
        assert stats.candidates_pruned == size
        assert all(variant == 0 for _, variant in probed)

    def test_column_proven_infeasible_is_never_probed(self):
        # The first column is the cheapest everywhere, but its slack ceiling
        # is negative: no cell can meet the budget, so it is never probed,
        # needs no certificate and the second column wins.
        size = len(self.POWERS)
        cheaper = ([1.0] * size, [0.0] * size)
        winner, probed, stats = self._run(
            [cheaper, (self.POWERS, [0.0] * size)], ceilings=[-1e-6, 5.0]
        )
        assert winner[:2] == (6, 1)
        assert all(variant == 1 for _, variant in probed)
        assert stats.infeasible_columns == 1
        assert stats.candidates_pruned == size
        assert stats.fallback_columns == 0

    def test_non_negative_ceiling_is_searched(self):
        # A ceiling of exactly 0 still allows a cell with zero slack.
        size = len(self.POWERS)
        winner, probed, stats = self._run(
            [(self.POWERS, [0.0] * size)], ceilings=[0.0]
        )
        assert winner[:2] == (6, 0)
        assert stats.infeasible_columns == 0

    def test_proven_prefix_is_never_probed(self):
        # Budget 4.65 makes indices 0-3 infeasible, and their ceilings prove
        # it: the search starts at index 4, which is feasible, so it fixes
        # the boundary with no probe below it.
        size = len(self.POWERS)
        ceilings = [-0.3, -0.2, -0.1, -1e-6] + [0.5] * (size - 4)
        winner, probed, stats = self._run(
            [(self.POWERS, [0.0] * size)], budget=4.65, ceilings=[ceilings]
        )
        assert winner[:2] == (6, 0)
        assert all(index >= 4 for index, _ in probed)
        assert stats.proven_cells == 4
        assert stats.candidates_pruned == 4
        assert stats.fallback_columns == 0

    def test_infeasible_first_unproven_cell_bisects_above_it(self):
        # Only indices 0-1 are proven; index 2 is unproven but infeasible,
        # so the boundary (4) is found above it and the winner is exact.
        size = len(self.POWERS)
        ceilings = [-0.2, -0.1] + [0.5] * (size - 2)
        winner, probed, stats = self._run(
            [(self.POWERS, [0.0] * size)], budget=4.65, ceilings=[ceilings]
        )
        assert winner[:2] == (6, 0)
        assert (0, 0) not in probed and (1, 0) not in probed
        assert (2, 0) in probed
        assert stats.proven_cells == 2
        assert stats.fallback_columns == 0

    def test_every_column_proven_infeasible_returns_none(self):
        size = len(self.POWERS)
        columns = [(self.POWERS, [0.0] * size)] * 2
        winner, probed, stats = self._run(columns, ceilings=[-1.0, -2.0])
        assert winner is None
        assert probed == set()
        assert stats.infeasible_columns == 2


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
        # trusted: every column went through the exhaustive fallback unless
        # its proven power floor ruled it out.
        assert stats.fallback_columns > 0
        assert (
            stats.candidates_evaluated + stats.candidates_pruned
            == stats.candidates_seen
        )

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


class TestInfeasibleFallback:
    """The all-infeasible ranking probes only the columns that can hold it."""

    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_mean_budget_below_reach_matches_oracle(self, xeon, dns_ideal, backend):
        # mu*E[R] >= 1 at any speed, so a budget of 0.5 is met nowhere.
        qos = MeanResponseTimeConstraint(normalized_budget=0.5)
        space = full_space(xeon, frequency_step=0.05)
        full, frontier = _managers(xeon, space, qos, backend=backend)
        rng = np.random.default_rng(17)
        for utilization in (0.1, 0.4, 0.7):
            jobs = generate_jobs(
                dns_ideal,
                num_jobs=300 if backend == "reference" else 800,
                utilization=utilization,
                rng=rng,
            )
            oracle = full.select(jobs, utilization)
            fast = frontier.select(jobs, utilization)
            assert oracle.feasible is False
            assert fast.feasible is False
            assert fast.policy == oracle.policy
        stats = frontier.search_stats
        assert stats.fallback_full == 3
        # The deep states' slack ceilings lie below the near-best band.
        assert stats.candidates_evaluated < stats.candidates_seen
        # Every column's response floor is above the budget, so the
        # frontier probes nothing before the fallback.
        assert stats.infeasible_columns == 3 * _PolicyGrid.build(space, 0.1).num_variants


class TestPerCellFallback:
    """The all-infeasible ranking probes cells in descending slack ceiling."""

    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    @pytest.mark.parametrize("budget", [0.5, 2.0])
    def test_atom_under_heavy_load_probes_one_cell_per_column(
        self, atom, dns_ideal, monkeypatch, backend, budget
    ):
        # At 0.8 utilisation no Atom cell meets the budget, and every cell
        # is proven so: the fallback ranks only the top of each column.
        qos = MeanResponseTimeConstraint(normalized_budget=budget)
        space = full_space(atom, frequency_step=0.05)
        full, frontier = _managers(atom, space, qos, backend=backend)
        jobs = generate_jobs(
            dns_ideal,
            num_jobs=300 if backend == "reference" else 800,
            utilization=0.8,
            rng=np.random.default_rng(3),
        )
        cells = set()
        sequence_at = _PolicyGrid.sequence_at

        def recording(grid, freq_index, variant_index):
            cells.add((freq_index, variant_index))
            return sequence_at(grid, freq_index, variant_index)

        monkeypatch.setattr(_PolicyGrid, "sequence_at", recording)
        fast = frontier.select(jobs, 0.8)
        monkeypatch.undo()
        oracle = full.select(jobs, 0.8)
        assert oracle.feasible is False
        assert fast.feasible is False
        assert fast.policy == oracle.policy
        stats = frontier.search_stats
        grid = _PolicyGrid.build(space, 0.8)
        assert stats.fallback_full == 1
        assert stats.infeasible_columns == grid.num_variants
        assert stats.proven_cells == stats.candidates_seen
        variants = [variant for _, variant in cells]
        assert len(variants) == len(set(variants))
        assert stats.candidates_evaluated <= grid.num_variants


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
    """The engine inside the epoch loop: frontier and full pick alike."""

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

    def test_epoch_loop_parity_full_and_frontier(self, xeon, dns_ideal):
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
