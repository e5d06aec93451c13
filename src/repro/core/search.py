"""The policy-search engine: frontier-accelerated policy selection.

SleepScale's per-epoch policy search evaluates every candidate
``(frequency, sleep-state)`` policy against the characterisation trace —
once per epoch, per server.  At farm scale that search, not the queueing
simulation, is the hot path: the full search
(``PolicyManager.characterize``) builds a fresh
:class:`~repro.simulation.kernel.TraceKernel` per call and walks the whole
grid even when the winner barely moves between epochs.  This module makes
the search sublinear in the candidate grid while keeping the selected
policy **identical** to the full-grid oracle:

* :func:`floor_walk` — a best-first walk over the whole grid, ordered by
  proven per-cell bounds, that stops as soon as no unprobed cell can win.

Every cell has a power floor
(:class:`~repro.simulation.kernel.PowerFloor`): for a single state entered
immediately, the kernel splits the horizon exactly into serving, waking and
sleep residency, ``H = S(f) + W + I``, so average power is a mix of the
active and the sleep power with busy weight at least ``S(f) / H``, and
without a carried-in backlog ``H`` is at most ``D0_last(f_a) - t0 + w_s``
at every frequency from an anchor ``f_a`` up (``f_min``, or the anchor of
use 3 below).  The walk probes the cells of every column in ascending
``(floor, freq index, variant)`` order and stops at the first cell whose
floor lies above ``(1 + 1e-9)`` times the best feasible power found: that
cell and every cell after it cost more than a feasible cell already probed
(a column none of whose cells is probed counts in
:attr:`SearchStats.pruned_columns`).  The winner is the least ``(power,
freq index, variant)`` among the feasible probes, which is the oracle's
first minimum in frequency-major order, ties included.  The floors come from
the trace alone — one Lindley pass at the anchor, shared with the probes,
and one active-power and serving-time term per frequency.

Under a mean-response budget, cells can also be proven infeasible without
a probe.  Every cell has a response floor
(:class:`~repro.simulation.kernel.ResponseFloor`) built on the
speed-scaling lemma: with no carried-in backlog, scaling every service time
by ``k = tf(f) / tf(f_max) >= 1`` scales every Lindley waiting time by at
least ``k`` (induction on ``W' = max(0, W + k*S - T)``), so the no-wake
total response obeys ``R0(f) >= k * R0(f_max)``; with a backlog ``k = 1``.
Wake-ups only add delay, at least ``w * K`` in all, where ``K`` is a lower
bound on the gaps that survive at every frequency from an anchor up, read
from the anchor's gaps.  So a cell obeys ``mu * E[R] >= (k * R0(f_max) + w
* K) / (n * mean_demand)``, which gives it a slack ceiling (with a ``1e-9``
relative margin).  The search uses the ceilings in four places, all
exact:

1. a cell whose ceiling is negative is infeasible and never probed.  The
   ceilings rise with frequency, so these cells form a prefix of each
   column, and the walk starts each column at its first unproven cell.  A
   column with no unproven cell is skipped
   (:attr:`SearchStats.infeasible_columns`; every skipped cell counts in
   :attr:`SearchStats.proven_cells`);
2. when nothing is feasible, the fallback ranks cells by their ceilings
   (below);
3. the no-wake ceiling (``w = 0``) bounds every column's, so every cell
   below the first frequency where it is non-negative is infeasible in
   every column.  ``K`` and the power floor's horizon are read there rather
   than at ``f_min``, which tightens both and saves the Lindley pass at
   ``f_min`` whenever that frequency is proven;
4. the power floor's busy weight adds the proven waking time ``w * K``;
   ``K`` is computed once per column and shared by both floors.

These floors too read only the trace, one more Lindley pass at ``f_max``.

No shape of the grid is assumed: QoS slack need not rise with frequency
(under C6S3's 1 s wake-up, short jobs can meet a budget at a low frequency
and miss it at a higher one), and every cell the walk skips is either
proven infeasible or proven dearer than a feasible probe.  When no cell is
feasible, the engine probes every cell that can hold
:func:`~repro.core.policy_manager.pick_selection`'s pick and ranks them by
its rule, so the infeasible ranking (largest slack, NaN-aware) also matches
the oracle.  Under a mean-response budget the cells are probed in
descending slack ceiling, and the first cell whose ceiling lies below the
near-best band of a slack already probed ends the walk: it and every cell
after it are left out.  A probe with a non-finite power sends the selection
to the full grid.  The selected ``PolicySelection.policy`` therefore equals
the full-grid search.  ``tests/core/test_search.py`` fuzzes the equality
and pins a rising-slack sweep, ``benchmarks/search_fuzz.py`` runs more
draws, ``tests/property/test_property_power_floor.py`` and
``tests/property/test_property_response_floor.py`` check every cell
against its floors, on the kernel and on the per-job test oracle, and
``tests/scenarios/test_default_search_parity.py`` pins the selections,
epoch by epoch, on every registered scenario.

Contract notes (see ``docs/ARCHITECTURE.md``):

* frontier selections, including the all-infeasible ranking, carry only
  the winning evaluation in ``PolicySelection.evaluations`` (the probed
  metrics are engine-internal, and only the winner assembles per-job
  arrays); use ``search="full"`` or :meth:`PolicySearchEngine.characterize`
  when the full table is needed;
* the engine is uncached: every epoch characterises a fresh log window, so
  inputs almost never repeat (a characterisation cache shared across the
  ``figure8``-``figure10`` experiments hit 7 times in 7,992 selection
  lookups and made none of them faster).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.policy_manager import (
    NEAR_BEST_SLACK,
    PolicyEvaluation,
    PolicySelection,
    evaluation_from_result,
    pick_index,
    pick_selection,
)
from repro.core.qos import MeanResponseTimeConstraint, QosConstraint
from repro.exceptions import ConfigurationError
from repro.policies.policy import Policy, dvfs_only_policy, dvfs_only_sequence
from repro.policies.space import PolicySpace
from repro.power.platform import ServerPowerModel
from repro.power.sleep import SleepSequence
from repro.simulation.kernel import TraceKernel
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.workloads.jobs import JobTrace

#: Search-mode identifiers accepted by ``PolicyManager``/strategies/scenarios.
SEARCH_FULL = "full"
SEARCH_FRONTIER = "frontier"
SEARCHES = (SEARCH_FULL, SEARCH_FRONTIER)
#: The per-epoch search mode of the runtime surfaces (strategies, scenarios,
#: ``run-scenario``).  Frontier selects the identical policy at a fraction of
#: the kernel solves; ``full`` stays selectable as its oracle.
DEFAULT_SEARCH = SEARCH_FRONTIER


def validate_search(search: str) -> str:
    """Validate a policy-search mode name."""
    if search not in SEARCHES:
        raise ConfigurationError(
            f"unknown policy search mode {search!r}; expected one of {SEARCHES}"
        )
    return search


# ---------------------------------------------------------------------------
# The candidate grid
# ---------------------------------------------------------------------------


class _Probe:
    """One evaluated candidate, with QoS metrics computed lazily.

    Average power is available immediately (scalar aggregates of the gap
    solution).  A mean-response budget is checked against the solution's
    gap-aggregate ``E[R]`` — the same number the assembled result reports —
    so mean-QoS probes never build per-job arrays; any other constraint
    materialises them on first access to slack or feasibility.
    """

    __slots__ = ("solution", "_qos", "_mean_budget", "_slack", "_meets")

    def __init__(self, solution, qos: QosConstraint):
        self.solution = solution
        self._qos = qos
        # ``MeanResponseTimeConstraint.is_met``/``slack`` restated on the
        # solution's aggregates; subclasses keep their own rules.
        self._mean_budget = (
            qos.normalized_budget
            if type(qos) is MeanResponseTimeConstraint
            else None
        )
        self._slack = None
        self._meets = None

    @property
    def power(self) -> float:
        return self.solution.average_power

    @property
    def slack(self) -> float:
        if self._slack is None:
            if self._mean_budget is None:
                self._slack = self._qos.slack(self.solution.result)
            else:
                self._slack = (
                    self._mean_budget - self.solution.normalized_mean_response_time
                )
        return self._slack

    @property
    def meets(self) -> bool:
        if self._meets is None:
            if self._mean_budget is None:
                self._meets = self._qos.is_met(self.solution.result)
            else:
                self._meets = (
                    self.solution.normalized_mean_response_time <= self._mean_budget
                )
        return self._meets


class _PolicyGrid:
    """The candidate space reshaped as (frequency x sleep-variant), lazily.

    The grid builds only the cells the search probes, replicating the row
    body of :meth:`PolicySpace.candidate_policies` exactly — the
    enumeration order (frequency-major, variants in declaration order) and
    the produced :class:`Policy` values are identical to the full search's,
    which ``tests/core/test_search.py`` pins for every space shape and
    power model.  A probe needs only a cell's sleep sequence
    (:meth:`sequence_at`); the :class:`Policy` is built for the winner
    alone (:meth:`policy_at`).  Laziness is only used for
    :class:`PolicySpace` itself; subclasses overriding the enumeration fall
    back to the exhaustive search (``build`` returns ``None``).
    """

    def __init__(self, space: PolicySpace, frequencies: np.ndarray):
        self.space = space
        #: The frequency axis as Python floats: cells read scalars.
        self.frequencies: list[float] = frequencies.tolist()
        self.num_frequencies = len(self.frequencies)
        self.num_variants = len(space.states) + int(space.include_dvfs_only)
        self._sequences: dict[tuple[int, int], SleepSequence] = {}

    @classmethod
    def build(
        cls,
        space: PolicySpace,
        utilization: float,
        frequencies: np.ndarray | None = None,
    ) -> "_PolicyGrid | None":
        if type(space) is not PolicySpace:
            return None
        if frequencies is None:
            frequencies = space.candidate_frequencies(utilization)
        if frequencies.size == 0:
            return None
        grid = cls(space, frequencies)
        return grid if grid.num_variants > 0 else None

    @property
    def policies(self) -> list[Policy]:
        """Every candidate in full-enumeration order (materialises all cells)."""
        return [
            self.policy_at(freq_index, variant_index)
            for freq_index in range(self.num_frequencies)
            for variant_index in range(self.num_variants)
        ]

    def sequence_at(self, freq_index: int, variant_index: int) -> SleepSequence:
        """The sleep sequence of one grid cell (cached).

        Mirrors the per-frequency body of ``candidate_policies`` for a
        single cell, so only the probed candidates are ever constructed.
        """
        cell = (freq_index, variant_index)
        sequence = self._sequences.get(cell)
        if sequence is None:
            space = self.space
            frequency = self.frequencies[freq_index]
            if variant_index < len(space.states):
                sequence = space.power_model.immediate_sleep_sequence(
                    space.states[variant_index], frequency
                )
            else:
                sequence = dvfs_only_sequence(space.power_model, frequency)
            self._sequences[cell] = sequence
        return sequence

    def floor_terms(self, variant_index: int) -> tuple[list[float], float]:
        """``(P_s(f) per frequency, w_s)`` of a column's single state.

        The powers equal those of :meth:`sequence_at`'s specs bit for bit.
        """
        space = self.space
        wake = self.wake_up_latency(variant_index)
        if variant_index < len(space.states):
            state = space.states[variant_index]
            return space.power_model.sleep_powers(state, self.frequencies), wake
        # The DVFS-only pseudo state idles at the active power, waking in 0 s.
        active = space.power_model.active_power
        return [active(frequency) for frequency in self.frequencies], wake

    def wake_up_latency(self, variant_index: int) -> float:
        """``w_s`` of a column's single state (0 for the DVFS-only column)."""
        space = self.space
        if variant_index < len(space.states):
            return space.power_model.wake_up_latency(space.states[variant_index])
        return 0.0

    def policy_at(self, freq_index: int, variant_index: int) -> Policy:
        """The candidate at one grid cell, in full-enumeration identity."""
        frequency = self.frequencies[freq_index]
        if variant_index >= len(self.space.states):
            return dvfs_only_policy(self.space.power_model, frequency)
        return Policy(
            frequency=frequency, sleep=self.sequence_at(freq_index, variant_index)
        )


# ---------------------------------------------------------------------------
# The frontier search
# ---------------------------------------------------------------------------

#: Relative margin above the best feasible power a cell's power floor must
#: clear before the cell is skipped, and below the budget a cell's response
#: floor must lie before the cell is proven infeasible; it absorbs rounding
#: in the floors and in the kernel's sums.
_PRUNE_MARGIN = 1e-9


@dataclass
class SearchStats:
    """Counters describing how the engine earned its selections."""

    selections: int = 0
    full_selections: int = 0
    frontier_selections: int = 0
    fallback_full: int = 0
    candidates_seen: int = 0
    candidates_evaluated: int = 0
    #: Columns with an unproven cell, none of which was probed because every
    #: such cell's power floor lies above the winner.
    pruned_columns: int = 0
    #: Columns skipped because their response floor is above the budget:
    #: every cell is proven infeasible.
    infeasible_columns: int = 0
    #: Cells proven infeasible by their own response floor (every cell of an
    #: infeasible column among them); the all-infeasible ranking may still
    #: probe some of them.
    proven_cells: int = 0
    #: Cells never probed: the proven cells the all-infeasible ranking
    #: leaves out, plus those whose power floor lies above the winner.  Each
    #: seen cell counts once, as evaluated or as pruned.
    candidates_pruned: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (for benchmarks; scenario reports omit it)."""
        return {
            "selections": self.selections,
            "full_selections": self.full_selections,
            "frontier_selections": self.frontier_selections,
            "fallback_full": self.fallback_full,
            "candidates_seen": self.candidates_seen,
            "candidates_evaluated": self.candidates_evaluated,
            "pruned_columns": self.pruned_columns,
            "infeasible_columns": self.infeasible_columns,
            "proven_cells": self.proven_cells,
            "candidates_pruned": self.candidates_pruned,
        }


def floor_walk(
    grid: _PolicyGrid,
    probe: Callable[[int, int], _Probe],
    stats: SearchStats,
    floor: Callable[[int], list[float]],
    ceilings: Sequence[Sequence[float]] | None = None,
) -> tuple[int, int, _Probe] | None:
    """The winning grid cell ``(freq index, variant index, probe)``, exactly.

    ``None`` means no candidate anywhere is feasible (the caller ranks the
    grid for the oracle's infeasible pick).  *ceilings*, when given, holds a
    proven upper bound on the slack of each cell of each column; the cells
    below a column's first non-negative bound are infeasible and never
    probed, and a column with none is skipped.  ``floor(variant)`` holds a
    proven power floor per cell of a column.  Every other cell is probed in
    ascending ``(floor, freq index, variant)`` order until a floor lies above
    the best feasible power found: that cell and every cell after it cost
    more than a feasible cell already probed.  The winner is the least
    ``(power, freq index, variant)`` among the feasible probes, the oracle's
    first minimum in frequency-major order.
    """
    size = grid.num_frequencies
    cells: list[tuple[float, int, int]] = []
    for variant in range(grid.num_variants):
        proven = 0
        if ceilings is not None:
            proven = next(
                (
                    index
                    for index, cap in enumerate(ceilings[variant])
                    if not cap < 0.0
                ),
                size,
            )
            stats.proven_cells += proven
            stats.candidates_pruned += proven
        if proven == size:
            stats.infeasible_columns += 1
            continue
        floors = floor(variant)
        cells.extend((floors[index], index, variant) for index in range(proven, size))
    cells.sort()
    best: tuple[float, int, int] | None = None
    best_probe: _Probe | None = None
    walked = 0
    for bound, index, variant in cells:
        if best is not None and bound > best[0] * (1.0 + _PRUNE_MARGIN):
            break
        walked += 1
        entry = probe(index, variant)
        # Feasibility is read only where it matters: a percentile budget
        # assembles per-job arrays to answer it.
        order = (entry.power, index, variant)
        if (best is None or order < best) and entry.meets:
            best, best_probe = order, entry
    stats.candidates_pruned += len(cells) - walked
    stats.pruned_columns += len({variant for _, _, variant in cells}) - len(
        {variant for _, _, variant in cells[:walked]}
    )
    if best is None or best_probe is None:
        return None
    return best[1], best[2], best_probe


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class PolicySearchEngine:
    """Frontier-accelerated policy characterisation/selection.

    One engine backs one frontier
    :class:`~repro.core.policy_manager.PolicyManager` (hence one strategy,
    hence one server); the full-grid oracle is ``PolicyManager(search="full")``,
    which builds no engine.  The engine solves each probed cell through one
    :class:`~repro.simulation.kernel.TraceKernel` per trace and owns the
    :class:`SearchStats` counters benchmarks read.
    """

    def __init__(
        self,
        power_model: ServerPowerModel,
        policy_space: PolicySpace,
        qos: QosConstraint,
        scaling: ServiceScaling | None = None,
    ):
        self._power_model = power_model
        self._space = policy_space
        self._qos = qos
        self._scaling = scaling or cpu_bound()
        #: Small LRU of candidate grids keyed by the frequency axis: two
        #: utilisations whose stability pruning yields the same axis share
        #: the same candidate policies, so they are not rebuilt per epoch.
        self._grids: OrderedDict[bytes, _PolicyGrid | None] = OrderedDict()
        self.stats = SearchStats()

    # -- characterisation -----------------------------------------------------

    def _grid_for(self, utilization: float) -> "_PolicyGrid | None":
        """The candidate grid at *utilization*, cached by frequency axis."""
        frequencies = self._space.candidate_frequencies(utilization)
        key = frequencies.tobytes()
        grid = self._grids.get(key)
        if key not in self._grids:
            grid = _PolicyGrid.build(self._space, utilization, frequencies)
            self._grids[key] = grid
            while len(self._grids) > 16:
                self._grids.popitem(last=False)
        else:
            self._grids.move_to_end(key)
        return grid

    def characterize(
        self, jobs: JobTrace, utilization: float
    ) -> tuple[PolicyEvaluation, ...]:
        """The full characterisation table, in full-enumeration order."""
        grid = self._grid_for(utilization)
        candidates = (
            grid.policies
            if grid is not None
            else self._space.candidate_policies(utilization)
        )
        kernel = TraceKernel(jobs, self._power_model, scaling=self._scaling)
        self.stats.candidates_evaluated += len(candidates)
        return tuple(
            evaluation_from_result(
                policy, kernel.solve(policy.frequency, policy.sleep).result, self._qos
            )
            for policy in candidates
        )

    # -- selection ------------------------------------------------------------

    def select(self, jobs: JobTrace, utilization: float) -> PolicySelection:
        """Select the minimum-power feasible policy, oracle-identically."""
        self.stats.selections += 1
        selection = (
            self._frontier_select(jobs, utilization) if len(jobs) > 0 else None
        )
        if selection is None:
            self.stats.full_selections += 1
            selection = pick_selection(self.characterize(jobs, utilization))
        return selection

    def _frontier_select(
        self, jobs: JobTrace, utilization: float
    ) -> PolicySelection | None:
        """Frontier-accelerated selection; ``None`` requests the full path."""
        grid = self._grid_for(utilization)
        if grid is None:
            return None
        kernel = TraceKernel(jobs, self._power_model, scaling=self._scaling)
        qos = self._qos
        probes: dict[tuple[int, int], _Probe] = {}

        def probe(freq_index: int, variant_index: int) -> _Probe:
            cell = (freq_index, variant_index)
            entry = probes.get(cell)
            if entry is None:
                solution = kernel.solve(
                    grid.frequencies[freq_index],
                    grid.sequence_at(freq_index, variant_index),
                )
                entry = _Probe(solution, qos)
                probes[cell] = entry
                self.stats.candidates_evaluated += 1
            return entry

        frequencies = grid.frequencies
        wakes = [grid.wake_up_latency(variant) for variant in range(grid.num_variants)]
        survivors = [0] * grid.num_variants
        anchor = 0
        ceilings = None
        if type(qos) is MeanResponseTimeConstraint:
            # The same test ``_Probe`` applies: a cell meets the budget iff
            # its slack, budget minus mu*E[R], is non-negative.
            budget = qos.normalized_budget
            margin = 1.0 - _PRUNE_MARGIN
            # No column's cell beats the no-wake floor at its frequency, so
            # every cell below the first one that can meet the budget with
            # no wake-up at all is infeasible: read ``K`` and the power
            # floor's horizon there (at the top when no cell can).
            no_wake = kernel.response_floor(frequencies, first=None).cells(0.0)
            anchor = next(
                (
                    index
                    for index, floor in enumerate(no_wake)
                    if not budget - floor * margin < 0.0
                ),
                grid.num_frequencies - 1,
            )
            response_floor = kernel.response_floor(frequencies, anchor)
            survivors = [response_floor.survivors(wake) for wake in wakes]
            ceilings = [
                [budget - floor * margin for floor in response_floor.cells(wake, count)]
                for wake, count in zip(wakes, survivors, strict=True)
            ]
        power_floor = kernel.power_floor(frequencies, anchor)

        def floor(variant_index: int) -> list[float]:
            sleep_powers, wake = grid.floor_terms(variant_index)
            return power_floor(sleep_powers, wake, wake * survivors[variant_index])

        # Count without touching grid.policies: materialising every cell
        # just to count it would defeat the lazy grid.
        self.stats.candidates_seen += grid.num_frequencies * grid.num_variants
        winner = floor_walk(grid, probe, self.stats, floor, ceilings)
        feasible = winner is not None
        if winner is None:
            # Nothing feasible was found: the oracle ranks the whole table
            # (largest slack, NaN-aware), so probe every cell that can hold
            # its pick and rank them by the same rule, in enumeration order.
            walked = len(probes)
            cells = self._contending_cells(grid, probe, probes, ceilings)
            entries = [probe(*cell) for cell in cells]
            # The walk probed every unproven cell, so each new probe is a
            # proven cell it counted as pruned: count it once, as evaluated.
            self.stats.candidates_pruned -= len(probes) - walked
            index, feasible = pick_index(
                [(entry.power, entry.meets, entry.slack) for entry in entries]
            )
            winner = (*cells[index], entries[index])
        if not all(math.isfinite(entry.power) for entry in probes.values()):
            # The floors cannot order a non-finite power; the oracle ranks it.
            return None
        if feasible:
            self.stats.frontier_selections += 1
        else:
            self.stats.fallback_full += 1
        freq_index, variant_index, entry = winner
        best = evaluation_from_result(
            grid.policy_at(freq_index, variant_index), entry.solution.result, qos
        )
        return PolicySelection(best=best, evaluations=(best,), feasible=feasible)

    @staticmethod
    def _contending_cells(
        grid: _PolicyGrid,
        probe: Callable[[int, int], _Probe],
        probes: dict[tuple[int, int], _Probe],
        ceilings: Sequence[Sequence[float]] | None,
    ) -> list[tuple[int, int]]:
        """The cells that can hold the all-infeasible pick, in enumeration order.

        ``pick_index`` picks among the feasible cells or, with none, among
        the cells within :data:`NEAR_BEST_SLACK` of the largest slack
        ``s*``.  Once a slack ``s`` is probed, ``s <= s*``, and the band's
        edge ``s - NEAR_BEST_SLACK * |s|`` only rises with ``s``; so a cell
        whose slack ceiling lies below both 0 and that edge is neither kind
        of cell.  Cells are probed in descending ceiling order, so the
        first one ruled out rules out the rest.
        """
        cells = [
            (freq_index, variant_index)
            for freq_index in range(grid.num_frequencies)
            for variant_index in range(grid.num_variants)
        ]
        if ceilings is None:
            return cells
        best = max(
            (entry.slack for entry in probes.values() if math.isfinite(entry.slack)),
            default=-math.inf,
        )
        contending = []
        for freq_index, variant_index in sorted(
            cells, key=lambda cell: -ceilings[cell[1]][cell[0]]
        ):
            edge = best - NEAR_BEST_SLACK * abs(best)
            if ceilings[variant_index][freq_index] < min(edge, 0.0):
                break
            contending.append((freq_index, variant_index))
            slack = probe(freq_index, variant_index).slack
            if math.isfinite(slack):
                best = max(best, slack)
        return sorted(contending)
