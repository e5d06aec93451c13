"""The policy-search engine: frontier-accelerated policy selection.

SleepScale's per-epoch policy search evaluates every candidate
``(frequency, sleep-state)`` policy against the characterisation trace —
once per epoch, per server.  At farm scale that search, not the queueing
simulation, is the hot path: ``PolicyManager.characterize_batch`` rebuilds a
fresh :class:`~repro.simulation.kernel.TraceKernel` per call and walks the
whole grid even when the winner barely moves between epochs.  This module
makes the search sublinear in the candidate grid while keeping the selected
policy **identical** to the full-grid oracle:

* :class:`FrontierSearch` — exploits the monotone slack of the grid (the
  speed-scaling frontier of Wierman et al.): at a fixed sleep state, QoS
  slack is non-decreasing in frequency, so the feasible set is a suffix of
  the sorted frequency axis whose boundary can be *bisected*, warm-started
  from the previous epoch's boundary.

Inside that suffix, and across columns, the engine prunes by a proven bound
rather than by shape.  Every cell has a power floor
(:class:`~repro.simulation.kernel.PowerFloor`): for a single state entered
immediately, the kernel splits the horizon exactly into serving, waking and
sleep residency, ``H = S(f) + W + I``, so average power is a mix of the
active and the sleep power with busy weight at least ``S(f) / H``, and
without a carried-in backlog ``H`` is at most ``D0_last(f_min) - t0 + w_s``.
A column's search probes the previous winner (or the boundary) first, then
walks the feasible suffix in ascending floor order and stops at the first
cell whose floor lies above ``(1 + 1e-9)`` times the lower of the column's
best and the best feasible cell of earlier columns.  The previous
selection's winning column is searched first, and a column whose every
floor lies above that incumbent is skipped (:attr:`SearchStats.pruned_columns`).
A skipped cell costs more than a feasible cell already probed, so pruning
cannot change the selection: it is exact, not a tolerance.  The floors come
from the trace alone — one Lindley pass at the lowest frequency, shared
with the probes, and one active-power and serving-time term per frequency —
so both simulation backends prune the same cells.

The only structural assumption left is the monotone slack, and it is
checked, not trusted.  Every probe is recorded, and a per-column
**certificate** — QoS slack non-decreasing in frequency and the feasible set
a suffix over every probe whose slack the search read, a feasible winner, no
non-finite power — is checked before a column winner is accepted.  A
violated certificate falls the column back to exhaustive evaluation; when
no column has a feasible candidate at all, the engine probes every cell of
the grid and ranks them by :func:`~repro.core.policy_manager.pick_selection`'s
rule, so the infeasible ranking (largest slack, NaN-aware) also matches the
oracle.  The selected ``PolicySelection.policy`` therefore equals the
full-grid search whenever slack is monotone in frequency, ties included
(the lower index wins, as in the oracle's first-minimum scan), and a slack
that is not monotone is caught wherever a probe reads it.  ``tests/core/test_search.py`` fuzzes the
equality, ``benchmarks/search_fuzz.py`` runs 1,200 more draws,
``tests/property/test_property_power_floor.py`` checks every cell against
its floor on both backends, and ``tests/scenarios/test_default_search_parity.py``
pins the selections, epoch by epoch, on every registered scenario.

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
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.core.policy_manager import (
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
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import (
    BACKEND_VECTORIZED,
    GapSolution,
    TraceKernel,
    validate_backend,
)
from repro.simulation.metrics import SimulationResult
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


class _ResultSolution:
    """Adapter giving a plain :class:`SimulationResult` the solution shape."""

    __slots__ = ("result",)

    def __init__(self, result: SimulationResult):
        self.result = result

    @property
    def average_power(self) -> float:
        return self.result.average_power

    @property
    def normalized_mean_response_time(self) -> float:
        return self.result.normalized_mean_response_time


class _Probe:
    """One evaluated candidate, with QoS metrics computed lazily.

    Average power is available immediately (scalar aggregates of the gap
    solution).  A mean-response budget is checked against the solution's
    gap-aggregate ``E[R]`` — the same number the assembled result reports —
    so mean-QoS probes never build per-job arrays; any other constraint
    materialises them on first access to slack or feasibility.
    ``slack_computed`` lets the certificate check slack monotonicity over
    exactly the probes whose slack the search actually used.
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

    @property
    def slack_computed(self) -> bool:
        return self._slack is not None or self._meets is not None


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
        #: The frequency axis as Python floats: cells and warm starts read
        #: scalars.
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
        if variant_index < len(space.states):
            state = space.states[variant_index]
            return (
                space.power_model.sleep_powers(state, self.frequencies),
                space.power_model.wake_up_latency(state),
            )
        # The DVFS-only pseudo state idles at the active power, waking in 0 s.
        active = space.power_model.active_power
        return [active(frequency) for frequency in self.frequencies], 0.0

    def policy_at(self, freq_index: int, variant_index: int) -> Policy:
        """The candidate at one grid cell, in full-enumeration identity."""
        frequency = self.frequencies[freq_index]
        if variant_index >= len(self.space.states):
            return dvfs_only_policy(self.space.power_model, frequency)
        return Policy(
            frequency=frequency, sleep=self.sequence_at(freq_index, variant_index)
        )


class _CertificateViolation(Exception):
    """Raised inside a column search when a monotonicity assumption fails."""


# ---------------------------------------------------------------------------
# The frontier search
# ---------------------------------------------------------------------------


@dataclass
class SearchStats:
    """Counters describing how the engine earned its selections."""

    selections: int = 0
    full_selections: int = 0
    frontier_selections: int = 0
    fallback_columns: int = 0
    fallback_full: int = 0
    candidates_seen: int = 0
    candidates_evaluated: int = 0
    #: Columns skipped because every cell's power floor is above a feasible
    #: incumbent; ``candidates_pruned`` counts their cells plus the cells
    #: skipped on their floor inside a searched column.
    pruned_columns: int = 0
    candidates_pruned: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (for benchmarks; scenario reports omit it)."""
        return {
            "selections": self.selections,
            "full_selections": self.full_selections,
            "frontier_selections": self.frontier_selections,
            "fallback_columns": self.fallback_columns,
            "fallback_full": self.fallback_full,
            "candidates_seen": self.candidates_seen,
            "candidates_evaluated": self.candidates_evaluated,
            "pruned_columns": self.pruned_columns,
            "candidates_pruned": self.candidates_pruned,
        }


class FrontierSearch:
    """Per-column boundary bisection and floor walk, with warm starts.

    One instance lives inside each :class:`PolicySearchEngine` and carries
    the warm-start state — the previous epoch's feasibility boundary and
    winner frequency per sleep-variant column — across selections.  Warm
    starts only change *which* indices are probed first, never the answer:
    the certificate is checked on whatever window was actually probed.
    """

    def __init__(self) -> None:
        #: variant index -> (boundary frequency, winner frequency) of the
        #: previous accepted frontier selection.
        self._warm: dict[int, tuple[float, float]] = {}
        #: The previous selection's winning column, searched first.
        self._first_variant = 0

    def reset(self) -> None:
        """Drop all warm-start state (selections are unaffected either way)."""
        self._warm.clear()
        self._first_variant = 0

    # -- column search --------------------------------------------------------

    def _column_winner(
        self,
        grid: _PolicyGrid,
        variant: int,
        probe: Callable[[int, int], _Probe],
        floors: list[float],
        incumbent: float,
        stats: SearchStats,
    ) -> int | None:
        """Index of the column's cheapest feasible frequency, or ``None``.

        Cells whose *floors* lie above *incumbent* may be skipped, so a
        column that cannot beat the incumbent may return a cell that is not
        its own minimum.  Raises :class:`_CertificateViolation` when the
        probes contradict the monotone-slack structure.
        """
        last = grid.num_frequencies - 1
        probed: dict[int, _Probe] = {}

        def at(index: int) -> _Probe:
            entry = probed.get(index)
            if entry is None:
                entry = probe(index, variant)
                if not math.isfinite(entry.power):
                    raise _CertificateViolation("non-finite probe")
                probed[index] = entry
            return entry

        warm = self._warm.get(variant)
        warm_boundary = warm_winner = None
        if warm is not None:
            frequencies = grid.frequencies
            warm_boundary = min(bisect_left(frequencies, warm[0] - 1e-12), last)
            warm_winner = min(bisect_left(frequencies, warm[1] - 1e-12), last)

        # Phase 1 — find the feasibility boundary (slack is non-decreasing
        # in frequency, so the feasible set is a suffix).  The boundary
        # drifts by at most an index or two between epochs even though the
        # frequency axis itself shifts, so the warm start is confirmed with
        # a short local walk before resorting to bisection.
        low, high = 0, None  # high: smallest index known feasible
        if warm_boundary is not None and at(warm_boundary).meets:
            high = warm_boundary
            for _ in range(2):  # walk left over small drift
                if high == 0 or not at(high - 1).meets:
                    low = high
                    break
                high -= 1
        elif warm_boundary is not None:
            low = warm_boundary + 1
            if low <= last and at(low).meets:  # drift of one index right
                low = high = low
        if high is None:
            if not at(last).meets:
                # Under a monotone slack an infeasible top means an empty
                # column — but that conclusion rests on unprobed structure,
                # so verify it at the other end: a feasible bottom, or a
                # bottom with *more* slack than the top, contradicts
                # monotonicity and sends the column to the exhaustive
                # fallback instead of being silently skipped.
                bottom = at(0)
                if bottom.meets or not bottom.slack <= at(last).slack:
                    raise _CertificateViolation("slack not monotone at column ends")
                return None
            high = last
        while low < high:
            mid = (low + high) // 2
            if at(mid).meets:
                high = mid
            else:
                low = mid + 1
        boundary = high
        if not at(boundary).meets or (boundary > 0 and at(boundary - 1).meets):
            raise _CertificateViolation("feasibility bisection inconsistent")

        # Phase 2 — the cheapest cell of the feasible suffix.  Probe the
        # previous winner (or the boundary) first, then walk the rest of the
        # suffix in ascending floor order and stop at the first cell whose
        # proven floor lies above the column best or the global incumbent,
        # whichever is lower: no cell from there on can win.  Power ties go
        # to the lower index, like the oracle's first-minimum scan.
        start = (
            warm_winner
            if warm_winner is not None and warm_winner >= boundary
            else boundary
        )
        winner, winner_power = start, at(start).power
        order = sorted(range(boundary, last + 1), key=floors.__getitem__)
        skipped = 0
        for position, index in enumerate(order):
            if floors[index] > min(winner_power, incumbent) * (
                1.0 + self._PRUNE_MARGIN
            ):
                skipped = sum(1 for rest in order[position:] if rest not in probed)
                break
            power = at(index).power
            if (power, index) < (winner_power, winner):
                winner, winner_power = index, power

        if not at(winner).meets:
            # Under a monotone slack the whole suffix is feasible; a winner
            # that is not means the structure does not hold here.
            raise _CertificateViolation("winner infeasible")
        self._certify(probed, boundary)
        stats.candidates_pruned += skipped
        self._warm[variant] = (
            grid.frequencies[boundary],
            grid.frequencies[winner],
        )
        return winner

    @staticmethod
    def _certify(probed: dict[int, _Probe], boundary: int) -> None:
        """Check the probed window against the monotone-slack structure.

        Slack must be non-decreasing in frequency over exactly the probes
        whose slack the search consumed (the feasibility phase and the
        winner), and the feasible set must be the suffix from *boundary*.
        Power-only probes need no check: the floor walk ranks them exactly.
        """
        previous_slack = None
        for index in sorted(probed):
            entry = probed[index]
            if not entry.slack_computed:
                continue
            if previous_slack is not None and entry.slack < previous_slack:
                raise _CertificateViolation("slack not monotone over probes")
            previous_slack = entry.slack
            if entry.meets != (index >= boundary):
                raise _CertificateViolation("feasible set is not a suffix")

    # -- whole-grid search ----------------------------------------------------

    #: Relative margin above the incumbent a cell's power floor must clear
    #: before the cell is skipped; it absorbs rounding in the floor and in
    #: the kernel's energy sums.
    _PRUNE_MARGIN = 1e-9

    def run(
        self,
        grid: _PolicyGrid,
        probe: Callable[[int, int], _Probe],
        stats: SearchStats,
        floor: Callable[[int], list[float]],
    ) -> tuple[int, int, _Probe] | None:
        """The winning grid cell ``(freq index, variant index, probe)``.

        ``None`` means no candidate anywhere is feasible (the caller ranks
        the whole grid for oracle-identical infeasible ranking).  Columns
        whose certificate fails are re-evaluated exhaustively, so the
        returned winner always matches the oracle's feasible minimum.

        The previous winner's column is searched first.  ``floor(variant)``
        holds a proven power floor per cell of a column; a cell whose floor
        lies above the best feasible cell so far cannot hold the minimum and
        is skipped, and so is a column whose every cell is.
        """
        best: tuple[float, int, int] | None = None
        best_probe: _Probe | None = None
        first = self._first_variant if self._first_variant < grid.num_variants else 0
        for variant in (first, *range(first), *range(first + 1, grid.num_variants)):
            floors = floor(variant)
            incumbent = math.inf if best is None else best[0]
            if min(floors) > incumbent * (1.0 + self._PRUNE_MARGIN):
                stats.pruned_columns += 1
                stats.candidates_pruned += grid.num_frequencies
                continue
            try:
                winner = self._column_winner(
                    grid, variant, probe, floors, incumbent, stats
                )
            except _CertificateViolation:
                stats.fallback_columns += 1
                self._warm.pop(variant, None)
                winner = self._exhaustive_column(grid, variant, probe)
            if winner is None:
                continue
            entry = probe(winner, variant)
            order = (entry.power, winner, variant)
            if best is None or order < best:
                best = order
                best_probe = entry
        if best is None or best_probe is None:
            return None
        self._first_variant = best[2]
        return best[1], best[2], best_probe

    @staticmethod
    def _exhaustive_column(
        grid: _PolicyGrid, variant: int, probe: Callable[[int, int], _Probe]
    ) -> int | None:
        """Exact column minimum by evaluating every frequency (fallback)."""
        best: tuple[float, int] | None = None
        for index in range(grid.num_frequencies):
            entry = probe(index, variant)
            if not entry.meets:
                continue
            order = (entry.power, index)
            if best is None or order < best:
                best = order
        return None if best is None else best[1]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class PolicySearchEngine:
    """Frontier-accelerated policy characterisation/selection.

    One engine backs one frontier
    :class:`~repro.core.policy_manager.PolicyManager` (hence one strategy,
    hence one server); the full-grid oracle is ``PolicyManager(search="full")``,
    which builds no engine.  The engine owns:

    * the per-trace evaluator (kernel-backed for the vectorized backend,
      per-candidate :func:`simulate_trace` for the reference backend),
    * the :class:`FrontierSearch` warm-start state, and
    * the :class:`SearchStats` counters benchmarks read.
    """

    def __init__(
        self,
        power_model: ServerPowerModel,
        policy_space: PolicySpace,
        qos: QosConstraint,
        scaling: ServiceScaling | None = None,
        backend: str = BACKEND_VECTORIZED,
    ):
        self._power_model = power_model
        self._space = policy_space
        self._qos = qos
        self._scaling = scaling or cpu_bound()
        self._backend = validate_backend(backend)
        self._frontier = FrontierSearch()
        #: Small LRU of candidate grids keyed by the frequency axis: two
        #: utilisations whose stability pruning yields the same axis share
        #: the same candidate policies, so they are not rebuilt per epoch.
        self._grids: OrderedDict[bytes, _PolicyGrid | None] = OrderedDict()
        self.stats = SearchStats()

    # -- evaluation plumbing --------------------------------------------------

    def _evaluator(
        self, jobs: JobTrace, kernel: TraceKernel
    ) -> Callable[[float, SleepSequence], GapSolution | _ResultSolution]:
        """Solve one ``(frequency, sleep)`` cell on the configured backend."""
        if self._backend == BACKEND_VECTORIZED:
            return kernel.solve

        def evaluate(frequency: float, sleep: SleepSequence) -> _ResultSolution:
            return _ResultSolution(
                simulate_trace(
                    jobs=jobs,
                    frequency=frequency,
                    sleep=sleep,
                    power_model=self._power_model,
                    scaling=self._scaling,
                    backend=self._backend,
                )
            )

        return evaluate

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
        evaluate = self._evaluator(
            jobs, TraceKernel(jobs, self._power_model, scaling=self._scaling)
        )
        self.stats.candidates_evaluated += len(candidates)
        return tuple(
            evaluation_from_result(
                policy, evaluate(policy.frequency, policy.sleep).result, self._qos
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
        if grid is None or grid.num_frequencies < 2:
            return None
        kernel = TraceKernel(jobs, self._power_model, scaling=self._scaling)
        evaluate = self._evaluator(jobs, kernel)
        qos = self._qos
        probes: dict[tuple[int, int], _Probe] = {}

        def probe(freq_index: int, variant_index: int) -> _Probe:
            cell = (freq_index, variant_index)
            entry = probes.get(cell)
            if entry is None:
                solution = evaluate(
                    grid.frequencies[freq_index],
                    grid.sequence_at(freq_index, variant_index),
                )
                entry = _Probe(solution, qos)
                probes[cell] = entry
                self.stats.candidates_evaluated += 1
            return entry

        power_floor = kernel.power_floor(grid.frequencies)

        def floor(variant_index: int) -> list[float]:
            return power_floor(*grid.floor_terms(variant_index))

        # Count without touching grid.policies: materialising every cell
        # just to count it would defeat the lazy grid.
        self.stats.candidates_seen += grid.num_frequencies * grid.num_variants
        winner = self._frontier.run(grid, probe, self.stats, floor)
        if winner is None:
            # Nothing feasible was found: the oracle ranks the whole table
            # (largest slack, NaN-aware), so probe every cell and rank them
            # by the same rule.  Nothing was pruned without an incumbent.
            self.stats.fallback_full += 1
            cells = [
                (freq_index, variant_index)
                for freq_index in range(grid.num_frequencies)
                for variant_index in range(grid.num_variants)
            ]
            entries = [probe(*cell) for cell in cells]
            index, feasible = pick_index(
                [(entry.power, entry.meets, entry.slack) for entry in entries]
            )
            (freq_index, variant_index), entry = cells[index], entries[index]
        else:
            freq_index, variant_index, entry = winner
            feasible = True
            self.stats.frontier_selections += 1
        best = evaluation_from_result(
            grid.policy_at(freq_index, variant_index), entry.solution.result, qos
        )
        return PolicySelection(best=best, evaluations=(best,), feasible=feasible)
