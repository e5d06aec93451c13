"""The policy-search engine: frontier-accelerated policy selection.

SleepScale's per-epoch policy search evaluates every candidate
``(frequency, sleep-state)`` policy against the characterisation trace —
once per epoch, per server.  At farm scale that search, not the queueing
simulation, is the hot path: ``PolicyManager.characterize_batch`` rebuilds a
fresh :class:`~repro.simulation.kernel.TraceKernel` per call and walks the
whole grid even when the winner barely moves between epochs.  This module
makes the search sublinear in the candidate grid while keeping the selected
policy **identical** to the full-grid oracle:

* :class:`FrontierSearch` — exploits the monotone structure of the grid
  (the speed-scaling frontier of Wierman et al.): at a fixed sleep state,
  QoS slack is non-decreasing in frequency, so the feasible set is a suffix
  of the sorted frequency axis whose boundary can be *bisected*; average
  power along the feasible suffix is unimodal (a valley between the
  run-slow and race-to-idle regimes), so the cheapest feasible setting is
  found by bisecting for the first ascending power pair.  Both bisection
  phases are warm-started from the previous epoch's boundary/winner.

Across columns the engine prunes by a proven bound rather than by shape.
The previous selection's winning column is searched first; every later
column whose power floor lies above ``(1 + 1e-9)`` times the best feasible
column winner so far is skipped (:attr:`SearchStats.pruned_columns`).  The
floor (:class:`~repro.simulation.kernel.PowerFloor`) holds for a single
state entered immediately: the kernel splits the horizon exactly into
serving, waking and sleep residency, ``H = S(f) + W + I``, so average power
is a mix of the active and the sleep power with busy weight at least
``S(f) / H``, and without a carried-in backlog ``H`` is at most
``D0_last(f_min) - t0 + w_s``.  Every cell of a skipped column therefore
costs more than a feasible incumbent, and pruning cannot change the
selection: it is exact, not a tolerance.  Ladders with an entry delay get
no floor and are always searched.  The floor's inputs come from the trace
alone — one Lindley pass at the lowest frequency, shared with the probes,
and one active-power and serving-time term per frequency, computed once an
incumbent exists — so both simulation backends prune the same columns.

Within a column the engine never trusts its structural assumptions
blindly.  Every probe is recorded, and a per-column **monotonicity
certificate** — QoS slack non-decreasing in frequency over the probed
window, probed powers valley-shaped around the claimed winner, no NaNs, no
exact power ties — is checked before a column winner is accepted.  A
violated certificate falls the column back to exhaustive evaluation; when
no column has a feasible candidate at all, the engine probes every cell of
the grid and ranks them by :func:`~repro.core.policy_manager.pick_selection`'s
rule, so the infeasible ranking (largest slack, NaN-aware) also matches the
oracle.  The selected ``PolicySelection.policy`` equals the full-grid
search on the same inputs wherever the certificate holds: the winner walk
sweeps every index within ``_WALK_BAND`` of the located minimum, and the
certificate treats only pairs within ``_FLAT_BAND`` as direction-free.  A
cheaper valley behind a bump the walk does not cross is not seen, so this
is not a guarantee on every power curve.  ``tests/core/test_search.py``
fuzzes the equality, ``benchmarks/search_fuzz.py`` runs 1,200 more draws,
``tests/property/test_property_power_floor.py`` checks the floor against
both backends, and ``tests/scenarios/test_default_search_parity.py`` pins
the selections, epoch by epoch, on every registered scenario.

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
    PowerFloor,
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
        self._deep_pairs = []
        states = space.states
        for delay in space.deep_entry_delays:
            deepest = states[-1] if states else None
            shallow = states[0] if states else None
            if deepest is None or shallow is None or deepest == shallow:
                continue
            self._deep_pairs.append((shallow, deepest, delay))
        self.num_variants = (
            len(states) + len(self._deep_pairs) + int(space.include_dvfs_only)
        )
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
            num_states = len(space.states)
            if variant_index < num_states:
                sequence = space.power_model.immediate_sleep_sequence(
                    space.states[variant_index], frequency
                )
            elif variant_index < num_states + len(self._deep_pairs):
                shallow, deepest, delay = self._deep_pairs[
                    variant_index - num_states
                ]
                sequence = space.power_model.sleep_sequence(
                    [shallow, deepest], [0.0, delay], frequency
                )
            else:
                sequence = dvfs_only_sequence(space.power_model, frequency)
            self._sequences[cell] = sequence
        return sequence

    def floor_terms(self, variant_index: int) -> tuple[list[float], float] | None:
        """``(P_s(f) per frequency, w_s)`` of a single-state column.

        The powers equal those of :meth:`sequence_at`'s specs bit for bit.
        ``None`` for a ladder with an entry delay, which has no power floor.
        """
        space = self.space
        num_states = len(space.states)
        if variant_index < num_states:
            state = space.states[variant_index]
            return (
                space.power_model.sleep_powers(state, self.frequencies),
                space.power_model.wake_up_latency(state),
            )
        if variant_index < num_states + len(self._deep_pairs):
            return None
        # The DVFS-only pseudo state idles at the active power, waking in 0 s.
        active = space.power_model.active_power
        return [active(frequency) for frequency in self.frequencies], 0.0

    def policy_at(self, freq_index: int, variant_index: int) -> Policy:
        """The candidate at one grid cell, in full-enumeration identity."""
        frequency = self.frequencies[freq_index]
        if variant_index >= len(self.space.states) + len(self._deep_pairs):
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
    #: Columns skipped because their power floor is above a feasible
    #: incumbent, and the grid cells they hold.
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
    """Per-column frontier bisection with warm starts and certificates.

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
    ) -> int | None:
        """Index of the column's cheapest feasible frequency, or ``None``.

        Raises :class:`_CertificateViolation` when the probes contradict the
        monotone-slack / unimodal-power structure.
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

        # Phase 2 — locate the power minimum of the feasible suffix.  The
        # empirical shape family of average power along the frequency axis
        # has at most one descent block: pure ascent (run-slow regime, the
        # minimum is the boundary), descent into a valley then ascent (the
        # valley between run-slow and race-to-idle), or a short
        # near-saturation bump followed by the descent.  The suffix minimum
        # is therefore the boundary, the valley, or the top — located with
        # a handful of anchored probes plus one bisection of the monotone
        # descent/ascent transition.  An exact probed power tie is
        # ambiguous for the oracle's first-minimum tie-break, so it voids
        # the certificate.
        def ascends(index: int) -> bool:
            here, there = at(index).power, at(index + 1).power
            if here == there:
                raise _CertificateViolation("probed power tie")
            return there > here

        def first_ascent(low: int, high: int) -> int:
            """First index in ``[low, high]`` whose next step ascends.

            Valid when the pair direction is monotone (descent block then
            ascent block) over the bracket; ``high`` when all descend.
            """
            while low < high:
                mid = (low + high) // 2
                if ascends(mid):
                    high = mid
                else:
                    low = mid + 1
            return low

        winner = boundary
        asc_until = desc_from = desc_until = None
        if boundary < last:
            if not ascends(boundary):
                # Descending start: classic valley; find the first ascending
                # pair.  The valley drifts slowly between epochs, so confirm
                # the warm start with its two neighbouring pairs before
                # falling back to bisection of the remaining bracket.
                low, high = boundary, last
                if warm_winner is not None and boundary < warm_winner < last:
                    w = warm_winner
                    if ascends(w):
                        # Winner is at or left of w; A(boundary) is known
                        # False, so one or two left probes usually pin it.
                        if not ascends(w - 1):
                            low = high = w
                        elif w - 2 <= boundary or not ascends(w - 2):
                            low = high = w - 1
                        else:
                            high = w - 2
                    else:
                        # Winner is right of w.
                        low = w + 1
                        if low < last and ascends(low):
                            low = high = low
                winner = first_ascent(low, high)
                desc_from, desc_until = boundary, winner
            elif not ascends(last - 1):
                # Ascent at the boundary but descent at the top: the curve
                # peaks and then descends through the end, so the suffix
                # minimum is whichever end is cheaper (ties go to the
                # earlier enumeration index, matching the oracle).
                winner = last if at(last).power < at(boundary).power else boundary
                asc_until = boundary + 1
                desc_from, desc_until = last - 1, last
            else:
                # Ascent at both ends: either pure ascent (minimum at the
                # boundary) or a bump hiding an interior valley.  Probe a
                # few interior pairs — previous winner first, then the
                # midpoint and quartiles — for a descent anchor.
                anchor = None
                mid = (boundary + last) // 2
                if (
                    warm_winner is not None
                    and warm_boundary is not None
                    and warm_winner <= warm_boundary
                ):
                    # The previous epoch already concluded pure ascent for
                    # this column; one midpoint spot-check re-verifies it.
                    hints = [mid]
                else:
                    hints = [mid, (boundary + mid) // 2, (mid + last) // 2]
                    if warm_winner is not None:
                        hints.insert(0, warm_winner - 1)
                        hints.insert(1, warm_winner)
                seen = set()
                for hint in hints:
                    hint = min(max(hint, boundary + 1), last - 2)
                    if hint in seen or hint <= boundary or hint >= last - 1:
                        continue
                    seen.add(hint)
                    if not ascends(hint):
                        anchor = hint
                        break
                if anchor is None:
                    winner = boundary  # pure ascent, as far as probed
                    asc_until = last
                else:
                    valley = first_ascent(anchor, last)
                    winner = (
                        valley
                        if at(valley).power < at(boundary).power
                        else boundary
                    )
                    asc_until = boundary + 1
                    desc_from, desc_until = anchor, valley

        # Near-minimum refinement: close to its minimum the power curve of a
        # finite characterisation trace is not smooth.  Adjacent differences
        # wiggle with gap-resolution granularity, and a short bump can hide
        # a second, cheaper valley behind it, so a bisection can land a few
        # indices off.  Walk outward over the contiguous run of indices whose
        # power stays within ``_WALK_BAND`` of the located winner and take
        # the exact minimum, with ties resolved to the earlier index exactly
        # like the oracle's first-minimum scan.  A cheaper valley the walk
        # reaches across a bump voids the certificate below (the descent
        # after the valley is checked), which sends the column to the
        # exhaustive fallback; a valley the walk does not reach is not seen.
        if boundary < last:
            ceiling = at(winner).power * (1.0 + self._WALK_BAND)
            best_index, best_power = winner, at(winner).power
            index = winner
            while index > boundary and at(index - 1).power <= ceiling:
                index -= 1
                power = at(index).power
                if power <= best_power:
                    best_index, best_power = index, power
            index = winner
            while index < last and at(index + 1).power <= ceiling:
                index += 1
                power = at(index).power
                if power < best_power:
                    best_index, best_power = index, power
            winner = best_index

        if not at(winner).meets:
            # Under a monotone slack the whole suffix is feasible; a winner
            # that is not means the structure does not hold here.
            raise _CertificateViolation("winner infeasible")
        self._certify(
            probed, boundary, asc_until, desc_from, desc_until, self._FLAT_BAND
        )
        self._warm[variant] = (
            grid.frequencies[boundary],
            grid.frequencies[winner],
        )
        return winner

    #: Relative power difference below which the certificate treats an
    #: adjacent probed pair as direction-free (gap-resolution granularity,
    #: not curve shape).  Bumps between valleys are not that small (0.2% is
    #: observed on a 700-job percentile-QoS trace on the Atom preset), so
    #: the band stays narrow: a bump the walk probes across still counts as
    #: a change of direction.
    _FLAT_BAND = 3e-4

    #: Relative width of the winner walk around a located power minimum.  It
    #: must span the bumps that can separate two valleys of one column; a
    #: 3e-4 walk missed a cheaper valley behind a 0.2% bump.
    _WALK_BAND = 3e-3

    @staticmethod
    def _certify(
        probed: dict[int, _Probe],
        boundary: int,
        asc_until: int | None,
        desc_from: int | None,
        desc_until: int | None,
        flat_band: float,
    ) -> None:
        """Check the probed window against the monotone-frontier structure.

        Probed slacks must be non-decreasing in frequency, the feasible set
        must be exactly the suffix from *boundary*, and probed powers must
        match the shape regions the search established: ascending where
        both pair ends lie in ``[boundary, asc_until]`` or at/after
        ``desc_until``, descending where both lie in
        ``[desc_from, desc_until]``.  Pairs straddling a region border, and
        pairs whose power difference lies inside the flat band (direction
        there is granularity noise the winner refinement already swept),
        carry no power constraint.
        """
        indices = sorted(probed)
        previous_slack = None
        previous_power: tuple[int, float] | None = None
        for index in indices:
            entry = probed[index]
            if entry.slack_computed:
                # Slack checks cover exactly the probes whose slack the
                # search consumed (feasibility phase + winner); valley
                # probes stay power-only and are governed by the shape
                # checks below.
                if previous_slack is not None and entry.slack < previous_slack:
                    raise _CertificateViolation("slack not monotone over probes")
                previous_slack = entry.slack
                if entry.meets != (index >= boundary):
                    raise _CertificateViolation("feasible set is not a suffix")
            if index < boundary:
                continue
            if previous_power is not None:
                earlier_index, earlier_power = previous_power
                ascended = entry.power > earlier_power
                if abs(entry.power - earlier_power) <= flat_band * abs(
                    earlier_power
                ):
                    previous_power = (index, entry.power)
                    continue
                if (
                    asc_until is not None
                    and index <= asc_until
                    and not ascended
                ):
                    raise _CertificateViolation("power not ascending from boundary")
                if (
                    desc_from is not None
                    and earlier_index >= desc_from
                    and index <= desc_until
                    and ascended
                ):
                    raise _CertificateViolation("power not descending to valley")
                if (
                    desc_until is not None
                    and earlier_index >= desc_until
                    and not ascended
                ):
                    raise _CertificateViolation("power not ascending from valley")
            previous_power = (index, entry.power)

    # -- whole-grid search ----------------------------------------------------

    #: Relative margin above the incumbent a column's power floor must clear
    #: before the column is skipped; it absorbs rounding in the floor and
    #: in the kernel's energy sums.
    _PRUNE_MARGIN = 1e-9

    def run(
        self,
        grid: _PolicyGrid,
        probe: Callable[[int, int], _Probe],
        stats: SearchStats,
        floor: Callable[[int], float],
    ) -> tuple[int, int, _Probe] | None:
        """The winning grid cell ``(freq index, variant index, probe)``.

        ``None`` means no candidate anywhere is feasible (the caller ranks
        the whole grid for oracle-identical infeasible ranking).  Columns
        whose certificate fails are re-evaluated exhaustively, so the
        returned winner always matches the oracle's feasible minimum.

        The previous winner's column is searched first; after that a column
        whose proven power floor (``floor(variant)``) lies above the best
        feasible column winner so far cannot hold the minimum and is skipped.
        """
        best: tuple[float, int, int] | None = None
        best_probe: _Probe | None = None
        first = self._first_variant if self._first_variant < grid.num_variants else 0
        for variant in (first, *range(first), *range(first + 1, grid.num_variants)):
            if best is not None and floor(variant) > best[0] * (
                1.0 + self._PRUNE_MARGIN
            ):
                stats.pruned_columns += 1
                stats.candidates_pruned += grid.num_frequencies
                continue
            try:
                winner = self._column_winner(grid, variant, probe)
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

        # Built on the first call, which comes only once an incumbent exists.
        power_floor: PowerFloor | None = None

        def floor(variant_index: int) -> float:
            nonlocal power_floor
            terms = grid.floor_terms(variant_index)
            if terms is None:
                return -math.inf
            if power_floor is None:
                power_floor = kernel.power_floor(grid.frequencies)
            return power_floor(*terms)

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
