"""Candidate policy spaces.

SleepScale's policy manager evaluates, once per epoch, every candidate policy
in a finite space: the cross product of a small set of DVFS frequencies
(about ten in a real system) and the available low-power states, each
entered immediately on idling.  :class:`PolicySpace`
enumerates that space for a given (predicted) utilisation, skipping operating
points that would leave the queue unstable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, PolicySelectionError
from repro.policies.policy import Policy, dvfs_only_policy
from repro.power.dvfs import discrete_pstate_grid, frequency_grid
from repro.power.platform import ServerPowerModel
from repro.power.states import LOW_POWER_STATES, SystemState
from repro.simulation.service_scaling import ServiceScaling, cpu_bound


@dataclass(frozen=True)
class PolicySpace:
    """Enumerable set of candidate (frequency, sleep-state) policies.

    Parameters
    ----------
    power_model:
        Server power model used to instantiate the sleep sequences (sleep
        power for the shallow states depends on the frequency).
    states:
        The candidate low-power states; each becomes a single-state sequence
        entered immediately on idling.  Defaults to all five states the
        paper studies.
    frequencies:
        Explicit DVFS scaling factors to consider.  When ``None`` a grid is
        generated per utilisation (see ``frequency_step`` / ``use_pstates``).
    frequency_step:
        Grid spacing when generating frequencies per utilisation
        (the paper's runtime search uses a coarse grid; 0.05 by default).
    use_pstates:
        If true, use a fixed realistic P-state grid
        (:func:`~repro.power.dvfs.discrete_pstate_grid`) instead of a
        utilisation-dependent fine grid.
    pstate_levels:
        Number of P-states when ``use_pstates`` is true.
    include_dvfs_only:
        Also include the no-sleep (DVFS-only) pseudo policies, used when the
        space backs the DVFS-only baseline strategy.
    scaling:
        Service-time/frequency dependence used for the stability filter.
    """

    power_model: ServerPowerModel
    states: tuple[SystemState, ...] = tuple(LOW_POWER_STATES)
    frequencies: tuple[float, ...] | None = None
    frequency_step: float = 0.05
    use_pstates: bool = False
    pstate_levels: int = 10
    include_dvfs_only: bool = False
    scaling: ServiceScaling = field(default_factory=cpu_bound)

    def __post_init__(self) -> None:
        if not self.states and not self.include_dvfs_only:
            raise ConfigurationError("policy space needs at least one state")
        if self.frequencies is not None and len(self.frequencies) == 0:
            raise ConfigurationError("explicit frequency list must not be empty")

    # ------------------------------------------------------------------
    # Frequency candidates
    # ------------------------------------------------------------------

    def candidate_frequencies(self, utilization: float) -> np.ndarray:
        """Stable frequency candidates for the given *utilization*."""
        if not 0.0 <= utilization < 1.0:
            raise ConfigurationError(
                f"utilization must lie in [0, 1), got {utilization}"
            )
        minimum_stable = self.scaling.minimum_stable_frequency(utilization)
        if self.frequencies is not None:
            grid = np.asarray(sorted(self.frequencies), dtype=float)
        elif self.use_pstates:
            grid = discrete_pstate_grid(self.pstate_levels)
        else:
            # The grid starts just above the lowest stable frequency, which
            # depends on how strongly service times scale with frequency
            # (memory-bound workloads are stable at any setting).
            grid = frequency_grid(
                min(minimum_stable, 0.98), step=self.frequency_step
            )
        stable = grid[grid > minimum_stable + 1e-9]
        if stable.size == 0:
            # Fall back to full speed, which is stable whenever rho < 1.
            stable = np.array([1.0])
        if stable[-1] < 1.0 - 1e-9:
            stable = np.append(stable, 1.0)
        return stable

    # ------------------------------------------------------------------
    # Policy enumeration
    # ------------------------------------------------------------------

    def candidate_policies(self, utilization: float) -> list[Policy]:
        """All candidate policies that are stable at *utilization*.

        Raises :class:`~repro.exceptions.PolicySelectionError` when the space
        is empty (which only happens for loads at or above 1).
        """
        frequencies = self.candidate_frequencies(utilization)
        policies: list[Policy] = []
        for frequency in frequencies:
            frequency = float(frequency)
            for state in self.states:
                sequence = self.power_model.immediate_sleep_sequence(
                    state, frequency
                )
                policies.append(Policy(frequency=frequency, sleep=sequence))
            if self.include_dvfs_only:
                policies.append(dvfs_only_policy(self.power_model, frequency))
        if not policies:
            raise PolicySelectionError(
                f"no stable candidate policy at utilization {utilization}"
            )
        return policies

    def size(self, utilization: float) -> int:
        """Number of candidate policies at *utilization*."""
        return len(self.candidate_policies(utilization))


def single_state_space(
    power_model: ServerPowerModel,
    state: SystemState,
    **kwargs,
) -> PolicySpace:
    """A policy space restricted to one low-power state (e.g. SS(C3) of Figure 9)."""
    return PolicySpace(power_model=power_model, states=(state,), **kwargs)


def dvfs_only_space(power_model: ServerPowerModel, **kwargs) -> PolicySpace:
    """A policy space with no real sleep state at all (the DVFS-only baseline)."""
    return PolicySpace(
        power_model=power_model, states=(), include_dvfs_only=True, **kwargs
    )


def full_space(
    power_model: ServerPowerModel,
    states: Iterable[SystemState] | None = None,
    **kwargs,
) -> PolicySpace:
    """The default SleepScale policy space: every state, coarse frequency grid."""
    chosen: Sequence[SystemState] = tuple(states) if states is not None else tuple(
        LOW_POWER_STATES
    )
    return PolicySpace(power_model=power_model, states=tuple(chosen), **kwargs)
