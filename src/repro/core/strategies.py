"""Power-management strategies compared in the paper's evaluation (Figure 9).

A *strategy* decides, once per epoch, which policy the server will run for
the next epoch, given the predicted utilisation and the job log of recent
epochs.  The strategies the paper compares are:

* **SS** — SleepScale proper: simulate every (frequency, low-power state)
  candidate on the (rescaled) logged workload and pick the cheapest one that
  meets the QoS;
* **SS(C3)** — SleepScale restricted to the single low-power state C3S0(i);
* **DVFS** — DVFS-only: pick the cheapest frequency that meets the QoS but
  never enter a low-power state when idle;
* **R2H(C3)**, **R2H(C6)** — race-to-halt: always run at ``f = 1`` and drop
  into the given state as soon as the queue empties.

All strategies share the :class:`PowerManagementStrategy` interface so the
runtime controller (and Figure 9's benchmark) can treat them uniformly.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

from repro.core.policy_manager import PolicyManager, PolicySelection
from repro.core.search import DEFAULT_SEARCH, SearchStats
from repro.core.qos import QosConstraint
from repro.exceptions import ConfigurationError
from repro.policies.policy import Policy, race_to_halt_policy
from repro.policies.space import (
    PolicySpace,
    dvfs_only_space,
    full_space,
    single_state_space,
)
from repro.power.platform import ServerPowerModel
from repro.power.states import C3_S0I, C6_S0I, SystemState
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.workloads.generator import generate_jobs, make_rng
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class EpochContext:
    """Everything a strategy may look at when choosing the next epoch's policy."""

    predicted_utilization: float
    spec: WorkloadSpec
    logged_jobs: JobTrace | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.predicted_utilization <= 1.0:
            raise ConfigurationError(
                "predicted utilisation must lie in [0, 1], got "
                f"{self.predicted_utilization}"
            )


class PowerManagementStrategy(abc.ABC):
    """Chooses one policy per epoch."""

    #: Short label used in figures, e.g. ``"SS"`` or ``"R2H(C6)"``.
    name: str = "strategy"

    #: Wall-clock seconds spent inside :meth:`select_policy` so far; the
    #: policy-search benchmark reads this to time the search alone,
    #: independent of epoch simulation and dispatch.
    search_seconds: float = 0.0

    @abc.abstractmethod
    def select_policy(self, context: EpochContext) -> Policy:
        """The policy to run for the upcoming epoch."""

    def describe(self) -> str:
        """Human-readable description for reports."""
        return self.name


class PolicySearchStrategy(PowerManagementStrategy):
    """A strategy that searches a policy space with the policy manager.

    This single class backs SleepScale (full space), SleepScale restricted to
    one state, and the DVFS-only baseline — the only difference between them
    is the candidate space handed to the :class:`PolicyManager`.

    Characterisation input: if the epoch context carries a job log, its
    inter-arrival times are rescaled so the offered load matches the
    predicted utilisation (Section 5.2.1/5.2.2); otherwise a synthetic stream
    is sampled from the workload spec at the predicted utilisation.

    The per-epoch search itself runs through the policy manager's search
    engine when *search* is ``"frontier"`` (the default,
    :data:`~repro.core.search.DEFAULT_SEARCH`, see :mod:`repro.core.search`);
    the selected policy is identical to the ``"full"`` grid oracle either way.
    """

    def __init__(
        self,
        name: str,
        power_model: ServerPowerModel,
        space: PolicySpace,
        qos: QosConstraint,
        scaling: ServiceScaling | None = None,
        characterization_jobs: int = 2_000,
        max_logged_jobs: int = 5_000,
        min_utilization: float = 0.02,
        seed: int | None = 0,
        search: str = DEFAULT_SEARCH,
    ):
        self.name = name
        self._manager = PolicyManager(
            power_model=power_model,
            policy_space=space,
            qos=qos,
            scaling=scaling or cpu_bound(),
            characterization_jobs=characterization_jobs,
            seed=seed,
            search=search,
        )
        self._max_logged_jobs = int(max_logged_jobs)
        self._min_utilization = float(min_utilization)
        self._characterization_jobs = int(characterization_jobs)
        self._rng = make_rng(seed)
        self._last_selection: PolicySelection | None = None
        self.search_seconds = 0.0

    @property
    def last_selection(self) -> PolicySelection | None:
        """The most recent selection.

        Its ``evaluations`` hold the whole characterisation table only under
        ``search="full"``; a frontier selection keeps just the winning row.
        """
        return self._last_selection

    @property
    def policy_manager(self) -> PolicyManager:
        """The underlying policy manager (exposed for inspection/tests)."""
        return self._manager

    @property
    def search(self) -> str:
        """The policy-search mode in force (``"full"`` or ``"frontier"``)."""
        return self._manager.search

    @property
    def search_stats(self) -> SearchStats | None:
        """Search-engine counters (``None`` for the plain full search)."""
        return self._manager.search_stats

    def _characterization_jobs_for(self, context: EpochContext) -> JobTrace:
        utilization = max(context.predicted_utilization, self._min_utilization)
        utilization = min(utilization, 0.98)
        if context.logged_jobs is not None and len(context.logged_jobs) >= 10:
            logged = context.logged_jobs
            if len(logged) > self._max_logged_jobs:
                # Keep the *most recent* jobs: the paper rescales the log of
                # recent epochs, and the tail is what reflects the current
                # workload.  (``head`` here silently characterised against
                # the oldest — stalest — slice of an over-long log window.)
                logged = logged.tail(self._max_logged_jobs)
            return logged.scaled_to_utilization(utilization)
        return generate_jobs(
            context.spec,
            num_jobs=self._characterization_jobs,
            utilization=utilization,
            rng=self._rng,
        )

    def select_policy(self, context: EpochContext) -> Policy:
        utilization = min(
            max(context.predicted_utilization, self._min_utilization), 0.98
        )
        started = time.perf_counter()
        jobs = self._characterization_jobs_for(context)
        selection = self._manager.select(jobs, utilization)
        self.search_seconds += time.perf_counter() - started
        self._last_selection = selection
        return selection.policy


class RaceToHaltStrategy(PowerManagementStrategy):
    """Always run at full speed and sleep immediately in one fixed state."""

    def __init__(self, power_model: ServerPowerModel, state: SystemState):
        self._policy = race_to_halt_policy(power_model, state)
        self.name = f"R2H({_short_state_name(state)})"

    def select_policy(self, context: EpochContext) -> Policy:
        return self._policy


class FixedPolicyStrategy(PowerManagementStrategy):
    """Always run the same externally supplied policy (useful for ablations)."""

    def __init__(self, policy: Policy, name: str | None = None):
        self._policy = policy
        self.name = name or f"fixed[{policy.label}]"

    def select_policy(self, context: EpochContext) -> Policy:
        return self._policy


def _short_state_name(state: SystemState) -> str:
    """Compact state label used in strategy names (``C3`` instead of ``C3S0(i)``)."""
    return state.cpu.value


# ---------------------------------------------------------------------------
# Factory functions for the named strategies of Figure 9
# ---------------------------------------------------------------------------


def sleepscale_strategy(
    power_model: ServerPowerModel,
    qos: QosConstraint,
    scaling: ServiceScaling | None = None,
    frequency_step: float = 0.05,
    characterization_jobs: int = 2_000,
    max_logged_jobs: int = 5_000,
    seed: int | None = 0,
    search: str = DEFAULT_SEARCH,
) -> PolicySearchStrategy:
    """The full SleepScale strategy (SS): all low-power states, joint search."""
    space = full_space(power_model, frequency_step=frequency_step, scaling=scaling or cpu_bound())
    return PolicySearchStrategy(
        name="SS",
        power_model=power_model,
        space=space,
        qos=qos,
        scaling=scaling,
        characterization_jobs=characterization_jobs,
        max_logged_jobs=max_logged_jobs,
        seed=seed,
        search=search,
    )


def sleepscale_single_state_strategy(
    power_model: ServerPowerModel,
    qos: QosConstraint,
    state: SystemState = C3_S0I,
    scaling: ServiceScaling | None = None,
    frequency_step: float = 0.05,
    characterization_jobs: int = 2_000,
    max_logged_jobs: int = 5_000,
    seed: int | None = 0,
    search: str = DEFAULT_SEARCH,
) -> PolicySearchStrategy:
    """SleepScale restricted to a single low-power state — SS(C3) in the paper."""
    space = single_state_space(
        power_model, state, frequency_step=frequency_step, scaling=scaling or cpu_bound()
    )
    return PolicySearchStrategy(
        name=f"SS({_short_state_name(state)})",
        power_model=power_model,
        space=space,
        qos=qos,
        scaling=scaling,
        characterization_jobs=characterization_jobs,
        max_logged_jobs=max_logged_jobs,
        seed=seed,
        search=search,
    )


def dvfs_only_strategy(
    power_model: ServerPowerModel,
    qos: QosConstraint,
    scaling: ServiceScaling | None = None,
    frequency_step: float = 0.05,
    characterization_jobs: int = 2_000,
    max_logged_jobs: int = 5_000,
    seed: int | None = 0,
    search: str = DEFAULT_SEARCH,
) -> PolicySearchStrategy:
    """The DVFS-only baseline: frequency search but no low-power state at all."""
    space = dvfs_only_space(
        power_model, frequency_step=frequency_step, scaling=scaling or cpu_bound()
    )
    return PolicySearchStrategy(
        name="DVFS",
        power_model=power_model,
        space=space,
        qos=qos,
        scaling=scaling,
        characterization_jobs=characterization_jobs,
        max_logged_jobs=max_logged_jobs,
        seed=seed,
        search=search,
    )


def race_to_halt_c3(power_model: ServerPowerModel) -> RaceToHaltStrategy:
    """R2H(C3): full speed, immediate C3S0(i) on idle."""
    return RaceToHaltStrategy(power_model, C3_S0I)


def race_to_halt_c6(power_model: ServerPowerModel) -> RaceToHaltStrategy:
    """R2H(C6): full speed, immediate C6S0(i) on idle."""
    return RaceToHaltStrategy(power_model, C6_S0I)


def figure9_strategies(
    power_model: ServerPowerModel,
    qos: QosConstraint,
    scaling: ServiceScaling | None = None,
    characterization_jobs: int = 2_000,
    max_logged_jobs: int = 5_000,
    seed: int | None = 0,
) -> list[PowerManagementStrategy]:
    """The five strategies Figure 9 compares, in the paper's order."""
    return [
        sleepscale_strategy(
            power_model,
            qos,
            scaling,
            characterization_jobs=characterization_jobs,
            max_logged_jobs=max_logged_jobs,
            seed=seed,
        ),
        sleepscale_single_state_strategy(
            power_model,
            qos,
            C3_S0I,
            scaling,
            characterization_jobs=characterization_jobs,
            max_logged_jobs=max_logged_jobs,
            seed=seed,
        ),
        dvfs_only_strategy(
            power_model,
            qos,
            scaling,
            characterization_jobs=characterization_jobs,
            max_logged_jobs=max_logged_jobs,
            seed=seed,
        ),
        race_to_halt_c3(power_model),
        race_to_halt_c6(power_model),
    ]
