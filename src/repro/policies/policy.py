"""Policy objects.

Throughout the paper the word *policy* means "some combination of power
control methods such as processing speed and low-power state settings"
(Section 1).  Concretely, a policy fixes

* the DVFS frequency scaling factor ``f`` used while the server is busy, and
* the sleep behaviour when the queue empties — an ordered
  :class:`~repro.power.sleep.SleepSequence` of ``(P_i, tau_i, w_i)`` states.

:class:`Policy` bundles the two (plus a display label) and knows how to
evaluate itself against a job trace through the simulation engine, which is
the operation the policy manager performs for every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.power.platform import ServerPowerModel
from repro.power.sleep import SleepSequence, SleepStateSpec
from repro.power.states import C0I_S0I, SystemState
from repro.simulation.engine import simulate_trace
from repro.simulation.metrics import SimulationResult
from repro.simulation.service_scaling import ServiceScaling
from repro.workloads.jobs import JobTrace


@dataclass(frozen=True)
class Policy:
    """A joint (frequency, sleep sequence) power-management policy.

    Parameters
    ----------
    frequency:
        DVFS scaling factor in ``(0, 1]`` used whenever the server is busy.
    sleep:
        The low-power state sequence entered when the queue empties.
    label:
        Optional human-readable name; defaults to
        ``"f=<frequency> <sleep sequence name>"``.
    """

    frequency: float
    sleep: SleepSequence
    label: str = field(default="")

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency <= 1.0:
            raise ConfigurationError(
                f"policy frequency must lie in (0, 1], got {self.frequency}"
            )
        if not self.label:
            object.__setattr__(
                self, "label", f"f={self.frequency:.2f} {self.sleep.name}"
            )

    @property
    def sleep_state_name(self) -> str:
        """Name of the sleep sequence (e.g. ``"C6S3"``), used in reports."""
        return self.sleep.name

    def with_frequency(self, frequency: float) -> "Policy":
        """A copy of this policy running at a different frequency.

        Used by the over-provisioning mechanism, which bumps the selected
        frequency by a factor ``(1 + alpha)`` while keeping the sleep
        behaviour unchanged.
        """
        return Policy(frequency=frequency, sleep=self.sleep)

    def over_provisioned(self, alpha: float) -> "Policy":
        """The policy with its frequency increased by a factor ``1 + alpha``.

        The result is clamped to the maximum scaling factor of 1.0.
        """
        if alpha < 0:
            raise ConfigurationError(
                f"over-provisioning factor must be non-negative, got {alpha}"
            )
        return self.with_frequency(min(1.0, self.frequency * (1.0 + alpha)))

    def evaluate(
        self,
        jobs: JobTrace,
        power_model: ServerPowerModel,
        scaling: ServiceScaling | None = None,
    ) -> SimulationResult:
        """Simulate this policy against *jobs* and return the metrics."""
        return simulate_trace(
            jobs=jobs,
            frequency=self.frequency,
            sleep=self.sleep,
            power_model=power_model,
            scaling=scaling,
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


def single_state_policy(
    power_model: ServerPowerModel,
    state: SystemState,
    frequency: float,
    entry_delay: float = 0.0,
) -> Policy:
    """A policy using one low-power state entered ``entry_delay`` seconds after idling."""
    spec = power_model.sleep_state_spec(state, entry_delay, frequency)
    return Policy(frequency=frequency, sleep=SleepSequence([spec]))


def race_to_halt_policy(
    power_model: ServerPowerModel, state: SystemState
) -> Policy:
    """The paper's race-to-halt baseline: run at ``f = 1``, sleep immediately.

    Corresponds to the left-most tip of the trade-off curves of Figure 1 and
    to the R2H(C3)/R2H(C6) strategies of Figure 9.
    """
    return single_state_policy(power_model, state, frequency=1.0, entry_delay=0.0)


def dvfs_only_sequence(
    power_model: ServerPowerModel, frequency: float
) -> SleepSequence:
    """The sleep side of :func:`dvfs_only_policy`: a no-power-saving pseudo state."""
    spec = SleepStateSpec(
        state=C0I_S0I,
        power=power_model.active_power(frequency),
        entry_delay=0.0,
        wake_up_latency=0.0,
    )
    return SleepSequence([spec], name="no-sleep")


def dvfs_only_policy(power_model: ServerPowerModel, frequency: float) -> Policy:
    """A DVFS-only policy: no power reduction at all when the queue empties.

    The paper's DVFS-only strategy "only uses DVFS and no low-power state",
    so when idle the server keeps drawing the operating power of its current
    frequency setting.  This is modelled as a single pseudo sleep state whose
    resident power equals the active power at *frequency* and whose wake-up
    latency is zero.
    """
    return Policy(
        frequency=frequency,
        sleep=dvfs_only_sequence(power_model, frequency),
        label=f"f={frequency:.2f} dvfs-only",
    )


def delayed_deep_sleep_policy(
    power_model: ServerPowerModel,
    frequency: float,
    shallow_state: SystemState,
    deep_state: SystemState,
    deep_entry_delay: float,
) -> Policy:
    """The Figure 3 policy shape: shallow state immediately, deep state after a delay.

    For example ``C0(i)S0(i) -> C6S3`` with ``tau_2 = 30 / mu``: the server
    drops into the shallow state as soon as the queue empties and falls
    through to the deep state only if it stays idle for *deep_entry_delay*
    seconds.
    """
    if deep_entry_delay <= 0:
        raise ConfigurationError(
            f"deep-state entry delay must be positive, got {deep_entry_delay}"
        )
    sequence = power_model.sleep_sequence(
        [shallow_state, deep_state], [0.0, deep_entry_delay], frequency
    )
    return Policy(frequency=frequency, sleep=sequence)
