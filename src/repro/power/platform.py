"""Whole-server power model: CPU plus platform components.

This module ties together the pieces of the power substrate:

* the per-component Table 2 numbers (:mod:`repro.power.components`),
* the state taxonomy and wake-up latencies (:mod:`repro.power.states`),
* the DVFS model (:mod:`repro.power.dvfs`),

into a single :class:`ServerPowerModel` that can answer the questions the
simulator, analytic model and policy manager ask:

* "how much power does the server draw in combined state X at frequency f?"
* "give me the ``(P_i, tau_i, w_i)`` spec for low-power state X" (to build
  :class:`~repro.power.sleep.SleepSequence` objects),
* "what is the peak (active, f=1) power P0?"

Two presets are provided: :func:`xeon_power_model` built from Table 2, and
:func:`atom_power_model` for the Atom-class sensitivity discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections.abc import Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.power.components import (
    CPU_STATE_TO_MODE,
    ComponentInventory,
    ComponentMode,
    CpuPowerModel,
    atom_component_inventory,
    xeon_component_inventory,
)
from repro.power.dvfs import DvfsModel
from repro.power.sleep import SleepSequence, SleepStateSpec
from repro.power.states import (
    ACTIVE,
    DEFAULT_WAKE_UP_LATENCIES,
    LOW_POWER_STATES,
    CpuState,
    PlatformState,
    SystemState,
    default_wake_up_latency,
)


@dataclass(frozen=True)
class ServerPowerModel:
    """Power model of a complete server.

    Parameters
    ----------
    inventory:
        The CPU power model and platform component inventory (Table 2).
    dvfs:
        The DVFS model mapping frequency scaling factors to power factors.
    wake_up_latencies:
        Mapping from low-power :class:`SystemState` to its average wake-up
        latency in seconds.  Defaults to the representative values the paper
        fixes in Section 4.2.
    name:
        A short identifier used in reports, e.g. ``"xeon"``.
    """

    inventory: ComponentInventory
    dvfs: DvfsModel = field(default_factory=DvfsModel)
    wake_up_latencies: Mapping[SystemState, float] = field(
        default_factory=lambda: dict(DEFAULT_WAKE_UP_LATENCIES)
    )
    name: str = "server"
    #: Per low-power state, the parts of its spec that do not depend on the
    #: frequency: ``(platform power, wake-up latency, name, immediate
    #: sequence)``, where the sequence is shared when the CPU term is
    #: constant too and ``None`` otherwise.  Filled on first use, so at most
    #: one entry per state.  Derived state: kept out of repr, ==, hash and
    #: the pickled state.
    _state_table: dict[
        SystemState, tuple[float, float, str, SleepSequence | None]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for state, latency in self.wake_up_latencies.items():
            if latency < 0:
                raise ConfigurationError(
                    f"wake-up latency for {state.name} must be non-negative, "
                    f"got {latency}"
                )

    def __getstate__(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_state_table", {})

    # ------------------------------------------------------------------
    # Power queries
    # ------------------------------------------------------------------

    def cpu_power(self, state: CpuState, frequency: float = 1.0) -> float:
        """CPU power (watts) in *state* at DVFS factor *frequency*."""
        return self.inventory.cpu.power(state, frequency)

    def platform_power(self, state: PlatformState, cpu_state: CpuState) -> float:
        """Platform (non-CPU) power (watts) for the given platform/CPU states.

        When the platform is in ``S0`` the component mode follows the CPU
        state's column of Table 2 (operating for ``C0(a)``, idle-like
        otherwise).  When the platform is in ``S3`` all components are in the
        deeper-sleep column.
        """
        if state is PlatformState.S3:
            return self.inventory.platform_power(ComponentMode.DEEPER_SLEEP)
        if state is PlatformState.S0_ACTIVE:
            return self.inventory.platform_power(ComponentMode.OPERATING)
        # S0(i): platform components sit in the column matching the CPU state
        # but never deeper than "deep sleep" because RAM etc. stay powered.
        mode = CPU_STATE_TO_MODE[cpu_state]
        if mode is ComponentMode.DEEPER_SLEEP:
            mode = ComponentMode.DEEP_SLEEP
        if mode is ComponentMode.OPERATING:
            mode = ComponentMode.IDLE
        return self.inventory.platform_power(mode)

    def system_power(self, state: SystemState, frequency: float = 1.0) -> float:
        """Total server power (watts) in combined *state* at *frequency*."""
        return self.cpu_power(state.cpu, frequency) + self.platform_power(
            state.platform, state.cpu
        )

    def active_power(self, frequency: float = 1.0) -> float:
        """Power while actively serving jobs at DVFS factor *frequency*.

        This is the paper's ``P0 * f**3`` CPU term plus the active platform
        power; at ``frequency=1`` it is the peak power ``P0`` plus platform.
        """
        return self.system_power(ACTIVE, frequency)

    def peak_power(self) -> float:
        """Active power at full frequency (the most the server can draw)."""
        return self.active_power(1.0)

    def idle_power(self, frequency: float = 1.0) -> float:
        """Power in the operating-idle state ``C0(i)S0(i)`` at *frequency*."""
        return self.system_power(
            SystemState(CpuState.C0_IDLE, PlatformState.S0_IDLE), frequency
        )

    # ------------------------------------------------------------------
    # Wake-up latencies and sleep-state specs
    # ------------------------------------------------------------------

    def wake_up_latency(self, state: SystemState) -> float:
        """Average wake-up latency (seconds) from low-power *state*."""
        if state in self.wake_up_latencies:
            return float(self.wake_up_latencies[state])
        return default_wake_up_latency(state)

    def _state_parts(
        self, state: SystemState
    ) -> tuple[float, float, str, SleepSequence | None]:
        """The frequency-independent parts of *state*'s spec (see the table)."""
        parts = self._state_table.get(state)
        if parts is None:
            if state.is_active:
                raise ConfigurationError(
                    "cannot build a sleep-state spec for the active state"
                )
            platform = self.platform_power(state.platform, state.cpu)
            wake = self.wake_up_latency(state)
            immediate = None
            cpu = self.inventory.cpu
            if type(cpu) is CpuPowerModel and state.cpu in _CONSTANT_CPU_STATES:
                spec = SleepStateSpec(
                    state=state,
                    power=cpu.power(state.cpu) + platform,
                    entry_delay=0.0,
                    wake_up_latency=wake,
                )
                immediate = SleepSequence([spec])
            parts = (platform, wake, state.name, immediate)
            self._state_table[state] = parts
        return parts

    def sleep_state_spec(
        self,
        state: SystemState,
        entry_delay: float = 0.0,
        frequency: float = 1.0,
    ) -> SleepStateSpec:
        """Build the ``(P_i, tau_i, w_i)`` tuple for low-power *state*.

        The resident power of ``C0(i)S0(i)`` and ``C1S0(i)`` depends on the
        DVFS setting left in place when the server idles (the paper holds
        voltage and frequency at the last DVFS setting in ``C0(i)``), hence
        the *frequency* argument; deeper states are frequency-independent,
        and their immediately entered spec is built once per model.  The
        power equals :meth:`system_power` bit for bit.
        """
        platform, wake, _, immediate = self._state_parts(state)
        if immediate is not None and entry_delay == 0.0 and 0.0 <= frequency <= 1.0:
            return immediate[0]
        return SleepStateSpec(
            state=state,
            power=self.inventory.cpu.power(state.cpu, frequency) + platform,
            entry_delay=entry_delay,
            wake_up_latency=wake,
        )

    def immediate_sleep_sequence(
        self, state: SystemState, frequency: float = 1.0
    ) -> SleepSequence:
        """Single-state sequence entered as soon as the queue empties."""
        _, _, name, immediate = self._state_parts(state)
        if immediate is not None and 0.0 <= frequency <= 1.0:
            return immediate
        return SleepSequence([self.sleep_state_spec(state, 0.0, frequency)], name)

    def sleep_sequence(
        self,
        states: Sequence[SystemState],
        entry_delays: Sequence[float],
        frequency: float = 1.0,
    ) -> SleepSequence:
        """Multi-state sequence with explicit entry delays ``tau_i``."""
        if len(states) != len(entry_delays):
            raise ConfigurationError(
                f"got {len(states)} states but {len(entry_delays)} entry delays"
            )
        specs = [
            self.sleep_state_spec(state, delay, frequency)
            for state, delay in zip(states, entry_delays, strict=True)
        ]
        return SleepSequence(specs)

    def full_throttle_back_sequence(
        self, entry_delays: Sequence[float], frequency: float = 1.0
    ) -> SleepSequence:
        """The paper's "sequential power throttle-back": all five states in order.

        ``entry_delays`` gives the ``tau_i`` for
        ``C0(i)S0(i), C1S0(i), C3S0(i), C6S0(i), C6S3`` in that order.
        """
        return self.sleep_sequence(list(LOW_POWER_STATES), entry_delays, frequency)

    def low_power_state_table(self, frequency: float = 1.0) -> dict[str, dict[str, float]]:
        """Summary of each low-power state: power and wake-up latency.

        Used by reports and the Table 2 / Table 4 benchmarks.
        """
        table: dict[str, dict[str, float]] = {}
        for state in LOW_POWER_STATES:
            table[state.name] = {
                "power_w": self.system_power(state, frequency),
                "wake_up_latency_s": self.wake_up_latency(state),
            }
        return table


#: CPU states whose :class:`CpuPowerModel` power has no frequency term.
_CONSTANT_CPU_STATES = frozenset({CpuState.C3, CpuState.C6})


def xeon_power_model(
    dvfs: DvfsModel | None = None,
    wake_up_latencies: Mapping[SystemState, float] | None = None,
) -> ServerPowerModel:
    """The Xeon-class server of Table 2 with the paper's default latencies."""
    return ServerPowerModel(
        inventory=xeon_component_inventory(),
        dvfs=dvfs or DvfsModel(),
        wake_up_latencies=dict(wake_up_latencies or DEFAULT_WAKE_UP_LATENCIES),
        name="xeon",
    )


def atom_power_model(
    dvfs: DvfsModel | None = None,
    wake_up_latencies: Mapping[SystemState, float] | None = None,
) -> ServerPowerModel:
    """An Atom-class low-power server (see DESIGN.md substitution #3)."""
    return ServerPowerModel(
        inventory=atom_component_inventory(),
        dvfs=dvfs or DvfsModel(),
        wake_up_latencies=dict(wake_up_latencies or DEFAULT_WAKE_UP_LATENCIES),
        name="atom",
    )
