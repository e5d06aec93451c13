"""Farm-level dynamic right-sizing: the :class:`FarmController`.

SleepScale (the source paper) manages sleep states *within* a server; this
module adds the farm-level analogue — how many servers to keep awake at all
given that waking a parked server costs setup latency (during which it can
serve nothing) and setup energy.  That is the AutoScale problem of Gandhi
et al. (TOCS 2012) and the dynamic right-sizing problem of Lin et al.
(INFOCOM 2011): the controller decides, at every epoch boundary, which
servers are *awake*, *waking* (paying the setup cost), or *parked* (drawing
only deep-sleep power), driven by a pluggable :class:`RightSizingPolicy`.

The controller contract
-----------------------

The controller plans **before dispatch**.  Per-epoch offered load — the sum
of service demands arriving inside an epoch window divided by the epoch
length — depends only on the job trace, never on which server each job
lands on.  :meth:`FarmController.plan` therefore turns a trace into a
:class:`ControllerSchedule` (awake counts, wake/park transitions, and the
*serviceable-set regimes* the dispatcher must respect) as a pure function
of ``(arrival_times, service_demands)``.  Dispatch then happens per regime
through :func:`controller_assignment`, which masks the farm's dispatcher to
the serviceable servers of each regime via :meth:`JobDispatcher.restrict`.

Two properties make the controller testable by parity:

* **Setup-free always-on is the identity.**  With the ``always-on`` policy
  every server is serviceable from ``t = 0`` in a single regime, so
  :func:`controller_assignment` falls through to the exact
  ``validated_assignment`` call a controller-less farm makes — bit-identical
  results on every executor, by construction.
* **The schedule is deterministic.**  Policies see only per-epoch loads in
  order; no wall-clock, no randomness beyond the dispatcher's own.

Decisions take effect at epoch boundaries: the boundary at epoch ``e >= 1``
is decided from epoch ``e - 1``'s observed load (epoch 0 starts with every
server awake — a conservative cold start that costs energy, never QoS).
Scale-downs park servers immediately; scale-ups mark servers serviceable
only ``setup.latency_s`` seconds later.  Parking never drops the
*serviceable* count below ``min_awake`` and never parks a still-waking
server, so capacity committed is capacity delivered.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.prediction.lms_cusum import LmsCusumPredictor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (farm -> controller)
    from repro.cluster.dispatch import JobDispatcher
    from repro.workloads.jobs import JobTrace


#: Registered policy names accepted by :func:`make_policy` and the CLI.
CONTROLLER_POLICIES = ("always-on", "reactive", "predictive")


# ---------------------------------------------------------------------------
# Setup cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetupModel:
    """Cost of waking one parked server.

    ``latency_s`` seconds pass between the wake command and the server
    becoming serviceable.  ``energy_j`` is the energy charged per wake
    transition; ``None`` derives it as ``latency_s`` times the *woken
    server's* peak power — the AutoScale convention that a server in setup
    burns full power while serving nothing.
    """

    latency_s: float = 0.0
    energy_j: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.latency_s) or self.latency_s < 0:
            raise ConfigurationError(
                f"setup latency must be finite and >= 0, got {self.latency_s}"
            )
        if self.energy_j is not None and (
            not math.isfinite(self.energy_j) or self.energy_j < 0
        ):
            raise ConfigurationError(
                f"setup energy must be finite and >= 0, got {self.energy_j}"
            )

    @classmethod
    def free(cls) -> "SetupModel":
        """The zero-cost setup model (instant wake, no energy)."""
        return cls(latency_s=0.0, energy_j=0.0)

    @property
    def is_free(self) -> bool:
        """True when wake transitions cost neither time nor energy."""
        return self.latency_s == 0.0 and (self.energy_j is None or self.energy_j == 0.0)

    def transition_energy(self, peak_power: float) -> float:
        """Energy charged for one wake of a server with the given peak power."""
        if self.energy_j is not None:
            return self.energy_j
        return self.latency_s * peak_power


# ---------------------------------------------------------------------------
# Right-sizing policies
# ---------------------------------------------------------------------------


class RightSizingPolicy(abc.ABC):
    """Decides the commanded-awake server count at each epoch boundary.

    Stateful across one planned run: :meth:`reset` is called once before
    planning, then :meth:`target_awake` once per boundary, in epoch order,
    with the *previous* epoch's observed offered load (in units of
    full-speed servers' worth of work) and the count currently commanded
    awake.  Returned targets are clamped to ``[min_awake, num_servers]``
    by the planner, so policies may return any integer.
    """

    name: str = "policy"

    def reset(self, num_servers: int, min_awake: int) -> None:
        """Start planning a fresh run over ``num_servers`` servers."""
        self._num_servers = num_servers
        self._min_awake = min_awake

    def initial_awake(self) -> int:
        """Awake count for epoch 0 (before any load has been observed)."""
        return self._num_servers

    @abc.abstractmethod
    def target_awake(self, observed_load: float, current_awake: int) -> int:
        """Commanded awake count for the epoch starting now."""


class AlwaysOnPolicy(RightSizingPolicy):
    """The reference oracle: every server awake, always.

    With a free :class:`SetupModel` this policy is provably the identity —
    the parity suite pins it bit-identical to a controller-less farm.
    """

    name = "always-on"

    def target_awake(self, observed_load: float, current_awake: int) -> int:
        return self._num_servers


class ReactiveThresholdPolicy(RightSizingPolicy):
    """Threshold scaling with hysteresis (the AutoScale reactive baseline).

    While per-awake-server utilization stays inside
    ``[low_utilization, high_utilization]`` the awake count is held — the
    hysteresis band prevents oscillation on noisy load.  Outside the band
    the policy re-sizes to run the observed load at ``target_utilization``
    per server.
    """

    name = "reactive"

    def __init__(
        self,
        low_utilization: float = 0.3,
        high_utilization: float = 0.7,
        target_utilization: float = 0.5,
    ):
        if not 0.0 < low_utilization < high_utilization <= 1.0:
            raise ConfigurationError(
                "need 0 < low_utilization < high_utilization <= 1, got "
                f"{low_utilization} / {high_utilization}"
            )
        if not low_utilization <= target_utilization <= high_utilization:
            raise ConfigurationError(
                "target_utilization must lie inside the hysteresis band, got "
                f"{target_utilization} outside "
                f"[{low_utilization}, {high_utilization}]"
            )
        self.low_utilization = low_utilization
        self.high_utilization = high_utilization
        self.target_utilization = target_utilization

    def target_awake(self, observed_load: float, current_awake: int) -> int:
        per_server = observed_load / max(current_awake, 1)
        if self.low_utilization <= per_server <= self.high_utilization:
            return current_awake
        return max(1, math.ceil(observed_load / self.target_utilization))


class PredictivePolicy(RightSizingPolicy):
    """Right-sizing from the farm's LMS + CUSUM utilization predictor.

    Reuses the per-server predictor stack (``repro.prediction``): observed
    farm load is normalized to ``[0, 1]`` by the server count, fed to an
    :class:`~repro.prediction.lms_cusum.LmsCusumPredictor`, and the
    denormalized prediction sized at ``target_utilization`` per server.
    """

    name = "predictive"

    def __init__(self, target_utilization: float = 0.5, history: int = 10):
        if not 0.0 < target_utilization <= 1.0:
            raise ConfigurationError(
                f"target_utilization must be in (0, 1], got {target_utilization}"
            )
        self.target_utilization = target_utilization
        self.history = history
        self._predictor = LmsCusumPredictor(history=history)

    def reset(self, num_servers: int, min_awake: int) -> None:
        super().reset(num_servers, min_awake)
        self._predictor = LmsCusumPredictor(history=self.history)

    def target_awake(self, observed_load: float, current_awake: int) -> int:
        normalized = min(max(observed_load / self._num_servers, 0.0), 1.0)
        self._predictor.observe(normalized)
        predicted_load = self._predictor.predict() * self._num_servers
        return max(1, math.ceil(predicted_load / self.target_utilization))


def make_policy(name: str) -> RightSizingPolicy:
    """Build a registered policy from its CLI name."""
    if name == "always-on":
        return AlwaysOnPolicy()
    if name == "reactive":
        return ReactiveThresholdPolicy()
    if name == "predictive":
        return PredictivePolicy()
    raise ConfigurationError(
        f"unknown right-sizing policy {name!r}; "
        f"choose from {', '.join(CONTROLLER_POLICIES)}"
    )


# ---------------------------------------------------------------------------
# The planned schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControllerSchedule:
    """The controller's pre-dispatch plan for one run.

    ``regimes`` partitions time into half-open windows ``[start, end)``
    with a fixed tuple of *serviceable* server indices each — the only
    servers the dispatcher may route jobs arriving in that window to.
    ``awake_counts`` records the commanded-on count per epoch (waking
    servers count as on; they are committed and paying setup).
    ``parked_seconds`` is the total parked time per server over the
    planning horizon, and ``wake_counts`` the number of *paid* wake
    transitions per server (the initial awake set is free).
    """

    epoch_seconds: float
    num_epochs: int
    horizon: float
    awake_counts: tuple[int, ...]
    transitions: tuple[tuple[float, int, str], ...]
    regimes: tuple[tuple[float, float, tuple[int, ...]], ...]
    parked_seconds: tuple[float, ...]
    wake_counts: tuple[int, ...]

    @property
    def num_servers(self) -> int:
        return len(self.parked_seconds)

    @property
    def is_always_on(self) -> bool:
        """True when the plan is a single all-servers regime from t = 0."""
        if len(self.regimes) != 1:
            return False
        start, _end, members = self.regimes[0]
        return start == 0.0 and members == tuple(range(self.num_servers))

    def serviceable_at(self, time: float) -> tuple[int, ...]:
        """The serviceable server set covering ``time`` (for tests/tools)."""
        for start, end, members in self.regimes:
            if start <= time < end:
                return members
        raise ConfigurationError(f"time {time} outside the planned horizon")


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------


@dataclass
class FarmController:
    """Epoch-boundary right-sizing for a :class:`~repro.cluster.farm.ServerFarm`.

    ``policy`` is a :class:`RightSizingPolicy` instance or a registered name
    (``always-on`` / ``reactive`` / ``predictive``).  ``epoch_minutes``
    overrides the control epoch; by default the farm uses the largest
    per-server runtime epoch so control decisions never slice a server's
    policy-search epoch.
    """

    policy: RightSizingPolicy | str = "reactive"
    setup: SetupModel = field(default_factory=SetupModel)
    min_awake: int = 1
    epoch_minutes: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.policy, str):
            self.policy = make_policy(self.policy)
        if not isinstance(self.policy, RightSizingPolicy):
            raise ConfigurationError(
                "policy must be a RightSizingPolicy or a registered name, got "
                f"{type(self.policy).__name__}"
            )
        if self.min_awake < 1:
            raise ConfigurationError(
                f"min_awake must be >= 1, got {self.min_awake}"
            )
        if self.epoch_minutes is not None and not self.epoch_minutes > 0:
            raise ConfigurationError(
                f"epoch_minutes must be positive, got {self.epoch_minutes}"
            )

    @property
    def policy_name(self) -> str:
        policy = self.policy
        assert isinstance(policy, RightSizingPolicy)
        return policy.name

    def plan(
        self,
        arrival_times: np.ndarray | Sequence[float],
        service_demands: np.ndarray | Sequence[float],
        *,
        num_servers: int,
        epoch_seconds: float,
        efficiency_order: Sequence[int] | None = None,
    ) -> ControllerSchedule:
        """Plan awake/park transitions for one trace.

        ``efficiency_order`` lists server indices most-efficient-first
        (ascending idle power): scale-ups wake the cheapest parked server,
        scale-downs park the most expensive serviceable one.  Defaults to
        index order.  Pure function of its inputs — callable before any
        dispatch or sharding happens.
        """
        if num_servers < 1:
            raise ConfigurationError(
                f"a farm needs at least one server, got {num_servers}"
            )
        if not epoch_seconds > 0:
            raise ConfigurationError(
                f"epoch_seconds must be positive, got {epoch_seconds}"
            )
        policy = self.policy
        assert isinstance(policy, RightSizingPolicy)
        min_awake = min(self.min_awake, num_servers)
        order = (
            list(efficiency_order)
            if efficiency_order is not None
            else list(range(num_servers))
        )
        if sorted(order) != list(range(num_servers)):
            raise ConfigurationError(
                "efficiency_order must be a permutation of the server indices"
            )

        arrivals = np.asarray(arrival_times, dtype=float)
        demands = np.asarray(service_demands, dtype=float)
        last_arrival = float(arrivals[-1]) if arrivals.size else 0.0
        num_epochs = max(1, math.ceil(last_arrival / epoch_seconds))
        horizon = num_epochs * epoch_seconds
        boundaries = np.arange(num_epochs + 1, dtype=float) * epoch_seconds
        edges = np.searchsorted(arrivals, boundaries, side="left")
        edges[-1] = arrivals.size  # a final arrival exactly at the horizon
        demand_cumsum = np.concatenate(([0.0], np.cumsum(demands)))
        epoch_loads = (
            demand_cumsum[edges[1:]] - demand_cumsum[edges[:-1]]
        ) / epoch_seconds

        policy.reset(num_servers, min_awake)
        initial = max(min_awake, min(num_servers, int(policy.initial_awake())))
        on = set(order[:initial])
        ready_time = {i: 0.0 for i in on}
        off_time = {i: 0.0 for i in range(num_servers) if i not in on}
        parked_seconds = [0.0] * num_servers
        wake_counts = [0] * num_servers
        awake_counts = [len(on)]
        transitions: list[tuple[float, int, str]] = []
        events: list[tuple[float, int, int]] = [  # (time, +1/-1, server)
            (0.0, 1, i) for i in on
        ]

        for epoch in range(1, num_epochs):
            now = epoch * epoch_seconds
            target = policy.target_awake(float(epoch_loads[epoch - 1]), len(on))
            target = max(min_awake, min(num_servers, int(target)))
            if target > len(on):
                for i in order:
                    if len(on) >= target:
                        break
                    if i in on:
                        continue
                    on.add(i)
                    parked_seconds[i] += now - off_time.pop(i)
                    wake_counts[i] += 1
                    ready = now + self.setup.latency_s
                    ready_time[i] = ready
                    transitions.append((now, i, "wake"))
                    if ready < horizon:
                        events.append((ready, 1, i))
            elif target < len(on):
                serviceable = sum(1 for i in on if ready_time[i] <= now)
                for i in reversed(order):
                    if len(on) <= target or serviceable <= min_awake:
                        break
                    if i not in on or ready_time[i] > now:
                        continue  # never park a parked or still-waking server
                    on.discard(i)
                    del ready_time[i]
                    off_time[i] = now
                    serviceable -= 1
                    transitions.append((now, i, "park"))
                    events.append((now, -1, i))
            awake_counts.append(len(on))

        for i, since in off_time.items():
            parked_seconds[i] += horizon - since

        regimes = _build_regimes(events, horizon)
        return ControllerSchedule(
            epoch_seconds=epoch_seconds,
            num_epochs=num_epochs,
            horizon=horizon,
            awake_counts=tuple(awake_counts),
            transitions=tuple(transitions),
            regimes=regimes,
            parked_seconds=tuple(parked_seconds),
            wake_counts=tuple(wake_counts),
        )


def _build_regimes(
    events: list[tuple[float, int, int]], horizon: float
) -> tuple[tuple[float, float, tuple[int, ...]], ...]:
    """Sweep serviceability events into maximal constant-set regimes.

    The final regime is open-ended (``math.inf``) so arrivals exactly at —
    or numerically beyond — the planning horizon still have a serviceable
    set.  Adjacent regimes with identical sets are merged.
    """
    current: set[int] = set()
    by_time: dict[float, list[tuple[int, int]]] = {}
    for time, delta, server in events:
        by_time.setdefault(time, []).append((delta, server))
    regimes: list[tuple[float, float, tuple[int, ...]]] = []
    previous_start = 0.0
    for time in sorted(by_time):
        if time >= horizon:
            break
        if time > previous_start and current:
            regimes.append((previous_start, time, tuple(sorted(current))))
            previous_start = time
        for delta, server in by_time[time]:
            if delta > 0:
                current.add(server)
            else:
                current.discard(server)
    if not current:
        raise ConfigurationError(
            "controller schedule left no serviceable server in the final regime"
        )
    regimes.append((previous_start, math.inf, tuple(sorted(current))))
    merged: list[tuple[float, float, tuple[int, ...]]] = []
    for regime in regimes:
        if merged and merged[-1][2] == regime[2]:
            merged[-1] = (merged[-1][0], regime[1], regime[2])
        else:
            merged.append(regime)
    if any(not members for _s, _e, members in merged):
        raise ConfigurationError(
            "controller schedule left a regime with no serviceable server"
        )
    return tuple(merged)


# ---------------------------------------------------------------------------
# Regime-masked dispatch
# ---------------------------------------------------------------------------


def controller_assignment(
    jobs: "JobTrace",
    dispatcher: "JobDispatcher",
    schedule: ControllerSchedule,
    *,
    num_servers: int,
    server_speeds: Sequence[float] | None = None,
) -> np.ndarray:
    """Per-job server assignment honouring the schedule's serviceable sets.

    When the schedule is a single all-servers regime (always-on with free
    setup), this is **exactly** ``dispatcher.validated_assignment`` — the
    parity bypass that makes the setup-free controller bit-identical to a
    controller-less farm.  Otherwise each regime's arrival slice is
    assigned by ``dispatcher.restrict(members)`` over the regime's servers,
    with speeds narrowed to match; work-tracker state restarts per regime
    (a freshly woken server starts empty — it just did).

    A one-server regime skips the per-job step: its restricted assigner is
    still built, so a dispatcher that cannot serve the regime (a tenant
    dispatcher with more tenants than servers) raises exactly as before,
    but every job goes straight to the one member.  That is exact: the
    range check below forces a one-server answer to all zeros, and no
    assigner state outlives its regime.
    """
    if schedule.is_always_on:
        return dispatcher.validated_assignment(
            jobs, num_servers, server_speeds=server_speeds
        )
    arrivals = jobs.arrival_times
    demands = jobs.service_demands
    assignment = np.full(len(jobs), -1, dtype=np.int64)
    for start, end, members in schedule.regimes:
        lo = int(np.searchsorted(arrivals, start, side="left"))
        hi = (
            arrivals.size
            if math.isinf(end)
            else int(np.searchsorted(arrivals, end, side="left"))
        )
        if hi <= lo:
            continue
        restricted = dispatcher.restrict(members)
        speeds = (
            None
            if server_speeds is None
            else tuple(server_speeds[i] for i in members)
        )
        assigner = restricted.assigner(
            len(members),
            server_speeds=speeds,
            tenant_ids=(
                None if jobs.tenant_ids is None else jobs.tenant_ids[lo:hi]
            ),
        )
        if len(members) == 1:
            assignment[lo:hi] = members[0]
            continue
        local = np.asarray(
            assigner.assign_chunk(arrivals[lo:hi], demands[lo:hi]), dtype=np.int64
        )
        if local.shape != (hi - lo,):
            raise ConfigurationError(
                "restricted dispatcher returned an assignment of the wrong shape"
            )
        if local.min(initial=0) < 0 or local.max(initial=0) >= len(members):
            raise ConfigurationError(
                "restricted dispatcher assigned a job outside the serviceable set"
            )
        assignment[lo:hi] = np.asarray(members, dtype=np.int64)[local]
    if assignment.min(initial=0) < 0:
        raise ConfigurationError(
            "controller schedule regimes failed to cover every job arrival"
        )
    return assignment
