"""Multi-server farms: independent SleepScale instances behind a dispatcher.

This implements the scale-out sketch from the paper's conclusion: a front-end
dispatcher splits the arrival stream across ``n`` servers and every server
runs its own power-management strategy, predictor and epoch loop, exactly as
the single-server :class:`~repro.core.runtime.SleepScaleRuntime` does.  The
farm result aggregates the per-server outcomes into farm-level power and
latency metrics.

:class:`ServerFarm` takes an explicit list of :class:`ServerSpec` entries,
each carrying its own platform power model, policy-management strategy (and
therefore its own :class:`~repro.core.policy_manager.PolicyManager`),
predictor, runtime config, service-scaling rule and dispatch-visible
frequency ceiling.  Mixing e.g. Xeon- and Atom-class servers behind a
:class:`~repro.cluster.dispatch.PowerAwareDispatcher` is the substrate for the
energy-proportionality scenarios in :mod:`repro.scenarios`;
:meth:`ServerFarm.homogeneous` builds ``n`` identical servers from per-index
strategy/predictor factories.

Execution model — one pipeline:

1. an *assignment* (job → server) comes from the dispatcher or from the
   controller's per-regime masked dispatch (the front end sees arrival
   times and nominal service demands only — never DVFS or sleep decisions);
2. :func:`~repro.cluster.dispatch.group_by_server` splits the jobs into
   per-server contiguous ranges with one stable argsort, so each server
   keeps its jobs in arrival order;
3. each server's epoch loop runs over its range — in the caller
   (``executor="serial"``), or sharded across worker processes
   (``executor="process"``) as picklable :class:`ServerShardTask`\\ s.

Both executors produce bit-identical :class:`FarmResult`\\ s.  The
work-tracking dispatchers receive each server's *dispatch speed* — derived
from its :class:`ServerSpec` service scaling and frequency ceiling — so
heterogeneous farms route on estimated finish times rather than raw demand
seconds.  Because each server is managed independently (no coordination),
the per-epoch policy-search overhead scales linearly with the number of
servers — the "controlling the overall queuing simulation overhead" concern
the paper raises — which the ablation benchmark quantifies through the
recorded wall-clock cost per run.

Every run takes this one path over the whole trace, so the trace and its
per-server grouping must fit in memory.

Farm-level QoS: each server derives its response-time budget from its own
``rho_b``; the farm reports against the *strictest* (smallest) per-server
budget, which collapses to the shared budget in the homogeneous case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.cluster.controller import (
    ControllerSchedule,
    FarmController,
    controller_assignment,
)
from repro.cluster.dispatch import JobDispatcher, RoundRobinDispatcher, group_by_server
from repro.cluster.tenancy import (
    FarmQos,
    TenancyAccounting,
    TenantOutcome,
    farm_qos_type_error,
    tenant_outcomes,
)
from repro.concurrency import Executor, ProcessExecutor, resolve_executor
from repro.core.epoch import RuntimeResult
from repro.core.runtime import RuntimeConfig, SleepScaleRuntime
from repro.core.strategies import PowerManagementStrategy
from repro.exceptions import ConfigurationError
from repro.power.platform import ServerPowerModel
from repro.power.states import C6_S3
from repro.prediction.base import UtilizationPredictor
from repro.units import minutes
from repro.simulation.metrics import ResponseTimePercentiles
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import WorkloadSpec

#: Factory signatures: one fresh strategy/predictor per server, so per-server
#: state (policy-manager RNGs, LMS weights) is never shared accidentally.
StrategyFactory = Callable[[int], PowerManagementStrategy]
PredictorFactory = Callable[[int], UtilizationPredictor]

#: Power state a controller-parked server draws in: parked spans are charged
#: at this state's system power (C6 core + S3 platform, the deepest state the
#: power models tabulate) instead of the server's own sleep-walk average.
PARKED_STATE = C6_S3


@dataclass(frozen=True)
class PerIndexFactory:
    """Freeze a per-index factory into a zero-argument factory for one slot.

    Unlike the ``lambda index=index: factory(index)`` closure it replaces,
    an instance is *picklable* whenever the wrapped factory is (a module
    level function, ``functools.partial`` of one, or a factory dataclass),
    which is what lets :meth:`ServerFarm.homogeneous` farms run on the
    process executor.
    """

    factory: Callable[[int], object]
    index: int

    def __call__(self) -> object:
        return self.factory(self.index)


def _build_server_runtime(server: ServerSpec, spec: WorkloadSpec) -> SleepScaleRuntime:
    """One fresh runtime for *server* (shared by all execution paths)."""
    return SleepScaleRuntime(
        power_model=server.power_model,
        spec=spec,
        strategy=server.strategy_factory(),
        predictor=server.predictor_factory(),
        config=server.config,
        scaling=server.scaling,
    )


@dataclass(frozen=True)
class ServerShardTask:
    """Picklable unit of process-sharded farm work: one server, one shard.

    Everything a worker process needs to reproduce the serial per-server
    run bit for bit: the full :class:`ServerSpec` (its factories must be
    picklable — the built-in scenario factories and
    :class:`PerIndexFactory` are), the farm-wide workload spec and this
    server's jobs as its grouped array slices, pickled with the task.
    """

    server: ServerSpec
    spec: WorkloadSpec
    arrivals: np.ndarray
    demands: np.ndarray


def run_server_shard(task: ServerShardTask) -> RuntimeResult:
    """Run one server's epoch loop over its shard (process-pool work fn)."""
    jobs = JobTrace.from_validated_arrays(task.arrivals, task.demands)
    return _build_server_runtime(task.server, task.spec).run(jobs)


def prorated_idle_energy(
    idle_energy: float, idle_duration: float, horizon: float,
    already_covered: float = 0.0,
) -> float:
    """Charge a parked server's sleep-walk power over the farm's span.

    The idle run's span is quantized up to the server's own epoch length, so
    its *average power* is re-applied over the farm's actual *horizon* —
    differing epoch configs then cannot overcount parked servers.  A
    zero-length idle run or a zero/negative horizon charges nothing (instead
    of dividing by zero): with no observed span there is no power to prorate.

    ``already_covered`` subtracts the span whose energy is accounted
    elsewhere before prorating.  The farm controller charges spans it
    *parked* a server for at deep-sleep power directly; without the
    subtraction the sleep-walk proration would bill those same seconds a
    second time (the double-count this parameter was introduced to fix —
    pinned by ``tests/property/test_controller_invariants.py``).  Covered
    spans at or beyond the horizon charge nothing here.
    """
    remaining = horizon - max(already_covered, 0.0)
    if remaining <= 0 or idle_duration <= 0:
        return 0.0
    return idle_energy / idle_duration * remaining


@dataclass(frozen=True)
class FarmResult(ResponseTimePercentiles):
    """Aggregate outcome of one multi-server run.

    ``server_names`` (optional) labels each server slot — for heterogeneous
    farms this is how reports attribute per-server results to platforms.
    ``idle_energies`` (optional, aligned with ``per_server``, zero at active
    slots) charges servers that received no jobs for walking their sleep
    sequences over the observation span, so farm power totals do not drop
    discontinuously when a dispatcher parks a server entirely.

    Controlled runs (``ServerFarm.controller``) additionally record the
    controller's plan: ``awake_counts`` is the commanded-on server count
    per control epoch, ``setup_energy`` the total energy paid for wake
    transitions (included in :attr:`total_energy`), and
    ``wake_transitions`` the ``(time, server, "wake"|"park")`` log.  All
    three stay at their defaults on controller-less runs.

    Multi-tenant runs (``ServerFarm.qos`` in per-tenant mode) attach a
    :class:`~repro.cluster.tenancy.TenancyAccounting` as ``tenancy``
    (excluded from equality: it is derived bookkeeping, not an outcome
    in its own right); :meth:`tenant_rows` and :meth:`tenant_meets_budget`
    read per-class latency rows out of it.  Every farm-level number —
    budget, energy, ``meets_budget`` — is computed exactly as on a
    single-tenant run.
    """

    per_server: tuple[RuntimeResult | None, ...]
    mean_service_time: float
    response_time_budget: float
    server_names: tuple[str, ...] | None = None
    idle_energies: tuple[float, ...] | None = None
    awake_counts: tuple[int, ...] | None = None
    setup_energy: float = 0.0
    wake_transitions: tuple[tuple[float, int, str], ...] | None = None
    tenancy: TenancyAccounting | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.per_server:
            raise ConfigurationError("a farm result needs at least one server slot")
        if all(result is None for result in self.per_server):
            raise ConfigurationError("a farm result needs at least one active server")
        for label, values in (
            ("server names", self.server_names),
            ("idle energies", self.idle_energies),
        ):
            if values is not None and len(values) != len(self.per_server):
                raise ConfigurationError(
                    f"got {len(values)} {label} for "
                    f"{len(self.per_server)} server slots"
                )
        if self.idle_energies is not None and any(
            energy < 0 for energy in self.idle_energies
        ):
            raise ConfigurationError("idle energies must be non-negative")
        if not math.isfinite(self.setup_energy) or self.setup_energy < 0:
            raise ConfigurationError(
                f"setup energy must be finite and >= 0, got {self.setup_energy}"
            )
        if self.awake_counts is not None and (
            not self.awake_counts
            or any(count < 0 for count in self.awake_counts)
        ):
            raise ConfigurationError(
                "awake counts must be a non-empty tuple of counts >= 0"
            )

    # -- structure ----------------------------------------------------------------

    @property
    def num_servers(self) -> int:
        """Total number of servers in the farm (including idle ones)."""
        return len(self.per_server)

    @property
    def active_servers(self) -> list[RuntimeResult]:
        """Results of the servers that received at least one job."""
        return [result for result in self.per_server if result is not None]

    # -- latency -----------------------------------------------------------------------

    @cached_property
    def response_times(self) -> np.ndarray:
        """All jobs' response times across the whole farm.

        Cached: the concatenation over per-server arrays is paid once, not
        on every access by ``mean_response_time`` / percentile /
        ``meets_budget`` (these can span millions of jobs).
        """
        parts = [r.response_times for r in self.active_servers if r.num_jobs > 0]
        if not parts:
            return np.array([], dtype=float)
        return np.concatenate(parts)

    @property
    def num_jobs(self) -> int:
        """Total jobs served by the farm."""
        return int(self.response_times.size)

    @property
    def mean_response_time(self) -> float:
        """Farm-wide mean response time, seconds."""
        values = self.response_times
        return float(np.mean(values)) if values.size else math.nan

    @property
    def normalized_mean_response_time(self) -> float:
        """Farm-wide mean response time in units of the mean job size."""
        return self.mean_response_time / self.mean_service_time

    @property
    def meets_budget(self) -> bool:
        """Whether the farm-wide normalised mean response time meets the budget.

        A farm that completed no jobs has no latency evidence at all, so it
        explicitly does *not* meet the budget — rather than relying on the
        accidental falseness of a ``nan <= budget`` comparison.
        """
        if self.response_times.size == 0:
            return False
        return self.normalized_mean_response_time <= self.response_time_budget

    # -- tenancy -----------------------------------------------------------------------

    @cached_property
    def _arrival_order_response_times(self) -> np.ndarray:
        """Job response times scattered back to arrival order.

        Each server's response-time array is arrival-ordered within that
        server, so scattering through the dispatch assignment reconstructs
        the global arrival-order array exactly.  Needs ``tenancy`` (which
        carries the assignment).
        """
        assert self.tenancy is not None
        assignment = self.tenancy.assignment
        (positions,), ranges = group_by_server(
            assignment, self.num_servers, np.arange(assignment.size)
        )
        response_times = np.empty(assignment.size, dtype=float)
        for result, bounds in zip(self.per_server, ranges, strict=True):
            if result is not None and bounds is not None:
                response_times[positions[bounds]] = result.response_times
        return response_times

    def tenant_rows(self) -> tuple[TenantOutcome, ...]:
        """Per-tenant latency rows (empty on single-tenant/strictest runs).

        Each row judges the tenant's own response times against the
        tenant's own budget: job count, mean, p95/p99, ``meets_budget``
        and slack.
        """
        if self.tenancy is None:
            return ()
        return tenant_outcomes(
            self.tenancy.qos,
            self.tenancy.tenant_ids,
            self._arrival_order_response_times,
            self.mean_service_time,
            self.duration,
        )

    def tenant_meets_budget(self) -> dict[str, bool]:
        """Per-tenant SLA verdicts, keyed by tenant name."""
        return {row.name: row.meets_budget for row in self.tenant_rows()}

    # -- power ----------------------------------------------------------------------------

    @property
    def total_energy(self) -> float:
        """Total energy drawn by the farm, joules.

        Active servers' epoch loops, plus parked/idle servers' accounted
        idle energy, plus the controller's wake setup energy (zero on
        controller-less runs) — the closed accounting the property suite
        asserts.
        """
        active = sum(result.total_energy for result in self.active_servers)
        return active + sum(self.idle_energies or ()) + self.setup_energy

    @property
    def duration(self) -> float:
        """Observation span (the longest per-server duration), seconds."""
        return max(result.total_duration for result in self.active_servers)

    @property
    def total_average_power(self) -> float:
        """Farm-wide average power: summed energy over the common span, watts."""
        return self.total_energy / self.duration

    @property
    def average_power_per_server(self) -> float:
        """Mean per-server power, watts.

        Parked servers contribute their sleep-walk power when idle energy
        was accounted (``idle_energies``), so this stays continuous in the
        per-server job count; without idle accounting it falls back to the
        mean over active servers only.
        """
        powers = []
        for index, result in enumerate(self.per_server):
            if result is not None:
                powers.append(result.average_power)
            elif self.idle_energies is not None:
                powers.append(self.idle_energies[index] / self.duration)
        return float(np.mean(powers))

    # -- reporting -----------------------------------------------------------------------------

    def state_selection_fractions(self) -> dict[str, float]:
        """Epoch-weighted distribution of selected states across the farm."""
        counts: dict[str, int] = {}
        for result in self.active_servers:
            for state, count in result.state_selection_counts().items():
                counts[state] = counts.get(state, 0) + count
        total = sum(counts.values())
        return {state: count / total for state, count in counts.items()}

    def summary(self) -> Mapping[str, float | str]:
        """Headline farm metrics as a flat dictionary."""
        return {
            "servers": float(self.num_servers),
            "active_servers": float(len(self.active_servers)),
            "num_jobs": float(self.num_jobs),
            "normalized_mean_response_time": self.normalized_mean_response_time,
            "response_time_budget": self.response_time_budget,
            "meets_budget": float(self.meets_budget),
            "total_average_power_w": self.total_average_power,
            "average_power_per_server_w": self.average_power_per_server,
        }

    def per_server_rows(self) -> list[dict[str, float | str]]:
        """One row per server slot: name, jobs, latency and power.

        Idle servers (slots whose stream was empty) report zero jobs, NaN
        latency, and their sleep-walk power when idle energy was accounted,
        keeping the row count equal to the farm size.
        """
        rows: list[dict[str, float | str]] = []
        for index, result in enumerate(self.per_server):
            name = (
                self.server_names[index]
                if self.server_names is not None
                else f"server-{index}"
            )
            if result is None:
                idle_power = (
                    self.idle_energies[index] / self.duration
                    if self.idle_energies is not None
                    else math.nan
                )
                rows.append(
                    {
                        "server": name,
                        "num_jobs": 0.0,
                        "mean_response_time_s": math.nan,
                        "average_power_w": idle_power,
                    }
                )
                continue
            rows.append(
                {
                    "server": name,
                    "num_jobs": float(result.num_jobs),
                    "mean_response_time_s": result.mean_response_time,
                    "average_power_w": result.average_power,
                }
            )
        return rows


@dataclass(frozen=True)
class ServerSpec:
    """Full description of one server in a (possibly heterogeneous) farm.

    Parameters
    ----------
    name:
        Label used in reports, e.g. ``"xeon-0"`` or ``"atom-2"``.
    power_model:
        This server's platform power model (Xeon-class, Atom-class, ...).
    strategy_factory, predictor_factory:
        Zero-argument callables producing this server's strategy and
        predictor.  Called once per :meth:`ServerFarm.run`; each call must
        return a *fresh* object so per-server state (policy-manager RNGs, LMS
        weights) is never shared across servers.  Process-sharded farms
        pickle them, so they must then be picklable too.
    config:
        This server's runtime configuration (epoch length, ``rho_b``,
        over-provisioning guard band).
    scaling:
        Service-time/frequency dependence of this server's jobs; ``None``
        selects the CPU-bound default.
    max_frequency:
        The DVFS frequency ceiling a front-end dispatcher should assume for
        this server, in (0, 1] of the reference full-frequency setting.
        Together with ``scaling`` it determines :attr:`dispatch_speed`, the
        rate at which work-tracking dispatchers estimate this server retires
        nominal demand.  It does not constrain the server's own policy
        search — it is the load balancer's provisioning assumption.
    """

    name: str
    power_model: ServerPowerModel
    strategy_factory: Callable[[], PowerManagementStrategy]
    predictor_factory: Callable[[], UtilizationPredictor]
    config: RuntimeConfig = field(default_factory=RuntimeConfig)
    scaling: ServiceScaling | None = None
    max_frequency: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a server spec needs a non-empty name")
        if not 0.0 < self.max_frequency <= 1.0:
            raise ConfigurationError(
                f"max_frequency must lie in (0, 1], got {self.max_frequency}"
            )

    @property
    def dispatch_speed(self) -> float:
        """Relative rate at which this server retires nominal demand seconds.

        A nominal demand of ``d`` seconds takes ``d / dispatch_speed``
        wall-clock seconds at this server's frequency ceiling under its
        service-scaling rule: 1.0 for a full-frequency CPU-bound server,
        below 1.0 for frequency-capped platforms, and exactly 1.0 for
        memory-bound scaling (frequency cannot slow those jobs down).
        """
        scaling = self.scaling or cpu_bound()
        return 1.0 / scaling.time_factor(self.max_frequency)


@dataclass
class ServerFarm:
    """A heterogeneous farm: one explicit :class:`ServerSpec` per server.

    Each server runs its own :class:`~repro.core.runtime.SleepScaleRuntime`
    over the sub-stream the dispatcher assigns to it, with its own platform
    power model, strategy (hence policy manager), predictor and config.

    Parameters
    ----------
    servers:
        One spec per server.  Order defines the server indices the dispatcher
        assigns to.
    spec:
        Statistical description of the *offered* workload, shared farm-wide:
        it normalises response times and feeds synthetic characterisation
        streams when a server has no job log yet.
    dispatcher:
        How arriving jobs are split across servers (round-robin by default;
        see :mod:`repro.cluster.dispatch` for least-loaded and power-aware).
        Work-tracking dispatchers receive :attr:`dispatch_speeds` so their
        backlog estimates are speed-aware on heterogeneous farms.
    max_workers:
        Worker-process count for the per-server epoch loops; ``> 1`` with
        ``executor=None`` selects the process executor.  Results are
        identical to the serial run because no state is shared between
        servers.
    executor:
        How the per-server epoch loops execute: ``None`` picks by
        ``max_workers`` (process pool iff ``> 1``), ``"serial"``/
        ``"process"`` select explicitly, and an
        :class:`~repro.concurrency.Executor` instance is used as-is.  The
        process executor shards the farm across worker processes via
        picklable :class:`ServerShardTask`\\ s — every ``ServerSpec``
        factory must then be picklable — and produces bit-identical results
        to the serial path (pinned by
        ``tests/cluster/test_executor_parity.py``).
    controller:
        Optional :class:`~repro.cluster.controller.FarmController` for
        farm-level dynamic right-sizing: before dispatch, the controller
        plans which servers are awake / waking / parked per control epoch,
        dispatch is masked to the serviceable set of each regime, and the
        result carries awake counts, wake transitions and setup energy.
        A setup-free ``always-on`` controller is bit-identical to no
        controller at all (pinned by
        ``tests/cluster/test_controller_parity.py``).
    qos:
        The farm-level QoS contract — the single keyword-only entry point
        that replaces the historically scattered per-call qos plumbing.
        ``None`` and ``FarmQos.strictest()`` keep the historic behaviour
        bit-for-bit (the farm's budget stays the strictest per-server
        budget); ``FarmQos.per_tenant(...)`` enables per-class accounting —
        the result then carries per-tenant latency rows and SLA verdicts.
        Per-tenant mode is result-invisible at farm level: budget, energy
        and ``meets_budget`` are computed exactly as without it.
    """

    servers: Sequence[ServerSpec]
    spec: WorkloadSpec
    dispatcher: JobDispatcher = field(default_factory=RoundRobinDispatcher)
    max_workers: int | None = None
    executor: Executor | str | None = None
    controller: FarmController | None = None
    qos: FarmQos | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigurationError("a farm needs at least one server")
        if self.controller is not None and not isinstance(
            self.controller, FarmController
        ):
            raise ConfigurationError(
                "controller must be a FarmController or None, got "
                f"{type(self.controller).__name__}"
            )
        if self.qos is not None and not isinstance(self.qos, FarmQos):
            raise ConfigurationError(farm_qos_type_error(self.qos))
        # Resolving validates the executor name and worker count up front,
        # so a typo'd executor fails at construction, not mid-run.
        resolve_executor(self.executor, self.max_workers)
        names = [server.name for server in self.servers]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"server names must be unique, got {names}"
            )

    @classmethod
    def homogeneous(
        cls,
        num_servers: int,
        power_model: ServerPowerModel,
        spec: WorkloadSpec,
        strategy_factory: StrategyFactory,
        predictor_factory: PredictorFactory,
        *,
        config: RuntimeConfig | None = None,
        scaling: ServiceScaling | None = None,
        max_frequency: float = 1.0,
        **farm_fields: Any,
    ) -> ServerFarm:
        """A farm of ``num_servers`` identical servers named ``server-<i>``.

        Every server shares *power_model*, *config*, *scaling* and
        *max_frequency*; the per-index factories are called with the server
        index and frozen per slot into :class:`PerIndexFactory` objects, so
        the farm stays picklable for the process executor whenever the
        factories are.  *farm_fields* (``dispatcher``, ``executor``,
        ``controller``, ``qos``, ...) are passed to the constructor.
        """
        servers = tuple(
            ServerSpec(
                name=f"server-{index}",
                power_model=power_model,
                strategy_factory=PerIndexFactory(strategy_factory, index),
                predictor_factory=PerIndexFactory(predictor_factory, index),
                config=config if config is not None else RuntimeConfig(),
                scaling=scaling,
                max_frequency=max_frequency,
            )
            for index in range(num_servers)
        )
        return cls(servers=servers, spec=spec, **farm_fields)

    @property
    def search_cache(self) -> None:
        """Always ``None``; perfbench's ``ScenarioWorkload.cache_stats`` reads it."""
        return None

    @property
    def num_servers(self) -> int:
        """Number of servers in the farm."""
        return len(self.servers)

    @property
    def platform_names(self) -> tuple[str, ...]:
        """The distinct power-model names present in the farm, in order."""
        return tuple(dict.fromkeys(s.power_model.name for s in self.servers))

    @property
    def is_heterogeneous(self) -> bool:
        """Whether the farm mixes at least two distinct platforms."""
        return len(self.platform_names) > 1

    @property
    def dispatch_speeds(self) -> tuple[float, ...]:
        """Per-server demand-retirement speeds handed to the dispatcher."""
        return tuple(server.dispatch_speed for server in self.servers)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def _build_runtime(self, index: int) -> SleepScaleRuntime:
        return _build_server_runtime(self.servers[index], self.spec)

    def _resolve_executor(self) -> Executor:
        return resolve_executor(self.executor, self.max_workers)

    def _idle_energies(
        self,
        per_server: Sequence[RuntimeResult | None],
        horizon: float,
        parked_seconds: Sequence[float] | None = None,
    ) -> list[float]:
        """Sleep-walk energy for servers the dispatcher parked entirely.

        *parked_seconds* (controlled runs) is the span the controller held
        each server in the deep-parked state: that span is charged once at
        :data:`PARKED_STATE` system power, and the sleep-walk proration
        covers only the remaining awake-but-jobless span
        (``already_covered`` keeps the two spans disjoint — charging the
        parked span under both rates was the double-count bug this
        parameter fixed).
        """
        idle_energies = [0.0] * len(per_server)
        for index, result in enumerate(per_server):
            if result is not None:
                continue
            covered = (
                min(max(parked_seconds[index], 0.0), horizon)
                if parked_seconds is not None
                else 0.0
            )
            idle_run = self._build_runtime(index).run(JobTrace.empty(), horizon=horizon)
            idle_energies[index] = prorated_idle_energy(
                idle_run.total_energy,
                idle_run.total_duration,
                horizon,
                already_covered=covered,
            )
            if covered > 0:
                parked_power = self.servers[index].power_model.system_power(
                    PARKED_STATE
                )
                idle_energies[index] += parked_power * covered
        return idle_energies

    def _tenant_labels(self, jobs: JobTrace) -> np.ndarray | None:
        """The per-tenant label array for *jobs*, or ``None`` outside per-tenant mode.

        An unlabelled trace is legal only for a single declared tenant
        (every job is tenant 0); labels out of range of the tenant table
        are a configuration error.
        """
        qos = self.qos
        if qos is None or not isinstance(qos, FarmQos) or not qos.is_per_tenant:
            return None
        labels = jobs.tenant_ids
        if labels is None:
            if len(qos.tenants) == 1:
                return np.zeros(len(jobs), dtype=np.int64)
            raise ConfigurationError(
                f"FarmQos.per_tenant declares {len(qos.tenants)} tenants "
                "but the job trace carries no tenant labels; attach them "
                "with JobTrace.with_tenant_ids"
            )
        labels = np.asarray(labels)
        if labels.size and int(labels.max()) >= len(qos.tenants):
            raise ConfigurationError(
                f"tenant label {int(labels.max())} out of range for "
                f"{len(qos.tenants)} declared tenant(s)"
            )
        return labels

    def _assemble_result(
        self,
        per_server: list[RuntimeResult | None],
        *,
        schedule: ControllerSchedule | None = None,
        setup_energy: float = 0.0,
        jobs: JobTrace,
        assignment: np.ndarray,
    ) -> FarmResult:
        if all(result is None for result in per_server):
            raise ConfigurationError("no server received any job")
        # Heterogeneous configs may imply different per-server budgets; the
        # farm answers to the strictest one (identical in the homogeneous case).
        budget = min(
            result.response_time_budget
            for result in per_server
            if result is not None
        )
        # Servers the dispatcher parked entirely still burn power walking
        # their sleep sequences; run their epoch loops over an empty stream
        # for the same span so farm totals stay continuous in the job count.
        horizon = max(
            result.total_duration for result in per_server if result is not None
        )
        tenancy = None
        labels = self._tenant_labels(jobs)
        if labels is not None:
            assert isinstance(self.qos, FarmQos)
            tenancy = TenancyAccounting(
                qos=self.qos,
                tenant_ids=labels,
                assignment=np.asarray(assignment, dtype=np.int64),
            )
        return FarmResult(
            per_server=tuple(per_server),
            mean_service_time=self.spec.mean_service_time,
            response_time_budget=budget,
            server_names=tuple(server.name for server in self.servers),
            idle_energies=tuple(
                self._idle_energies(
                    per_server,
                    horizon,
                    parked_seconds=(
                        schedule.parked_seconds if schedule is not None else None
                    ),
                )
            ),
            awake_counts=schedule.awake_counts if schedule is not None else None,
            setup_energy=setup_energy,
            wake_transitions=(
                schedule.transitions if schedule is not None else None
            ),
            tenancy=tenancy,
        )

    def run(self, jobs: JobTrace) -> FarmResult:
        """Dispatch *jobs* across the farm and run every server's epoch loop."""
        # Fail fast on a per-tenant farm fed a mislabelled trace, before
        # any dispatch or epoch loop runs.
        self._tenant_labels(jobs)
        executor = self._resolve_executor()
        schedule: ControllerSchedule | None = None
        setup_energy = 0.0
        if self.controller is None:
            assignment = self.dispatcher.validated_assignment(
                jobs, self.num_servers, server_speeds=self.dispatch_speeds
            )
        else:
            schedule, assignment, setup_energy = self._controlled_assignment(jobs)
        return self._assemble_result(
            self._per_server_results(executor, jobs, assignment),
            schedule=schedule,
            setup_energy=setup_energy,
            jobs=jobs,
            assignment=assignment,
        )

    def _controlled_assignment(
        self, jobs: JobTrace
    ) -> tuple[ControllerSchedule, np.ndarray, float]:
        """Plan the controller's awake/park schedule and dispatch under it.

        Returns the schedule, the assignment masked to each regime's
        serviceable servers, and the wake setup energy.  Execution is then
        exactly an uncontrolled run's, which is what makes the setup-free
        always-on controller bit-identical to no controller at all.
        """
        controller = self.controller
        assert controller is not None
        if controller.epoch_minutes is not None:
            epoch_seconds = minutes(controller.epoch_minutes)
        else:
            # Default to the coarsest per-server epoch so one control
            # decision never slices a server's own policy-search epoch.
            epoch_seconds = max(
                server.config.epoch_seconds for server in self.servers
            )
        efficiency_order = [
            int(index)
            for index in np.argsort(
                [s.power_model.idle_power(1.0) for s in self.servers],
                kind="stable",
            )
        ]
        schedule = controller.plan(
            jobs.arrival_times,
            jobs.service_demands,
            num_servers=self.num_servers,
            epoch_seconds=epoch_seconds,
            efficiency_order=efficiency_order,
        )
        assignment = controller_assignment(
            jobs,
            self.dispatcher,
            schedule,
            num_servers=self.num_servers,
            server_speeds=self.dispatch_speeds,
        )
        setup_energy = sum(
            schedule.wake_counts[index]
            * controller.setup.transition_energy(
                self.servers[index].power_model.peak_power()
            )
            for index in range(self.num_servers)
        )
        return schedule, assignment, setup_energy

    def _per_server_results(
        self, executor: Executor, jobs: JobTrace, assignment: np.ndarray
    ) -> list[RuntimeResult | None]:
        """Run every server's epoch loop over its range of one assignment.

        The process executor ships :class:`ServerShardTask`\\ s; any other
        executor maps :meth:`_run_server` in this process.
        """
        grouped, ranges = group_by_server(
            assignment, self.num_servers, jobs.arrival_times, jobs.service_demands
        )
        active = [index for index, bounds in enumerate(ranges) if bounds is not None]
        if not active:
            raise ConfigurationError("no server received any job")
        if isinstance(executor, ProcessExecutor):
            results = self._run_shards(executor, grouped, ranges, active)
        else:
            arrivals, demands = grouped
            # A grouped range keeps arrival order: trusted constructor.
            results = executor.map(
                self._run_server,
                [
                    (
                        index,
                        JobTrace.from_validated_arrays(
                            arrivals[ranges[index]], demands[ranges[index]]
                        ),
                    )
                    for index in active
                ],
            )
        per_server: list[RuntimeResult | None] = [None] * self.num_servers
        for index, result in zip(active, results, strict=True):
            per_server[index] = result
        return per_server

    def _run_server(self, item: tuple[int, JobTrace]) -> RuntimeResult:
        """In-process work fn: build server *index*'s runtime and run it."""
        index, jobs = item
        return self._build_runtime(index).run(jobs)

    def _run_shards(
        self,
        executor: Executor,
        grouped: tuple[np.ndarray, ...],
        ranges: Sequence[slice | None],
        active: Sequence[int],
    ) -> list[RuntimeResult]:
        """Shard the active servers across worker processes.

        Each task carries its server's range slices of the grouped arrays.
        """
        arrivals, demands = grouped
        tasks = [
            ServerShardTask(
                server=self.servers[index],
                spec=self.spec,
                arrivals=arrivals[ranges[index]],
                demands=demands[ranges[index]],
            )
            for index in active
        ]
        return executor.map(run_server_shard, tasks)
