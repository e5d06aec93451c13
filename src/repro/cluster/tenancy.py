"""Multi-tenant QoS: per-class budgets, tenant-aware dispatch, isolation.

The paper's QoS story (Section 5.1.1, ``repro/core/qos.py``) is a single
baseline-derived budget, and the farm layer historically collapsed
heterogeneous per-server budgets into one strictest constraint.  Online
data-intensive services are really *multi-tenant* latency-SLA problems
(Meisner et al., ISCA 2011): each tenant brings its own percentile or mean
budget, and the operator must answer questions like "does tenant A's flash
crowd violate tenant B's SLA?".

This module is the explicit replacement for the implicit strictest-budget
collapse:

* :class:`TenantSpec` names a traffic class and carries its budget, its
  capacity ``weight`` and its ``priority``.
* :class:`FarmQos` is the farm-level QoS object.  ``FarmQos.strictest()``
  reproduces the historic single-budget behaviour bit-for-bit (the parity
  oracle — see ``FARM_QOS_MODES`` in the REP003 registry), while
  ``FarmQos.per_tenant(...)`` threads per-class budgets end to end:
  tenant labels on ``JobTrace``, tenant-aware dispatchers, per-tenant
  rows and budget checks on ``FarmResult``.
* :class:`PriorityDispatcher` and :class:`WeightedFairDispatcher` are
  tenant-aware dispatchers honouring the one-call ``assigner()``
  contract.  With a single tenant both degenerate to
  ``LeastLoadedDispatcher`` byte-for-byte (the ``TENANT_DISPATCH_KINDS``
  parity oracle).
* :func:`isolation_report` quantifies cross-tenant interference: each
  tenant's p95/p99 under the combined workload versus a solo-run
  baseline on the same farm, with SLA violations attributed to
  interference when the tenant meets its budget alone.

Capacity partitioning is deterministic largest-remainder: every tenant
owns at least one server, and the remaining servers are split
proportionally to ``weight``.  ``WeightedFairDispatcher`` confines each
tenant to its own partition (work conservation inside, isolation
between).  ``PriorityDispatcher`` lays partitions out in descending
priority order and lets a tenant overflow *down* onto idle
lower-priority servers only — a low-priority flash crowd can never
occupy a higher-priority tenant's reserved servers, and a
higher-priority tenant never queues behind a lower-priority backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.cluster.dispatch import (
    ENGINE_HEAP,
    JobDispatcher,
    LeastLoadedDispatcher,
    StreamAssigner,
    WorkTracker,
    validate_engine,
)
from repro.core.qos import QosConstraint
from repro.exceptions import ConfigurationError
from repro.simulation.metrics import EnergyBreakdown, SimulationResult
from repro.workloads.jobs import JobTrace

__all__ = [
    "FARM_QOS_MODES",
    "FARM_QOS_PER_TENANT",
    "FARM_QOS_STRICTEST",
    "TENANT_DISPATCH_KINDS",
    "TENANT_DISPATCH_LEAST_LOADED",
    "TENANT_DISPATCH_PRIORITY",
    "TENANT_DISPATCH_WEIGHTED_FAIR",
    "CompositeQosConstraint",
    "FarmQos",
    "PriorityDispatcher",
    "TenancyAccounting",
    "TenantIsolation",
    "TenantOutcome",
    "TenantSpec",
    "WeightedFairDispatcher",
    "farm_qos_type_error",
    "isolation_report",
    "make_tenant_dispatcher",
    "tenant_outcomes",
    "tenant_partitions",
]

#: Farm-level QoS modes.  ``strictest`` is the oracle: it reproduces the
#: historic single-budget collapse bit-for-bit; ``per-tenant`` is the fast
#: path that threads per-class budgets through dispatch and accounting.
FARM_QOS_STRICTEST = "strictest"
FARM_QOS_PER_TENANT = "per-tenant"
FARM_QOS_MODES = (FARM_QOS_STRICTEST, FARM_QOS_PER_TENANT)

#: Tenant-aware dispatch kinds.  ``least-loaded`` is the oracle: with a
#: single tenant, ``priority`` and ``weighted-fair`` assignments are
#: byte-identical to ``LeastLoadedDispatcher``.
TENANT_DISPATCH_LEAST_LOADED = "least-loaded"
TENANT_DISPATCH_PRIORITY = "priority"
TENANT_DISPATCH_WEIGHTED_FAIR = "weighted-fair"
TENANT_DISPATCH_KINDS = (
    TENANT_DISPATCH_LEAST_LOADED,
    TENANT_DISPATCH_PRIORITY,
    TENANT_DISPATCH_WEIGHTED_FAIR,
)


@dataclass(frozen=True)
class TenantSpec:
    """One traffic class: a name, its budget, and its capacity knobs.

    ``weight`` steers the largest-remainder server split (a weight-2
    tenant owns roughly twice the servers of a weight-1 tenant);
    ``priority`` orders :class:`PriorityDispatcher` partitions — higher
    values are protected from lower ones, never the reverse.
    """

    name: str
    qos: QosConstraint
    weight: float = 1.0
    priority: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError("a tenant needs a non-empty string name")
        if not isinstance(self.qos, QosConstraint):
            raise ConfigurationError(
                f"tenant {self.name!r} qos must be a QosConstraint, "
                f"got {type(self.qos).__name__}"
            )
        if not np.isfinite(self.weight) or self.weight <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r} weight must be positive and finite, "
                f"got {self.weight!r}"
            )
        if not isinstance(self.priority, int):
            raise ConfigurationError(
                f"tenant {self.name!r} priority must be an int, "
                f"got {type(self.priority).__name__}"
            )


@dataclass(frozen=True)
class CompositeQosConstraint(QosConstraint):
    """All per-tenant constraints applied to one result: met iff all met."""

    tenants: tuple[TenantSpec, ...]

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError(
                "a composite constraint needs at least one tenant"
            )

    def is_met(self, result: SimulationResult) -> bool:
        return all(tenant.qos.is_met(result) for tenant in self.tenants)

    def slack(self, result: SimulationResult) -> float:
        return min(tenant.qos.slack(result) for tenant in self.tenants)

    def describe(self) -> str:
        return " AND ".join(
            f"[{tenant.name}] {tenant.qos.describe()}" for tenant in self.tenants
        )


@dataclass(frozen=True)
class FarmQos:
    """Explicit farm-level QoS replacing the implicit strictest collapse.

    Construct via the classmethods — ``FarmQos.strictest()`` for the
    historic single-budget behaviour (bit-identical by contract),
    ``FarmQos.per_tenant(...)`` for per-class budgets and accounting.
    """

    mode: str
    tenants: tuple[TenantSpec, ...] = ()
    constraint: QosConstraint | None = None

    def __post_init__(self) -> None:
        if self.mode not in FARM_QOS_MODES:
            raise ConfigurationError(
                f"unknown farm qos mode {self.mode!r}; "
                f"expected one of {FARM_QOS_MODES}"
            )
        object.__setattr__(self, "tenants", tuple(self.tenants))
        # repro: ignore[REP004] -- string mode tag, not a simulated quantity
        if self.mode == FARM_QOS_STRICTEST:
            if self.tenants:
                raise ConfigurationError(
                    "strictest mode carries no tenants; use FarmQos.per_tenant"
                )
            if self.constraint is not None and not isinstance(
                self.constraint, QosConstraint
            ):
                raise ConfigurationError(
                    "the strictest-mode constraint must be a QosConstraint"
                )
        else:
            if self.constraint is not None:
                raise ConfigurationError(
                    "per-tenant mode derives its constraint from the tenants"
                )
            if not self.tenants:
                raise ConfigurationError(
                    "per-tenant mode needs at least one TenantSpec"
                )
            for tenant in self.tenants:
                if not isinstance(tenant, TenantSpec):
                    raise ConfigurationError(
                        "per-tenant mode takes TenantSpec instances, "
                        f"got {type(tenant).__name__}"
                    )
            names = [tenant.name for tenant in self.tenants]
            if len(set(names)) != len(names):
                raise ConfigurationError(
                    f"tenant names must be unique, got {names}"
                )

    @classmethod
    def strictest(cls, constraint: QosConstraint | None = None) -> FarmQos:
        """The historic behaviour: one farm-wide budget, min over servers.

        The optional ``constraint`` is carried for reporting and for
        builders that want a farm-level check; it does not alter the
        farm's budget computation (which stays the strictest per-server
        budget, bit-for-bit).
        """
        return cls(mode=FARM_QOS_STRICTEST, constraint=constraint)

    @classmethod
    def per_tenant(cls, *tenants: TenantSpec) -> FarmQos:
        """Per-class budgets: each tenant judged against its own SLA."""
        return cls(mode=FARM_QOS_PER_TENANT, tenants=tuple(tenants))

    @property
    def is_per_tenant(self) -> bool:
        # repro: ignore[REP004] -- string mode tag, not a simulated quantity
        return self.mode == FARM_QOS_PER_TENANT

    @property
    def tenant_names(self) -> tuple[str, ...]:
        return tuple(tenant.name for tenant in self.tenants)

    def composite_constraint(self) -> QosConstraint | None:
        """The single constraint equivalent for policy search.

        Per-tenant mode returns a :class:`CompositeQosConstraint` (met iff
        every tenant's budget is met), so per-server policy search selects
        against the binding per-tenant constraint.  Strictest mode returns
        whatever farm-wide constraint was attached (usually ``None``).
        """
        if self.is_per_tenant:
            return CompositeQosConstraint(tenants=self.tenants)
        return self.constraint

    def index_of(self, name: str) -> int:
        for index, tenant in enumerate(self.tenants):
            if tenant.name == name:
                return index
        raise ConfigurationError(
            f"unknown tenant {name!r}; declared: {list(self.tenant_names)}"
        )


def farm_qos_type_error(value: object) -> str:
    """The one-line error for a farm ``qos=`` that is not a :class:`FarmQos`."""
    message = f"qos must be a FarmQos or None, got {type(value).__name__}"
    if isinstance(value, QosConstraint):
        message += "; wrap a bare constraint as FarmQos.strictest(constraint)"
    return message


# -- capacity partitioning -----------------------------------------------------


def tenant_partitions(
    num_servers: int, tenants: Sequence[TenantSpec]
) -> tuple[tuple[int, int], ...]:
    """Deterministic largest-remainder split of servers across tenants.

    Returns contiguous ``(start, size)`` blocks in tenant order.  Every
    tenant owns at least one server; the remaining ``num_servers -
    len(tenants)`` servers are apportioned proportionally to ``weight``
    (largest fractional remainder first, ties to the earlier tenant).
    """
    count = len(tenants)
    if count == 0:
        raise ConfigurationError("cannot partition servers across zero tenants")
    if num_servers < count:
        raise ConfigurationError(
            f"{num_servers} server(s) cannot host {count} tenant(s); "
            "every tenant needs at least one server"
        )
    spare = num_servers - count
    total_weight = sum(tenant.weight for tenant in tenants)
    quotas = [spare * tenant.weight / total_weight for tenant in tenants]
    sizes = [1 + int(np.floor(quota)) for quota in quotas]
    remainders = [quota - np.floor(quota) for quota in quotas]
    leftover = num_servers - sum(sizes)
    for index in sorted(
        range(count), key=lambda i: (-remainders[i], i)
    )[:leftover]:
        sizes[index] += 1
    partitions = []
    start = 0
    for size in sizes:
        partitions.append((start, size))
        start += size
    return tuple(partitions)


def _resolve_tenant_ids(
    tenant_ids: np.ndarray | None, num_tenants: int, kind: str
) -> np.ndarray | None:
    """Validate stream labels against the dispatcher's tenant table.

    ``None`` is legal only for a single tenant (every job belongs to
    tenant 0) — with several tenants an unlabelled stream is ambiguous.
    The labels must be those of the jobs the assigner will be handed.
    """
    if tenant_ids is None:
        if num_tenants == 1:
            return None
        raise ConfigurationError(
            f"the {kind} dispatcher declares {num_tenants} tenants but the "
            "job trace carries no tenant labels; attach them with "
            "JobTrace.with_tenant_ids"
        )
    labels = np.asarray(tenant_ids, dtype=np.int64)
    if labels.size and int(labels.max(initial=0)) >= num_tenants:
        raise ConfigurationError(
            f"tenant label {int(labels.max())} out of range for "
            f"{num_tenants} declared tenant(s)"
        )
    return labels


def _labels_for(labels: np.ndarray | None, count: int) -> np.ndarray | None:
    """*labels*, checked to label exactly the *count* jobs handed in."""
    if labels is not None and len(labels) != count:
        raise ConfigurationError(
            f"got {len(labels)} tenant labels for {count} jobs"
        )
    return labels


class _WeightedFairAssigner(StreamAssigner):
    """Per-tenant least-loaded sub-assigners over disjoint partitions.

    Each tenant's jobs are routed least-loaded *within its own block*, so
    single-tenant streams reduce to one block spanning every server —
    byte-identical to ``LeastLoadedDispatcher``.
    """

    def __init__(
        self,
        num_servers: int,
        server_speeds: Sequence[float] | None,
        tenants: tuple[TenantSpec, ...],
        engine: str,
        tenant_ids: np.ndarray | None,
    ):
        super().__init__(num_servers)
        partitions = tenant_partitions(num_servers, tenants)
        speeds = None if server_speeds is None else list(server_speeds)
        inner = LeastLoadedDispatcher(engine=engine)
        self._offsets: list[int] = []
        self._subs: list[StreamAssigner] = []
        for start, size in partitions:
            block = None if speeds is None else speeds[start : start + size]
            self._offsets.append(start)
            self._subs.append(inner.assigner(size, server_speeds=block))
        self._labels = _resolve_tenant_ids(tenant_ids, len(tenants), "weighted-fair")

    def assign_chunk(
        self,
        arrival_times: Sequence[float] | np.ndarray,
        service_demands: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        arrivals = self._ordered_arrivals(arrival_times)
        demands = np.asarray(service_demands, dtype=float)
        labels = _labels_for(self._labels, len(arrivals))
        if labels is None:
            local = self._subs[0].assign_chunk(arrivals, demands)
            return self._offsets[0] + np.asarray(local, dtype=np.int64)
        assignment = np.empty(len(arrivals), dtype=np.int64)
        for tenant, (offset, sub) in enumerate(zip(self._offsets, self._subs)):
            mask = labels == tenant
            if not mask.any():
                continue
            local = sub.assign_chunk(arrivals[mask], demands[mask])
            assignment[mask] = offset + np.asarray(local, dtype=np.int64)
        return assignment


class _PriorityAssigner(StreamAssigner):
    """Per-job least-loaded inside each tenant's reserved block, with
    work-conserving overflow onto idle lower-priority servers.

    Partitions are laid out in descending priority order.  Tenant *t*
    dispatches least-loaded within its own block; only when every server
    of its block is tracked-busy may a job overflow *down* onto a
    lower-priority server, and only one that is tracked-idle (it would
    start the job immediately).  A lower-priority flood therefore never
    occupies higher blocks, and a higher-priority tenant never queues
    behind a lower-priority backlog.  With one tenant the block is the
    whole fleet and the per-job scan is exactly the least-loaded loop
    engine.
    """

    def __init__(
        self,
        num_servers: int,
        server_speeds: Sequence[float] | None,
        tenants: tuple[TenantSpec, ...],
        tenant_ids: np.ndarray | None,
    ):
        super().__init__(num_servers)
        order = sorted(
            range(len(tenants)), key=lambda t: (-tenants[t].priority, t)
        )
        ordered = [tenants[t] for t in order]
        partitions = tenant_partitions(num_servers, ordered)
        self._block = [(0, 0)] * len(tenants)
        for rank, tenant_index in enumerate(order):
            self._block[tenant_index] = partitions[rank]
        self._tracker = WorkTracker(num_servers, server_speeds)
        self._labels = _resolve_tenant_ids(tenant_ids, len(tenants), "priority")

    def assign_chunk(
        self,
        arrival_times: Sequence[float] | np.ndarray,
        service_demands: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        arrivals = self._ordered_arrivals(arrival_times)
        demands = np.asarray(service_demands, dtype=float)
        labels = _labels_for(self._labels, len(arrivals))
        assignment = np.empty(len(arrivals), dtype=np.int64)
        busy = self._tracker.busy_until
        for index in range(len(arrivals)):
            if labels is None:
                start, size = 0, self.num_servers
            else:
                start, size = self._block[labels[index]]
            arrival = arrivals[index]
            block = busy[start : start + size]
            server = start + block.index(min(block))
            if busy[server] > arrival:
                # Own block saturated: overflow onto the first idle
                # lower-priority server, if any (it starts the job now,
                # beating any own-block queue).
                for lower in range(start + size, self.num_servers):
                    if busy[lower] <= arrival:
                        server = lower
                        break
            assignment[index] = server
            self._tracker.charge(server, arrival, demands[index])
        return assignment


class _TenantAwareDispatcher(JobDispatcher):
    """Shared validation/plumbing for the tenant-aware dispatchers."""

    kind = ""

    def __init__(self, tenants: Sequence[TenantSpec]):
        tenants = tuple(tenants)
        if not tenants:
            raise ConfigurationError(
                f"the {self.kind} dispatcher needs at least one TenantSpec"
            )
        for tenant in tenants:
            if not isinstance(tenant, TenantSpec):
                raise ConfigurationError(
                    f"the {self.kind} dispatcher takes TenantSpec instances, "
                    f"got {type(tenant).__name__}"
                )
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"tenant names must be unique, got {names}")
        self._tenants = tenants

    @property
    def tenants(self) -> tuple[TenantSpec, ...]:
        return self._tenants

    def with_tenants(self, tenants: Sequence[TenantSpec]) -> JobDispatcher:
        """A copy of this dispatcher serving a different tenant table."""
        raise NotImplementedError

    def restrict(self, indices: Sequence[int]) -> JobDispatcher:
        # Partitions are recomputed from the restricted server count at
        # assigner() time, so the dispatcher itself carries no per-server
        # state to narrow.
        return self


class WeightedFairDispatcher(_TenantAwareDispatcher):
    """Weighted-fair tenant isolation: disjoint least-loaded partitions.

    Servers are split once per stream by largest-remainder on tenant
    ``weight`` (every tenant gets at least one); each tenant's jobs are
    dispatched least-loaded inside its own partition only.  A flood in
    one partition cannot queue jobs in another.
    """

    kind = TENANT_DISPATCH_WEIGHTED_FAIR

    def __init__(self, tenants: Sequence[TenantSpec], engine: str = ENGINE_HEAP):
        super().__init__(tenants)
        self._engine = validate_engine(engine)

    @property
    def engine(self) -> str:
        return self._engine

    def with_tenants(self, tenants: Sequence[TenantSpec]) -> WeightedFairDispatcher:
        return WeightedFairDispatcher(tenants, engine=self._engine)

    def assigner(
        self,
        num_servers: int,
        *,
        server_speeds: Sequence[float] | None = None,
        tenant_ids: np.ndarray | None = None,
    ) -> StreamAssigner:
        return _WeightedFairAssigner(
            num_servers, server_speeds, self._tenants, self._engine, tenant_ids
        )


class PriorityDispatcher(_TenantAwareDispatcher):
    """Priority tenant isolation: reserved blocks with downward overflow.

    Partition blocks are laid out in descending ``priority`` (sized by
    ``weight``); a tenant dispatches least-loaded inside its own block
    and, when the whole block is busy, overflows onto *idle*
    lower-priority servers only.  High-priority tenants may borrow spare
    low-priority capacity, but never the reverse — so a low-priority
    flash crowd cannot starve a high-priority SLA.
    """

    kind = TENANT_DISPATCH_PRIORITY

    def with_tenants(self, tenants: Sequence[TenantSpec]) -> PriorityDispatcher:
        return PriorityDispatcher(tenants)

    def assigner(
        self,
        num_servers: int,
        *,
        server_speeds: Sequence[float] | None = None,
        tenant_ids: np.ndarray | None = None,
    ) -> StreamAssigner:
        return _PriorityAssigner(
            num_servers, server_speeds, self._tenants, tenant_ids
        )


def make_tenant_dispatcher(
    kind: str, tenants: Sequence[TenantSpec], engine: str = ENGINE_HEAP
) -> JobDispatcher:
    """Build a dispatcher by registry kind.

    ``least-loaded`` is the tenant-blind oracle; ``priority`` and
    ``weighted-fair`` are the tenant-aware fast paths (byte-identical to
    the oracle for a single tenant).
    """
    if kind == TENANT_DISPATCH_LEAST_LOADED:
        return LeastLoadedDispatcher(engine=engine)
    if kind == TENANT_DISPATCH_PRIORITY:
        return PriorityDispatcher(tenants)
    if kind == TENANT_DISPATCH_WEIGHTED_FAIR:
        return WeightedFairDispatcher(tenants, engine=engine)
    raise ConfigurationError(
        f"unknown tenant dispatcher {kind!r}; "
        f"expected one of {TENANT_DISPATCH_KINDS}"
    )


# -- per-tenant accounting -----------------------------------------------------


def latency_only_result(
    response_times: np.ndarray, mean_service_time: float, horizon: float
) -> SimulationResult:
    """Wrap a response-time array so latency-only constraints can judge it.

    Energy and waiting times are zeroed: only the latency-facing fields
    (``response_times``, percentiles, ``normalized_mean_response_time``
    via ``mean_service_demand``) are meaningful.
    """
    response_times = np.asarray(response_times, dtype=float)
    return SimulationResult(
        response_times=response_times,
        waiting_times=np.zeros_like(response_times),
        energy=EnergyBreakdown(0.0, 0.0, 0.0),
        horizon=horizon if horizon > 0 else 1.0,
        mean_service_demand=mean_service_time,
    )


@dataclass(frozen=True)
class TenantOutcome:
    """One per-tenant row of a multi-tenant farm result."""

    name: str
    weight: float
    priority: int
    qos_description: str
    num_jobs: int
    mean_response_time: float
    p95: float
    p99: float
    meets_budget: bool
    slack: float


def tenant_outcomes(
    qos: FarmQos,
    tenant_ids: np.ndarray,
    response_times: np.ndarray,
    mean_service_time: float,
    horizon: float,
) -> tuple[TenantOutcome, ...]:
    """Judge each tenant's response times against its own budget.

    ``response_times`` is the arrival-ordered global array; ``tenant_ids``
    aligns with it.  A tenant with no jobs gets NaN latencies and is
    counted as meeting its budget (vacuously).
    """
    if not qos.is_per_tenant:
        raise ConfigurationError("tenant_outcomes needs a per-tenant FarmQos")
    tenant_ids = np.asarray(tenant_ids)
    response_times = np.asarray(response_times, dtype=float)
    rows = []
    for index, tenant in enumerate(qos.tenants):
        subset = response_times[tenant_ids == index]
        if subset.size == 0:
            rows.append(
                TenantOutcome(
                    name=tenant.name,
                    weight=tenant.weight,
                    priority=tenant.priority,
                    qos_description=tenant.qos.describe(),
                    num_jobs=0,
                    mean_response_time=float("nan"),
                    p95=float("nan"),
                    p99=float("nan"),
                    meets_budget=True,
                    slack=float("nan"),
                )
            )
            continue
        judged = latency_only_result(subset, mean_service_time, horizon)
        # One selection for both rows; a percentile QoS check then hits
        # the judged result's memo.
        p95, p99 = judged.response_time_percentiles(95.0, 99.0)
        rows.append(
            TenantOutcome(
                name=tenant.name,
                weight=tenant.weight,
                priority=tenant.priority,
                qos_description=tenant.qos.describe(),
                num_jobs=int(subset.size),
                mean_response_time=float(subset.mean()),
                p95=p95,
                p99=p99,
                meets_budget=bool(tenant.qos.is_met(judged)),
                slack=float(tenant.qos.slack(judged)),
            )
        )
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class TenancyAccounting:
    """Per-tenant bookkeeping attached to a multi-tenant ``FarmResult``.

    Holds the arrival-ordered tenant labels and the dispatch assignment so
    per-tenant response-time rows can be scattered back out of the
    per-server arrays (which are arrival-ordered within each server).
    """

    qos: FarmQos
    tenant_ids: np.ndarray = field(repr=False)
    assignment: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class TenantIsolation:
    """One tenant's combined-vs-solo comparison.

    ``interference_violation`` is the cross-tenant SLA-violation
    attribution: the tenant violates its budget under the combined
    workload while meeting it when running alone on the same farm.
    """

    name: str
    combined_p95: float
    solo_p95: float
    combined_p99: float
    solo_p99: float
    meets_budget_combined: bool
    meets_budget_solo: bool

    @property
    def p95_delta(self) -> float:
        return self.combined_p95 - self.solo_p95

    @property
    def p99_delta(self) -> float:
        return self.combined_p99 - self.solo_p99

    @property
    def interference_violation(self) -> bool:
        return self.meets_budget_solo and not self.meets_budget_combined


def isolation_report(farm, jobs: JobTrace):
    """Quantify cross-tenant interference on *farm* for *jobs*.

    Runs the combined labelled trace once, then each tenant's sub-stream
    alone (same farm, same dispatcher, absolute arrival times), and
    reports per-tenant p95/p99 deltas and SLA-violation attribution.
    Returns ``(combined_result, rows)`` where ``rows`` is a tuple of
    :class:`TenantIsolation` (tenants with no jobs are skipped).
    """
    qos = farm.qos
    if qos is None or not qos.is_per_tenant:
        raise ConfigurationError(
            "isolation_report needs a farm with FarmQos.per_tenant"
        )
    if jobs.tenant_ids is None:
        raise ConfigurationError("isolation_report needs a tenant-labelled trace")
    combined = farm.run(jobs)
    combined_rows = {row.name: row for row in combined.tenant_rows()}
    labels = np.asarray(jobs.tenant_ids)
    rows = []
    for index, tenant in enumerate(qos.tenants):
        mask = labels == index
        if not mask.any():
            continue
        solo_jobs = JobTrace.from_validated_arrays(
            np.asarray(jobs.arrival_times)[mask].copy(),
            np.asarray(jobs.service_demands)[mask].copy(),
            tenant_ids=labels[mask].copy(),
        )
        solo_row = {
            row.name: row for row in farm.run(solo_jobs).tenant_rows()
        }[tenant.name]
        combined_row = combined_rows[tenant.name]
        rows.append(
            TenantIsolation(
                name=tenant.name,
                combined_p95=combined_row.p95,
                solo_p95=solo_row.p95,
                combined_p99=combined_row.p99,
                solo_p99=solo_row.p99,
                meets_budget_combined=combined_row.meets_budget,
                meets_budget_solo=solo_row.meets_budget,
            )
        )
    return combined, tuple(rows)
