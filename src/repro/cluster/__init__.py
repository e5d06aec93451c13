"""Multi-server scale-out substrate (the paper's future-work direction).

Every farm is a :class:`ServerFarm` with one :class:`ServerSpec` per server
(mixed platforms, per-server policy managers); :meth:`ServerFarm.homogeneous`
builds the identical-servers case.  Dispatchers decide which server
each arriving job lands on (see :mod:`repro.cluster.dispatch`), and an
optional :class:`FarmController` right-sizes the awake server set across
epochs (see :mod:`repro.cluster.controller`).  Multi-tenant QoS — per-class
budgets, tenant-aware dispatch and isolation metrics — lives in
:mod:`repro.cluster.tenancy`.
"""

from repro.cluster.controller import (
    CONTROLLER_POLICIES,
    AlwaysOnPolicy,
    ControllerSchedule,
    FarmController,
    PredictivePolicy,
    ReactiveThresholdPolicy,
    RightSizingPolicy,
    SetupModel,
    controller_assignment,
    make_policy,
)
from repro.cluster.dispatch import (
    JobDispatcher,
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
    StreamAssigner,
    WorkTracker,
    merge_streams,
)
from repro.cluster.farm import (
    FarmResult,
    PerIndexFactory,
    ServerFarm,
    ServerShardTask,
    ServerSpec,
    prorated_idle_energy,
    run_server_shard,
)
from repro.cluster.tenancy import (
    FARM_QOS_MODES,
    TENANT_DISPATCH_KINDS,
    CompositeQosConstraint,
    FarmQos,
    PriorityDispatcher,
    TenancyAccounting,
    TenantIsolation,
    TenantOutcome,
    TenantSpec,
    WeightedFairDispatcher,
    isolation_report,
    make_tenant_dispatcher,
    tenant_partitions,
)

__all__ = [
    "CONTROLLER_POLICIES",
    "FARM_QOS_MODES",
    "TENANT_DISPATCH_KINDS",
    "AlwaysOnPolicy",
    "CompositeQosConstraint",
    "ControllerSchedule",
    "FarmController",
    "FarmQos",
    "FarmResult",
    "JobDispatcher",
    "LeastLoadedDispatcher",
    "PerIndexFactory",
    "PowerAwareDispatcher",
    "PredictivePolicy",
    "PriorityDispatcher",
    "RandomDispatcher",
    "ReactiveThresholdPolicy",
    "RightSizingPolicy",
    "RoundRobinDispatcher",
    "ServerFarm",
    "ServerShardTask",
    "ServerSpec",
    "SetupModel",
    "StreamAssigner",
    "TenancyAccounting",
    "TenantIsolation",
    "TenantOutcome",
    "TenantSpec",
    "WeightedFairDispatcher",
    "WorkTracker",
    "controller_assignment",
    "isolation_report",
    "make_policy",
    "make_tenant_dispatcher",
    "merge_streams",
    "prorated_idle_energy",
    "run_server_shard",
    "tenant_partitions",
]
