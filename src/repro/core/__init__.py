"""SleepScale core: QoS constraints, the policy manager, strategies and the runtime."""

from repro.core.analytic_manager import (
    AnalyticPolicyManager,
    AnalyticSleepScaleStrategy,
    analytic_sleepscale_strategy,
)
from repro.core.epoch import EpochRecord, RuntimeResult, epochs_to_rows
from repro.core.policy_manager import PolicyEvaluation, PolicyManager, PolicySelection
from repro.core.qos import (
    MeanResponseTimeConstraint,
    PercentileResponseTimeConstraint,
    QosConstraint,
    baseline_mean_response_budget,
    baseline_normalized_mean_budget,
    baseline_percentile_deadline,
    mean_qos_from_baseline,
    percentile_qos_from_baseline,
)
from repro.core.runtime import RuntimeConfig, RuntimeSession, SleepScaleRuntime
from repro.core.search import (
    DEFAULT_SEARCH,
    SEARCH_FRONTIER,
    SEARCH_FULL,
    PolicySearchEngine,
    SearchStats,
)
from repro.core.strategies import (
    EpochContext,
    FixedPolicyStrategy,
    PolicySearchStrategy,
    PowerManagementStrategy,
    RaceToHaltStrategy,
    dvfs_only_strategy,
    figure9_strategies,
    race_to_halt_c3,
    race_to_halt_c6,
    sleepscale_single_state_strategy,
    sleepscale_strategy,
)

__all__ = [
    "AnalyticPolicyManager",
    "AnalyticSleepScaleStrategy",
    "EpochContext",
    "EpochRecord",
    "FixedPolicyStrategy",
    "MeanResponseTimeConstraint",
    "PercentileResponseTimeConstraint",
    "PolicyEvaluation",
    "PolicyManager",
    "PolicySearchEngine",
    "PolicySearchStrategy",
    "PolicySelection",
    "PowerManagementStrategy",
    "QosConstraint",
    "RaceToHaltStrategy",
    "RuntimeConfig",
    "DEFAULT_SEARCH",
    "SEARCH_FRONTIER",
    "SEARCH_FULL",
    "SearchStats",
    "RuntimeSession",
    "RuntimeResult",
    "SleepScaleRuntime",
    "analytic_sleepscale_strategy",
    "baseline_mean_response_budget",
    "baseline_normalized_mean_budget",
    "baseline_percentile_deadline",
    "dvfs_only_strategy",
    "epochs_to_rows",
    "figure9_strategies",
    "mean_qos_from_baseline",
    "percentile_qos_from_baseline",
    "race_to_halt_c3",
    "race_to_halt_c6",
    "sleepscale_single_state_strategy",
    "sleepscale_strategy",
]
