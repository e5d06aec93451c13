"""Queueing simulation substrate: Algorithm 1, metrics and trade-off sweeps.

One simulator serves every caller: the NumPy busy-period kernel in
:mod:`repro.simulation.kernel`.  ``simulate_trace`` and ``simulate_workload``
run one policy through it; use :class:`TraceKernel` directly to evaluate many
policies against one trace.
"""

from repro.simulation.engine import (
    MAX_STABLE_UTILIZATION,
    ServerConfiguration,
    check_stability,
    is_stable,
    simulate_trace,
    simulate_workload,
    warm_up_truncated,
)
from repro.simulation.kernel import TraceKernel, zero_job_result
from repro.simulation.metrics import (
    STATE_PRE_SLEEP,
    STATE_SERVING,
    STATE_WAKING,
    EnergyBreakdown,
    SimulationResult,
    merge_results,
)
from repro.simulation.service_scaling import (
    ServiceScaling,
    cpu_bound,
    memory_bound,
    partially_bound,
)
from repro.simulation.sweep import (
    TradeoffCurve,
    TradeoffPoint,
    best_policy_across_states,
    sweep_frequencies,
    sweep_states,
)

__all__ = [
    "EnergyBreakdown",
    "MAX_STABLE_UTILIZATION",
    "STATE_PRE_SLEEP",
    "STATE_SERVING",
    "STATE_WAKING",
    "ServerConfiguration",
    "TraceKernel",
    "ServiceScaling",
    "SimulationResult",
    "TradeoffCurve",
    "TradeoffPoint",
    "best_policy_across_states",
    "check_stability",
    "cpu_bound",
    "is_stable",
    "memory_bound",
    "merge_results",
    "partially_bound",
    "simulate_trace",
    "simulate_workload",
    "sweep_frequencies",
    "sweep_states",
    "warm_up_truncated",
    "zero_job_result",
]
