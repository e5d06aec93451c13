"""Reproduction of *SleepScale: Runtime Joint Speed Scaling and Sleep States
Management for Power Efficient Data Centers* (Liu, Draper, Kim — ISCA 2014).

The library is organised bottom-up:

* :mod:`repro.power` — server power substrate: CPU C-states, platform
  S-states, per-component power (Table 2), DVFS and sleep-state primitives;
* :mod:`repro.workloads` — distributions, the Table 5 workload specs,
  job-stream generation and daily utilisation traces (Figure 7);
* :mod:`repro.simulation` — the FCFS queueing simulator with sleep states
  (Algorithm 1), metrics and frequency sweeps;
* :mod:`repro.analytic` — the Appendix closed forms for the M/M/1 queue with
  sleep states and M/G/1 extensions;
* :mod:`repro.policies` — policy objects and candidate policy spaces;
* :mod:`repro.prediction` — runtime utilisation predictors (naive-previous,
  LMS, LMS+CUSUM, offline oracle);
* :mod:`repro.core` — SleepScale itself: QoS constraints, the policy
  manager, the comparison strategies and the epoch-by-epoch runtime;
* :mod:`repro.cluster` — multi-server farms (homogeneous and heterogeneous)
  behind pluggable dispatchers;
* :mod:`repro.scenarios` — the registry of named, parameterised evaluation
  scenarios (``python -m repro.experiments run-scenario <name>``);
* :mod:`repro.experiments` — one module per table/figure of the paper's
  evaluation, used by the benchmark harness, plus the scenario runner.

Quickstart::

    from repro import (
        xeon_power_model, google_workload, mean_qos_from_baseline,
        sleepscale_strategy, LmsCusumPredictor, SleepScaleRuntime,
        RuntimeConfig, generate_trace_driven_jobs, synthetic_email_store_trace,
    )

    power = xeon_power_model()
    spec = google_workload()
    qos = mean_qos_from_baseline(rho_b=0.8)
    strategy = sleepscale_strategy(power, qos)
    runtime = SleepScaleRuntime(power, spec, strategy, LmsCusumPredictor(),
                                RuntimeConfig(epoch_minutes=5))
    trace = synthetic_email_store_trace(days=1)
    jobs = generate_trace_driven_jobs(spec, trace, seed=0).jobs
    result = runtime.run(jobs)
    print(result.summary())
"""

from repro.cluster import (
    FarmResult,
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
    ServerFarm,
    ServerSpec,
)
from repro.concurrency import (
    EXECUTORS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    fan_out,
    resolve_executor,
)
from repro.core import (
    DEFAULT_SEARCH,
    SEARCH_FRONTIER,
    SEARCH_FULL,
    AnalyticPolicyManager,
    EpochContext,
    EpochRecord,
    MeanResponseTimeConstraint,
    PercentileResponseTimeConstraint,
    PolicyEvaluation,
    PolicyManager,
    PolicySearchEngine,
    PolicySelection,
    QosConstraint,
    RuntimeConfig,
    RuntimeResult,
    SleepScaleRuntime,
    analytic_sleepscale_strategy,
    baseline_normalized_mean_budget,
    dvfs_only_strategy,
    figure9_strategies,
    mean_qos_from_baseline,
    percentile_qos_from_baseline,
    race_to_halt_c3,
    race_to_halt_c6,
    sleepscale_single_state_strategy,
    sleepscale_strategy,
)
from repro.policies import Policy, PolicySpace, full_space, race_to_halt_policy
from repro.power import (
    C0I_S0I,
    C1_S0I,
    C3_S0I,
    C6_S0I,
    C6_S3,
    LOW_POWER_STATES,
    DvfsModel,
    ServerPowerModel,
    SleepSequence,
    SleepStateSpec,
    SystemState,
    atom_power_model,
    xeon_power_model,
)
from repro.prediction import (
    LmsCusumPredictor,
    LmsPredictor,
    NaivePreviousPredictor,
    OraclePredictor,
    UtilizationPredictor,
)
from repro.simulation import (
    ServiceScaling,
    SimulationResult,
    cpu_bound,
    memory_bound,
    simulate_trace,
    simulate_workload,
    sweep_frequencies,
    sweep_states,
)
from repro.scenarios import (
    BuiltScenario,
    Scenario,
    ScenarioParameter,
    available_scenarios,
    get_scenario,
    register_scenario,
    scenario_catalog,
)
from repro.workloads import (
    JobTrace,
    UtilizationTrace,
    WorkloadSpec,
    dns_workload,
    generate_jobs,
    generate_trace_driven_jobs,
    google_workload,
    mail_workload,
    synthetic_email_store_trace,
    synthetic_file_server_trace,
)

__version__ = "1.0.0"

__all__ = [
    "AnalyticPolicyManager",
    "BuiltScenario",
    "C0I_S0I",
    "C1_S0I",
    "C3_S0I",
    "C6_S0I",
    "C6_S3",
    "DvfsModel",
    "EXECUTORS",
    "EpochContext",
    "Executor",
    "FarmResult",
    "EpochRecord",
    "JobTrace",
    "LOW_POWER_STATES",
    "LeastLoadedDispatcher",
    "LmsCusumPredictor",
    "LmsPredictor",
    "MeanResponseTimeConstraint",
    "NaivePreviousPredictor",
    "OraclePredictor",
    "PercentileResponseTimeConstraint",
    "Policy",
    "PolicyEvaluation",
    "PolicyManager",
    "PolicySearchEngine",
    "PolicySelection",
    "PolicySpace",
    "PowerAwareDispatcher",
    "ProcessExecutor",
    "QosConstraint",
    "RandomDispatcher",
    "RoundRobinDispatcher",
    "RuntimeConfig",
    "RuntimeResult",
    "DEFAULT_SEARCH",
    "SEARCH_FRONTIER",
    "SEARCH_FULL",
    "Scenario",
    "ScenarioParameter",
    "SerialExecutor",
    "ServerFarm",
    "ServerPowerModel",
    "ServerSpec",
    "ServiceScaling",
    "SimulationResult",
    "SleepScaleRuntime",
    "SleepSequence",
    "SleepStateSpec",
    "SystemState",
    "UtilizationPredictor",
    "UtilizationTrace",
    "WorkloadSpec",
    "analytic_sleepscale_strategy",
    "atom_power_model",
    "available_scenarios",
    "baseline_normalized_mean_budget",
    "cpu_bound",
    "dns_workload",
    "dvfs_only_strategy",
    "fan_out",
    "figure9_strategies",
    "full_space",
    "generate_jobs",
    "generate_trace_driven_jobs",
    "get_scenario",
    "google_workload",
    "mail_workload",
    "mean_qos_from_baseline",
    "memory_bound",
    "percentile_qos_from_baseline",
    "race_to_halt_c3",
    "race_to_halt_c6",
    "race_to_halt_policy",
    "register_scenario",
    "resolve_executor",
    "scenario_catalog",
    "simulate_trace",
    "simulate_workload",
    "sleepscale_single_state_strategy",
    "sleepscale_strategy",
    "sweep_frequencies",
    "sweep_states",
    "synthetic_email_store_trace",
    "synthetic_file_server_trace",
    "xeon_power_model",
    "__version__",
]
