"""Workload substrate: distributions, Table 5 specs, job streams, utilisation traces."""

from repro.workloads.distributions import (
    Deterministic,
    Distribution,
    Empirical,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Pareto,
    Uniform,
    from_mean_cv,
)
from repro.workloads.generator import (
    TraceDrivenWorkload,
    empirical_utilization,
    generate_jobs,
    generate_trace_driven_jobs,
    make_rng,
)
from repro.workloads.jobs import Job, JobTrace
from repro.workloads.spec import (
    TABLE5_STATISTICS,
    WorkloadSpec,
    dns_workload,
    google_workload,
    mail_workload,
    table5,
    workload_by_name,
)
from repro.workloads.traces import (
    TraceSummary,
    UtilizationTrace,
    constant_trace,
    step_trace,
    synthetic_email_store_trace,
    synthetic_file_server_trace,
)

__all__ = [
    "Deterministic",
    "Distribution",
    "Empirical",
    "Erlang",
    "Exponential",
    "HyperExponential",
    "Job",
    "JobTrace",
    "LogNormal",
    "Pareto",
    "TABLE5_STATISTICS",
    "TraceDrivenWorkload",
    "TraceSummary",
    "Uniform",
    "UtilizationTrace",
    "WorkloadSpec",
    "constant_trace",
    "dns_workload",
    "empirical_utilization",
    "from_mean_cv",
    "generate_jobs",
    "generate_trace_driven_jobs",
    "google_workload",
    "mail_workload",
    "make_rng",
    "step_trace",
    "synthetic_email_store_trace",
    "synthetic_file_server_trace",
    "table5",
    "workload_by_name",
]
