"""Per-epoch records and whole-run results of the SleepScale runtime.

The runtime controller (:mod:`repro.core.runtime`) slices time into epochs of
``T`` minutes; for each epoch it records what was predicted, what policy was
selected (and whether over-provisioning bumped its frequency), and what the
epoch's jobs actually experienced.  :class:`RuntimeResult` aggregates those
records into the quantities the paper's Figures 8–10 report: overall mean
response time, average power, and the distribution of selected low-power
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.simulation.metrics import ResponseTimePercentiles


@dataclass(frozen=True)
class EpochRecord:
    """What happened in one policy-update epoch."""

    index: int
    start_time: float
    duration: float
    predicted_utilization: float
    observed_utilization: float
    policy_label: str
    sleep_state: str
    selected_frequency: float
    applied_frequency: float
    over_provisioned: bool
    num_jobs: int
    mean_response_time: float
    p95_response_time: float
    energy_joules: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError(
                f"epoch duration must be positive, got {self.duration}"
            )
        if self.num_jobs < 0:
            raise ConfigurationError(
                f"epoch job count must be non-negative, got {self.num_jobs}"
            )

    @property
    def average_power(self) -> float:
        """Average power over the epoch, watts."""
        return self.energy_joules / self.duration

    @property
    def had_jobs(self) -> bool:
        """Whether any job arrived during the epoch."""
        return self.num_jobs > 0


@dataclass(frozen=True)
class RuntimeResult(ResponseTimePercentiles):
    """Aggregate outcome of one SleepScale (or baseline strategy) run."""

    strategy: str
    predictor: str
    epochs: tuple[EpochRecord, ...]
    response_times: np.ndarray
    total_energy: float
    total_duration: float
    mean_service_time: float
    response_time_budget: float
    extra: Mapping[str, float | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.epochs:
            raise ConfigurationError("a runtime result needs at least one epoch")
        if self.total_duration <= 0:
            raise ConfigurationError("total duration must be positive")
        if self.mean_service_time <= 0:
            raise ConfigurationError("mean service time must be positive")

    # -- response time -------------------------------------------------------------

    @property
    def num_jobs(self) -> int:
        """Total number of jobs processed over the run."""
        return int(self.response_times.size)

    @property
    def mean_response_time(self) -> float:
        """Mean response time across every job of the run, seconds."""
        if self.response_times.size == 0:
            return math.nan
        return float(np.mean(self.response_times))

    @property
    def normalized_mean_response_time(self) -> float:
        """Mean response time in units of the mean job size (``mu * E[R]``)."""
        return self.mean_response_time / self.mean_service_time

    @property
    def meets_budget(self) -> bool:
        """Whether the run-wide normalised mean response time met the budget."""
        return self.normalized_mean_response_time <= self.response_time_budget

    # -- power ------------------------------------------------------------------------

    @property
    def average_power(self) -> float:
        """Run-wide average power, watts."""
        return self.total_energy / self.total_duration

    @property
    def energy_per_job(self) -> float:
        """Average energy per job, joules (NaN when no job arrived)."""
        if self.num_jobs == 0:
            return math.nan
        return self.total_energy / self.num_jobs

    # -- policy selection behaviour -----------------------------------------------------

    def state_selection_counts(self) -> dict[str, int]:
        """How many epochs selected each low-power state (Figure 10)."""
        counts: dict[str, int] = {}
        for epoch in self.epochs:
            counts[epoch.sleep_state] = counts.get(epoch.sleep_state, 0) + 1
        return counts

    def state_selection_fractions(self) -> dict[str, float]:
        """Fraction of epochs that selected each low-power state (Figure 10)."""
        counts = self.state_selection_counts()
        total = sum(counts.values())
        return {state: count / total for state, count in counts.items()}

    def mean_selected_frequency(self) -> float:
        """Average (un-over-provisioned) frequency selected across epochs."""
        return float(np.mean([epoch.selected_frequency for epoch in self.epochs]))

    def over_provisioned_fraction(self) -> float:
        """Fraction of epochs in which over-provisioning was applied."""
        return float(np.mean([epoch.over_provisioned for epoch in self.epochs]))

    # -- reporting ------------------------------------------------------------------------

    def summary(self) -> dict[str, float | str]:
        """Headline metrics as a flat dictionary for reports and benchmarks."""
        return {
            "strategy": self.strategy,
            "predictor": self.predictor,
            "epochs": float(len(self.epochs)),
            "num_jobs": float(self.num_jobs),
            "mean_response_time_s": self.mean_response_time,
            "normalized_mean_response_time": self.normalized_mean_response_time,
            "p95_response_time_s": self.response_time_percentile(95.0),
            "response_time_budget": self.response_time_budget,
            "meets_budget": float(self.meets_budget),
            "average_power_w": self.average_power,
            "mean_selected_frequency": self.mean_selected_frequency(),
            "over_provisioned_fraction": self.over_provisioned_fraction(),
        }


def epochs_to_rows(epochs: Sequence[EpochRecord]) -> list[dict[str, float | str]]:
    """Flatten epoch records into dictionaries (for CSV export / reports)."""
    rows: list[dict[str, float | str]] = []
    for epoch in epochs:
        rows.append(
            {
                "index": epoch.index,
                "start_time_s": epoch.start_time,
                "predicted_utilization": epoch.predicted_utilization,
                "observed_utilization": epoch.observed_utilization,
                "sleep_state": epoch.sleep_state,
                "selected_frequency": epoch.selected_frequency,
                "applied_frequency": epoch.applied_frequency,
                "over_provisioned": float(epoch.over_provisioned),
                "num_jobs": epoch.num_jobs,
                "mean_response_time_s": epoch.mean_response_time,
                "average_power_w": epoch.average_power,
            }
        )
    return rows
