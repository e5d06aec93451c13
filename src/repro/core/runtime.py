"""The SleepScale runtime controller (Section 5.2 and Section 6).

The controller ties everything together and is what the paper's evaluation
actually runs: a job stream generated from a daily utilisation trace is
consumed epoch by epoch; at the start of each ``T``-minute epoch the
controller

1. asks the utilisation predictor for the upcoming epoch's utilisation
   (minute-granularity prediction, Section 5.2.2),
2. asks the strategy (SleepScale or one of the baselines) for the policy to
   run — SleepScale rescales the job log of recent epochs to the predicted
   utilisation and simulates every candidate policy (Section 5.2.1),
3. applies dynamic frequency over-provisioning: if the previous epoch's mean
   delay was *below* the baseline budget, the selected frequency is bumped
   by a factor ``1 + alpha`` as a guard band against utilisation surges
   (Section 5.2.3),
4. runs the epoch's actual jobs under the chosen policy, carrying any
   unfinished backlog into the next epoch, and
5. feeds the observed per-minute utilisations of the epoch back into the
   predictor.

The result is a :class:`~repro.core.epoch.RuntimeResult` containing every
epoch record plus run-wide response-time and power metrics — the quantities
Figures 8, 9 and 10 report.

The epoch loop
--------------

The loop lives in :class:`RuntimeSession`, which :meth:`SleepScaleRuntime.run`
builds over the whole validated trace: it sums the demands into the
observation windows once, then :meth:`RuntimeSession.finish` runs the epochs
in order, each on a contiguous slice of the trace, and assembles the
:class:`~repro.core.epoch.RuntimeResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.epoch import EpochRecord, RuntimeResult
from repro.core.qos import baseline_mean_response_budget, baseline_normalized_mean_budget
from repro.core.strategies import EpochContext, PowerManagementStrategy
from repro.exceptions import ConfigurationError
from repro.policies.policy import Policy
from repro.power.platform import ServerPowerModel
from repro.prediction.base import UtilizationPredictor
from repro.simulation.engine import simulate_trace
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.units import minutes
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunable parameters of the runtime controller.

    Parameters
    ----------
    epoch_minutes:
        Policy update interval ``T`` in minutes (the paper sweeps 1–10 and
        uses 5 for the headline comparison).
    rho_b:
        Peak design utilisation that defines the baseline QoS.
    over_provisioning:
        The guard-band factor ``alpha``; 0 disables over-provisioning
        (Figure 8), 0.35 is the paper's headline setting (Figure 9).
    log_epochs:
        How many past epochs of logged jobs the policy manager characterises
        against (older epochs are dropped).
    observation_minutes:
        Granularity of the utilisation observations fed to the predictor
        (one minute in the paper).  Must divide ``epoch_minutes``, so every
        epoch covers whole observation windows.
    min_utilization:
        Floor applied to predictions before they reach the policy search, so
        a predicted utilisation of exactly zero cannot produce an empty
        candidate space.
    """

    epoch_minutes: float = 5.0
    rho_b: float = 0.8
    over_provisioning: float = 0.35
    log_epochs: int = 2
    observation_minutes: float = 1.0
    min_utilization: float = 0.02

    def __post_init__(self) -> None:
        if self.epoch_minutes <= 0:
            raise ConfigurationError("epoch_minutes must be positive")
        if not 0.0 < self.rho_b < 1.0:
            raise ConfigurationError("rho_b must lie in (0, 1)")
        if self.over_provisioning < 0:
            raise ConfigurationError("over_provisioning must be non-negative")
        if self.log_epochs < 0:
            raise ConfigurationError("log_epochs must be non-negative")
        if self.observation_minutes <= 0:
            raise ConfigurationError("observation_minutes must be positive")
        windows = self.epoch_minutes / self.observation_minutes
        if round(windows) < 1 or not math.isclose(windows, round(windows), rel_tol=1e-9):
            raise ConfigurationError(
                f"observation_minutes ({self.observation_minutes}) must divide "
                f"epoch_minutes ({self.epoch_minutes}) into whole windows"
            )
        if not 0.0 < self.min_utilization < 1.0:
            raise ConfigurationError("min_utilization must lie in (0, 1)")

    @property
    def epoch_seconds(self) -> float:
        """Epoch length in seconds."""
        return minutes(self.epoch_minutes)

    @property
    def observation_seconds(self) -> float:
        """Observation granularity in seconds."""
        return minutes(self.observation_minutes)


class RuntimeSession:
    """One run of the epoch loop over one validated job trace.

    Built by :meth:`SleepScaleRuntime.run`.  The constructor sums the
    trace's demands into the observation windows; :meth:`finish` walks the
    epochs in order, taking each epoch's jobs as one contiguous slice of
    the trace, and assembles the :class:`~repro.core.epoch.RuntimeResult`.
    """

    def __init__(
        self,
        runtime: "SleepScaleRuntime",
        jobs: JobTrace,
        horizon: float | None = None,
    ):
        self._runtime = runtime
        config = runtime.config
        self._epoch_seconds = config.epoch_seconds
        self._interval = config.observation_seconds
        self._observations_per_epoch = max(
            1, int(round(self._epoch_seconds / self._interval))
        )
        self._mean_service_time = runtime._spec.mean_service_time
        self._baseline_delay = baseline_mean_response_budget(
            config.rho_b, self._mean_service_time
        )
        self._budget = baseline_normalized_mean_budget(config.rho_b)
        runtime._predictor.reset()

        # Epoch-loop state.
        self._epoch_records: list[EpochRecord] = []
        self._all_response_times: list[np.ndarray] = []
        self._total_energy = 0.0
        self._carryover_busy_until = 0.0
        self._previous_epoch_mean_delay: float | None = None

        # The trace, the index of each run epoch's first job, and the
        # per-window demand totals (one ``np.add.at`` in arrival order).
        self._arrivals = jobs.arrival_times
        self._demands = jobs.service_demands
        self._epoch_starts = [0]
        end_time = float(self._arrivals[-1]) if len(jobs) else 0.0
        if horizon is not None:
            end_time = max(end_time, horizon)
        self._num_epochs = max(1, int(math.ceil(end_time / self._epoch_seconds)))
        self._run_horizon = self._num_epochs * self._epoch_seconds
        num_windows = int(math.ceil(self._run_horizon / self._interval))
        # A job arriving exactly at the run horizon lands one window past
        # the last; its demand is clamped into the last window.
        totals = np.zeros(num_windows + 1)
        indices = (self._arrivals // self._interval).astype(int)
        np.add.at(totals, np.minimum(indices, num_windows), self._demands)
        totals[num_windows - 1] += totals[num_windows]
        self._window_totals = totals[:num_windows]

    def _log_window_trace(self, epoch_index: int) -> JobTrace | None:
        """The job log of the most recent ``log_epochs`` epochs (if any)."""
        log_epochs = self._runtime.config.log_epochs
        low = self._epoch_starts[max(0, epoch_index - log_epochs)]
        high = self._epoch_starts[epoch_index]
        if low == high:
            return None
        # A contiguous slice of the validated trace: trusted ctor.
        return JobTrace.from_validated_arrays(
            self._arrivals[low:high], self._demands[low:high]
        )

    def _run_epoch(self, epoch_index: int) -> None:
        """Execute one epoch: select a policy, replay the epoch's jobs."""
        runtime = self._runtime
        config = runtime.config
        epoch_seconds = self._epoch_seconds
        epoch_start = epoch_index * epoch_seconds
        epoch_end = epoch_start + epoch_seconds
        # A job exactly on a boundary belongs to the later epoch; the final
        # epoch is closed on the right and takes every job up to the run
        # horizon.
        first = self._epoch_starts[epoch_index]
        if epoch_index == self._num_epochs - 1:
            last = self._arrivals.size
        else:
            last = int(np.searchsorted(self._arrivals, epoch_end, side="left"))
        self._epoch_starts.append(last)

        if runtime._predictor.observation_count == 0:
            # No history yet: be conservative and provision for the peak
            # design utilisation rather than trusting a cold predictor.
            predicted = config.rho_b
        else:
            predicted = max(runtime._predictor.predict(), config.min_utilization)
        context = EpochContext(
            predicted_utilization=min(predicted, 0.98),
            spec=runtime._spec,
            logged_jobs=self._log_window_trace(epoch_index),
        )
        selected_policy = runtime._strategy.select_policy(context)

        over_provisioned = False
        applied_policy = selected_policy
        if (
            config.over_provisioning > 0
            and self._previous_epoch_mean_delay is not None
            and self._previous_epoch_mean_delay < self._baseline_delay
        ):
            applied_policy = selected_policy.over_provisioned(
                config.over_provisioning
            )
            over_provisioned = True

        low = epoch_index * self._observations_per_epoch
        high = (epoch_index + 1) * self._observations_per_epoch
        observed_slice = np.clip(
            self._window_totals[low:high] / self._interval, 0.0, 1.0
        )
        observed_mean = float(np.mean(observed_slice)) if observed_slice.size else 0.0

        if first == last:
            # No arrivals at all: the server just walks its sleep sequence
            # (or finishes leftover backlog) for the whole epoch.
            idle_start = max(epoch_start, self._carryover_busy_until)
            idle_energy = runtime._trailing_idle_energy(
                applied_policy, epoch_end - idle_start
            )
            self._total_energy += idle_energy
            self._epoch_records.append(
                EpochRecord(
                    index=epoch_index,
                    start_time=epoch_start,
                    duration=epoch_seconds,
                    predicted_utilization=predicted,
                    observed_utilization=observed_mean,
                    policy_label=applied_policy.label,
                    sleep_state=applied_policy.sleep_state_name,
                    selected_frequency=selected_policy.frequency,
                    applied_frequency=applied_policy.frequency,
                    over_provisioned=over_provisioned,
                    num_jobs=0,
                    mean_response_time=math.nan,
                    p95_response_time=math.nan,
                    energy_joules=idle_energy,
                )
            )
            # A zero-arrival epoch produces no delay evidence at all (its
            # recorded mean response time is NaN): carry the previous
            # epoch's mean delay forward unchanged.  Forcing it to 0.0 here
            # unconditionally armed the over-provisioning guard band for
            # the next epoch — even when the last observed delay was
            # *above* the baseline budget — so quiet periods silently
            # switched the controller into permanent over-provisioning.
            self._carryover_busy_until = max(
                self._carryover_busy_until, epoch_start
            )
        else:
            # A contiguous slice of the validated trace needs no second scan.
            epoch_jobs = JobTrace.from_validated_arrays(
                self._arrivals[first:last], self._demands[first:last]
            )
            result = simulate_trace(
                jobs=epoch_jobs,
                frequency=applied_policy.frequency,
                sleep=applied_policy.sleep,
                power_model=runtime._power_model,
                scaling=runtime._scaling,
                start_time=epoch_start,
                busy_until=max(epoch_start, self._carryover_busy_until),
            )
            last_departure = epoch_start + result.horizon
            self._carryover_busy_until = last_departure
            trailing_idle = max(0.0, epoch_end - last_departure)
            trailing_energy = runtime._trailing_idle_energy(
                applied_policy, trailing_idle
            )
            epoch_energy = result.total_energy + trailing_energy
            self._total_energy += epoch_energy
            self._all_response_times.append(result.response_times)
            self._epoch_records.append(
                EpochRecord(
                    index=epoch_index,
                    start_time=epoch_start,
                    duration=epoch_seconds,
                    predicted_utilization=predicted,
                    observed_utilization=observed_mean,
                    policy_label=applied_policy.label,
                    sleep_state=applied_policy.sleep_state_name,
                    selected_frequency=selected_policy.frequency,
                    applied_frequency=applied_policy.frequency,
                    over_provisioned=over_provisioned,
                    num_jobs=result.num_jobs,
                    mean_response_time=result.mean_response_time,
                    p95_response_time=result.response_time_percentile(95.0),
                    energy_joules=epoch_energy,
                )
            )
            self._previous_epoch_mean_delay = result.mean_response_time

        # Reveal the epoch's observed per-minute utilisations.
        runtime._predictor.observe_many(observed_slice)

    def finish(self) -> RuntimeResult:
        """Run every epoch and assemble the run-wide result."""
        config = self._runtime.config
        for epoch_index in range(self._num_epochs):
            self._run_epoch(epoch_index)
        total_duration = max(self._run_horizon, self._carryover_busy_until)
        response_times = (
            np.concatenate(self._all_response_times)
            if self._all_response_times
            else np.array([], dtype=float)
        )
        return RuntimeResult(
            strategy=self._runtime._strategy.name,
            predictor=self._runtime._predictor.name,
            epochs=tuple(self._epoch_records),
            response_times=response_times,
            total_energy=self._total_energy,
            total_duration=total_duration,
            mean_service_time=self._mean_service_time,
            response_time_budget=self._budget,
            extra={
                "epoch_minutes": config.epoch_minutes,
                "rho_b": config.rho_b,
                "over_provisioning": config.over_provisioning,
                # Policy-search mode of the strategy, for report provenance
                # (fixed-policy strategies have no search and report "full").
                "search": getattr(self._runtime._strategy, "search", "full"),
            },
        )


class SleepScaleRuntime:
    """Epoch-by-epoch controller running one strategy over one job stream."""

    def __init__(
        self,
        power_model: ServerPowerModel,
        spec: WorkloadSpec,
        strategy: PowerManagementStrategy,
        predictor: UtilizationPredictor,
        config: RuntimeConfig | None = None,
        scaling: ServiceScaling | None = None,
    ):
        self._power_model = power_model
        self._spec = spec
        self._strategy = strategy
        self._predictor = predictor
        self._config = config or RuntimeConfig()
        self._scaling = scaling or cpu_bound()

    @property
    def config(self) -> RuntimeConfig:
        """The runtime configuration in force."""
        return self._config

    def _trailing_idle_energy(
        self, policy: Policy, idle_duration: float
    ) -> float:
        """Energy of an idle stretch under *policy*'s sleep sequence."""
        if idle_duration <= 0:
            return 0.0
        pre_sleep_power = self._power_model.idle_power(policy.frequency)
        return policy.sleep.idle_energy(idle_duration, pre_sleep_power)

    def run(self, jobs: JobTrace, horizon: float | None = None) -> RuntimeResult:
        """Run the strategy over the whole job stream and aggregate the results.

        *jobs* must use absolute arrival times starting near zero (as
        produced by :func:`repro.workloads.generator.generate_trace_driven_jobs`).

        *horizon* extends the observation window beyond the last arrival (at
        least one epoch is always run).  It also makes a zero-job stream
        (:meth:`JobTrace.empty`) a valid input: the controller then walks its
        selected policies' sleep sequences for the whole window — how a farm
        accounts for a server that received no traffic but still burns power.
        A job arriving exactly at the run horizon belongs to the final epoch.

        Each run resets the predictor, so one runtime can be run repeatedly.
        """
        return RuntimeSession(self, jobs, horizon).finish()
