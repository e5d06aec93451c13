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

Incremental epoch feeding
-------------------------

The epoch loop lives in :class:`RuntimeSession`, which consumes the arrival
stream in arrival-ordered chunks: :meth:`RuntimeSession.feed` buffers jobs
and runs every epoch whose inputs are complete, :meth:`RuntimeSession.finish`
flushes the rest and assembles the :class:`~repro.core.epoch.RuntimeResult`.
:meth:`SleepScaleRuntime.run` is literally ``stream() -> feed(all jobs) ->
finish()``, so the one-shot and streamed paths cannot drift apart — a trace
fed in chunks produces the same result as the same trace fed whole (pinned
by ``tests/core/test_runtime_stream.py``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.epoch import EpochRecord, RuntimeResult
from repro.core.qos import baseline_mean_response_budget, baseline_normalized_mean_budget
from repro.core.strategies import EpochContext, PowerManagementStrategy
from repro.exceptions import ConfigurationError, TraceError
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
        (one minute in the paper).
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
    """One in-progress run of the epoch loop, fed in arrival-ordered chunks.

    Create via :meth:`SleepScaleRuntime.stream`.  ``feed`` accepts either a
    :class:`~repro.workloads.jobs.JobTrace` or a pair of arrays (absolute
    arrival times and nominal demands); chunks must arrive in global time
    order.  An epoch is executed as soon as every input it depends on — its
    job slice and its observation windows — is known to be complete, so the
    session only ever buffers the jobs of the epochs still in flight plus
    the trailing ``log_epochs`` epochs kept for characterisation.
    """

    def __init__(self, runtime: "SleepScaleRuntime"):
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

        # Epoch-loop state (mirrors the historical one-shot loop exactly).
        self._epoch_records: list[EpochRecord] = []
        self._all_response_times: list[np.ndarray] = []
        self._total_energy = 0.0
        self._carryover_busy_until = 0.0
        self._previous_epoch_mean_delay: float | None = None
        self._next_epoch = 0

        # Input buffers.
        self._pending_arrivals: list[np.ndarray] = []
        self._pending_demands: list[np.ndarray] = []
        self._recent_epochs: deque[tuple[np.ndarray, np.ndarray]] = deque(
            maxlen=max(1, config.log_epochs)
        )
        self._window_totals = np.zeros(0)
        self._last_arrival: float | None = None
        self._finished = False

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def feed(
        self,
        jobs: JobTrace | np.ndarray,
        service_demands: np.ndarray | None = None,
    ) -> None:
        """Append one arrival-ordered chunk and run every completed epoch."""
        if self._finished:
            raise ConfigurationError("cannot feed a finished runtime session")
        if isinstance(jobs, JobTrace):
            arrivals, demands = jobs.arrival_times, jobs.service_demands
        else:
            if service_demands is None:
                raise ConfigurationError(
                    "feeding raw arrays requires both arrival times and demands"
                )
            arrivals = np.asarray(jobs, dtype=float)
            demands = np.asarray(service_demands, dtype=float)
            if arrivals.shape != demands.shape or arrivals.ndim != 1:
                raise TraceError(
                    "arrival times and service demands must be matching 1-D arrays"
                )
            if arrivals.size and (
                not np.all(np.isfinite(arrivals))
                or not np.all(np.isfinite(demands))
                or np.any(arrivals < 0)
                or np.any(demands < 0)
                or np.any(np.diff(arrivals) < 0)
            ):
                raise TraceError(
                    "chunk arrival times/demands must be finite, non-negative "
                    "and arrival-ordered"
                )
        if arrivals.size == 0:
            return
        if self._last_arrival is not None and arrivals[0] < self._last_arrival:
            raise TraceError(
                "chunks must be fed in global arrival order; got an arrival "
                f"at {arrivals[0]} after one at {self._last_arrival}"
            )
        self._last_arrival = float(arrivals[-1])

        # Accumulate observation-window demand totals exactly like the
        # one-shot np.add.at (same addition order: arrival order).
        indices = (arrivals // self._interval).astype(int)
        needed = int(indices[-1]) + 1
        if needed > self._window_totals.size:
            grown = np.zeros(max(needed, 2 * self._window_totals.size))
            grown[: self._window_totals.size] = self._window_totals
            self._window_totals = grown
        np.add.at(self._window_totals, indices, demands)

        self._pending_arrivals.append(arrivals)
        self._pending_demands.append(demands)

        # Run every epoch whose jobs and observation windows are complete.
        # The strict inequality keeps a job arriving exactly on a boundary
        # pending until a later arrival (or finish) resolves which epoch —
        # and which observation window — it belongs to.
        while True:
            epoch = self._next_epoch
            complete_before = max(
                (epoch + 1) * self._epoch_seconds,
                (epoch + 1) * self._observations_per_epoch * self._interval,
            )
            if self._last_arrival <= complete_before:
                break
            self._run_epoch(epoch, num_windows=None)

    # ------------------------------------------------------------------
    # Epoch execution
    # ------------------------------------------------------------------

    def _pop_jobs_before(self, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Consume every buffered job with arrival time strictly below *end*."""
        arrivals: list[np.ndarray] = []
        demands: list[np.ndarray] = []
        while self._pending_arrivals:
            block = self._pending_arrivals[0]
            if block[-1] < end:
                arrivals.append(self._pending_arrivals.pop(0))
                demands.append(self._pending_demands.pop(0))
                continue
            split = int(np.searchsorted(block, end, side="left"))
            if split > 0:
                arrivals.append(block[:split])
                demands.append(self._pending_demands[0][:split])
                self._pending_arrivals[0] = block[split:]
                self._pending_demands[0] = self._pending_demands[0][split:]
            break
        if not arrivals:
            empty = np.empty(0)
            return empty, empty
        return np.concatenate(arrivals), np.concatenate(demands)

    def _log_window_trace(self, epoch_index: int) -> JobTrace | None:
        """The job log of the most recent ``log_epochs`` epochs (if any)."""
        log_epochs = self._runtime.config.log_epochs
        if log_epochs == 0 or epoch_index == 0:
            return None
        recent = list(self._recent_epochs)[-log_epochs:]
        arrivals = [block for block, _ in recent if block.size]
        demands = [block for _, block in recent if block.size]
        if not arrivals:
            return None
        # Consecutive chunks that feed() already accepted: trusted ctor.
        return JobTrace.from_validated_arrays(
            np.concatenate(arrivals), np.concatenate(demands)
        )

    def _run_epoch(self, epoch_index: int, num_windows: int | None) -> None:
        """Execute one epoch — the exact historical loop body."""
        runtime = self._runtime
        config = runtime.config
        epoch_seconds = self._epoch_seconds
        epoch_start = epoch_index * epoch_seconds
        epoch_end = epoch_start + epoch_seconds

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

        epoch_arrivals, epoch_demands = self._pop_jobs_before(epoch_end)
        low = epoch_index * self._observations_per_epoch
        high = (epoch_index + 1) * self._observations_per_epoch
        if num_windows is not None:
            high = min(high, num_windows)
        observed_slice = np.clip(
            self._window_totals[low:high] / self._interval, 0.0, 1.0
        )
        observed_mean = float(np.mean(observed_slice)) if observed_slice.size else 0.0

        if epoch_arrivals.size == 0:
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
            # feed() validated every chunk and their global order, so the
            # epoch's slice of them needs no second scan.
            epoch_jobs = JobTrace.from_validated_arrays(
                epoch_arrivals, epoch_demands
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
        self._recent_epochs.append((epoch_arrivals, epoch_demands))
        self._next_epoch = epoch_index + 1

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------

    def finish(self, horizon: float | None = None) -> RuntimeResult:
        """Flush the remaining epochs and assemble the run-wide result.

        *horizon* extends the observation window beyond the last arrival (at
        least one epoch is always run), exactly as in
        :meth:`SleepScaleRuntime.run`.
        """
        if self._finished:
            raise ConfigurationError("runtime session already finished")
        config = self._runtime.config
        epoch_seconds = self._epoch_seconds
        end_time = self._last_arrival if self._last_arrival is not None else 0.0
        if horizon is not None:
            end_time = max(end_time, horizon)
        num_epochs = max(1, int(math.ceil(end_time / epoch_seconds)))
        run_horizon = num_epochs * epoch_seconds
        num_windows = int(math.ceil(run_horizon / self._interval))

        if self._window_totals.size < num_windows:
            grown = np.zeros(num_windows)
            grown[: self._window_totals.size] = self._window_totals
            self._window_totals = grown
        elif self._window_totals.size > num_windows:
            # Jobs arriving exactly at the run horizon land past the last
            # window; the one-shot accounting clamps them into it.
            overflow = float(np.sum(self._window_totals[num_windows:]))
            if overflow:
                self._window_totals[num_windows - 1] += overflow
                self._window_totals[num_windows:] = 0.0

        for epoch_index in range(self._next_epoch, num_epochs):
            self._run_epoch(epoch_index, num_windows=num_windows)

        self._finished = True
        total_duration = max(run_horizon, self._carryover_busy_until)
        response_times = (
            np.concatenate(self._all_response_times)
            if self._all_response_times
            else np.array([], dtype=float)
        )
        # Drop the per-epoch fragments: a finished session may outlive the
        # concatenation (the farm keeps sessions alive while it assembles
        # results), and holding both doubles peak memory on streaming runs.
        self._all_response_times = []
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

    # ------------------------------------------------------------------
    # Main entry points
    # ------------------------------------------------------------------

    def stream(self) -> RuntimeSession:
        """Start an incremental run; feed chunks, then ``finish()``.

        Starting a session resets the predictor, exactly as :meth:`run`
        does; one runtime can therefore be streamed (or run) repeatedly,
        but only one session should be active at a time because strategy
        and predictor state are owned by the runtime.
        """
        return RuntimeSession(self)

    def run(self, jobs: JobTrace, horizon: float | None = None) -> RuntimeResult:
        """Run the strategy over the whole job stream and aggregate the results.

        *jobs* must use absolute arrival times starting near zero (as
        produced by :func:`repro.workloads.generator.generate_trace_driven_jobs`).

        *horizon* extends the observation window beyond the last arrival (at
        least one epoch is always run).  It also makes a zero-job stream
        (:meth:`JobTrace.empty`) a valid input: the controller then walks its
        selected policies' sleep sequences for the whole window — how a farm
        accounts for a server that received no traffic but still burns power.

        ``run`` is exactly ``stream()`` + one ``feed`` + ``finish``; the
        one-shot and chunked paths share every line of the epoch loop.
        """
        session = self.stream()
        if len(jobs) > 0:
            session.feed(jobs)
        return session.finish(horizon=horizon)
