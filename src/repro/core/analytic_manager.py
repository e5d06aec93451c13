"""Closed-form (simulation-free) policy selection.

The paper observes (Section 5.1.2, observation 3) that "often the idealized
model computes the best choice of low-power state, but not the frequency
setting", and leaves as future work a runtime that "relies simply on the
idealized model without simulation to compute the optimal policy".  This
module implements that variant: an :class:`AnalyticPolicyManager` with the
same selection interface as the simulation-based
:class:`~repro.core.policy_manager.PolicyManager`, but whose per-candidate
metrics come from the Appendix closed forms (M/M/1 with sleep states) driven
only by the predicted utilisation and the workload's mean job size.

Because it evaluates a candidate in tens of microseconds rather than
milliseconds, it makes very fine frequency grids and sub-second update
intervals practical; the ablation benchmark
(``benchmarks/test_bench_ablations.py``) quantifies what it gives up relative
to simulating the observed (non-Poisson, non-exponential) workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytic.mm1_sleep import evaluate_policy
from repro.core.policy_manager import PolicyEvaluation, PolicySelection, pick_selection
from repro.core.qos import (
    MeanResponseTimeConstraint,
    PercentileResponseTimeConstraint,
    QosConstraint,
)
from repro.core.strategies import EpochContext, PowerManagementStrategy
from repro.exceptions import ConfigurationError, PolicySelectionError
from repro.policies.policy import Policy
from repro.policies.space import PolicySpace, full_space
from repro.power.platform import ServerPowerModel
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class AnalyticEvaluation:
    """Closed-form metrics of one candidate policy (mirrors PolicyEvaluation)."""

    policy: Policy
    average_power: float
    mean_response_time: float
    normalized_mean_response_time: float
    p95_response_time: float
    meets_qos: bool
    qos_slack: float

    @property
    def frequency(self) -> float:
        """The evaluated policy's DVFS setting."""
        return self.policy.frequency

    @property
    def sleep_state(self) -> str:
        """The evaluated policy's sleep-sequence name."""
        return self.policy.sleep_state_name


class AnalyticPolicyManager:
    """Selects policies from the idealised M/M/1 closed forms.

    Parameters
    ----------
    power_model:
        The server being managed.
    policy_space:
        Candidate (frequency, state) combinations — the same object the
        simulation-based manager uses.
    qos:
        Either a mean-response-time or a 95th-percentile constraint.  The
        percentile check uses the Appendix's single-state exceedance formula,
        so it is exact for the single-state candidates the default space
        contains and an approximation for multi-state sequences.
    mean_service_time:
        The workload's mean (full-frequency) job size ``1/mu`` — the only
        workload statistic the idealised model needs besides the predicted
        utilisation.
    """

    def __init__(
        self,
        power_model: ServerPowerModel,
        policy_space: PolicySpace,
        qos: QosConstraint,
        mean_service_time: float,
    ):
        if mean_service_time <= 0:
            raise ConfigurationError(
                f"mean service time must be positive, got {mean_service_time}"
            )
        if not isinstance(
            qos, (MeanResponseTimeConstraint, PercentileResponseTimeConstraint)
        ):
            raise ConfigurationError(
                "the analytic manager supports mean and percentile constraints only"
            )
        self._power_model = power_model
        self._space = policy_space
        self._qos = qos
        self._mean_service_time = float(mean_service_time)

    @property
    def policy_space(self) -> PolicySpace:
        """The candidate policy space."""
        return self._space

    @property
    def qos(self) -> QosConstraint:
        """The constraint in force."""
        return self._qos

    # ------------------------------------------------------------------

    def _judge(self, normalized_mean: float, p95: float) -> tuple[bool, float]:
        if isinstance(self._qos, MeanResponseTimeConstraint):
            slack = self._qos.normalized_budget - normalized_mean
            return slack >= 0.0, slack
        slack = self._qos.deadline - p95
        return slack >= 0.0, slack

    def characterize(self, utilization: float) -> tuple[AnalyticEvaluation, ...]:
        """Evaluate every candidate policy in closed form at *utilization*."""
        if not 0.0 < utilization < 1.0:
            raise ConfigurationError(
                f"utilization must lie in (0, 1) for the analytic model, got {utilization}"
            )
        service_rate = 1.0 / self._mean_service_time
        arrival_rate = utilization * service_rate
        evaluations: list[AnalyticEvaluation] = []
        for policy in self._space.candidate_policies(utilization):
            point = evaluate_policy(
                arrival_rate,
                service_rate,
                policy.frequency,
                policy.sleep,
                self._power_model.active_power(policy.frequency),
                service_scaling_beta=self._space.scaling.beta,
            )
            meets, slack = self._judge(
                point.normalized_mean_response_time, point.p95_response_time
            )
            evaluations.append(
                AnalyticEvaluation(
                    policy=policy,
                    average_power=point.average_power,
                    mean_response_time=point.mean_response_time,
                    normalized_mean_response_time=point.normalized_mean_response_time,
                    p95_response_time=point.p95_response_time,
                    meets_qos=meets,
                    qos_slack=slack,
                )
            )
        if not evaluations:
            raise PolicySelectionError(
                f"no candidate policy at utilization {utilization}"
            )
        return tuple(evaluations)

    def select(self, utilization: float) -> PolicySelection:
        """The minimum-power candidate meeting the constraint at *utilization*.

        Returns the same :class:`PolicySelection` structure as the
        simulation-based manager so callers can treat the two uniformly; the
        evaluations are converted to :class:`PolicyEvaluation` records.
        """
        analytic = self.characterize(utilization)
        evaluations = [
            PolicyEvaluation(
                policy=e.policy,
                average_power=e.average_power,
                mean_response_time=e.mean_response_time,
                normalized_mean_response_time=e.normalized_mean_response_time,
                p95_response_time=e.p95_response_time,
                meets_qos=e.meets_qos,
                qos_slack=e.qos_slack,
            )
            for e in analytic
        ]
        return pick_selection(evaluations)


class AnalyticSleepScaleStrategy(PowerManagementStrategy):
    """SleepScale whose per-epoch policy search uses the closed forms.

    The epoch context's job log is ignored — only the predicted utilisation
    and the workload's mean job size enter the idealised model — which is
    exactly the simplification the paper proposes evaluating.
    """

    def __init__(
        self,
        power_model: ServerPowerModel,
        qos: QosConstraint,
        mean_service_time: float,
        frequency_step: float = 0.05,
        min_utilization: float = 0.02,
        name: str = "SS(analytic)",
    ):
        self.name = name
        self._manager = AnalyticPolicyManager(
            power_model=power_model,
            policy_space=full_space(power_model, frequency_step=frequency_step),
            qos=qos,
            mean_service_time=mean_service_time,
        )
        self._min_utilization = float(min_utilization)
        self._last_selection: PolicySelection | None = None

    @property
    def last_selection(self) -> PolicySelection | None:
        """The most recent selection's full characterisation table."""
        return self._last_selection

    def select_policy(self, context: EpochContext) -> Policy:
        utilization = min(
            max(context.predicted_utilization, self._min_utilization), 0.98
        )
        selection = self._manager.select(utilization)
        self._last_selection = selection
        return selection.policy


def analytic_sleepscale_strategy(
    power_model: ServerPowerModel,
    qos: QosConstraint,
    spec: WorkloadSpec,
    frequency_step: float = 0.05,
) -> AnalyticSleepScaleStrategy:
    """Convenience factory mirroring :func:`repro.core.strategies.sleepscale_strategy`."""
    return AnalyticSleepScaleStrategy(
        power_model=power_model,
        qos=qos,
        mean_service_time=spec.mean_service_time,
        frequency_step=frequency_step,
    )
