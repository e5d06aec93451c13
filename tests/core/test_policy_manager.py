"""Tests for the SleepScale policy manager (characterisation and selection)."""

from __future__ import annotations

import pytest

from repro.core.policy_manager import (
    PolicyManager,
    evaluation_from_result,
    pick_selection,
)
from repro.core.qos import MeanResponseTimeConstraint, PercentileResponseTimeConstraint
from repro.exceptions import PolicySelectionError
from repro.policies.space import PolicySpace, full_space
from repro.power.states import C0I_S0I, C6_S0I, C6_S3
from tests.simulation.reference_loop import reference_simulate_trace


@pytest.fixture()
def manager(xeon) -> PolicyManager:
    space = PolicySpace(
        power_model=xeon,
        states=(C0I_S0I, C6_S0I, C6_S3),
        frequency_step=0.1,
    )
    return PolicyManager(
        power_model=xeon,
        policy_space=space,
        qos=MeanResponseTimeConstraint(5.0),
        characterization_jobs=1_500,
        seed=3,
    )


class TestCharacterization:
    def test_every_candidate_is_evaluated(self, manager, small_dns_trace):
        evaluations = manager.characterize(small_dns_trace, 0.3)
        assert len(evaluations) == manager.policy_space.size(0.3)

    def test_evaluations_expose_metrics(self, manager, small_dns_trace):
        evaluation = manager.characterize(small_dns_trace, 0.3)[0]
        assert evaluation.average_power > 0
        assert evaluation.mean_response_time > 0
        assert evaluation.p95_response_time >= evaluation.mean_response_time * 0.5
        assert evaluation.frequency == evaluation.policy.frequency
        assert evaluation.sleep_state == evaluation.policy.sleep_state_name

    def test_characterize_spec_generates_jobs(self, manager, dns_ideal):
        evaluations = manager.characterize_spec(dns_ideal, 0.3, num_jobs=500)
        assert len(evaluations) > 0

    def test_feasibility_flag_matches_constraint(self, manager, small_dns_trace):
        for evaluation in manager.characterize(small_dns_trace, 0.3):
            assert evaluation.meets_qos == (
                evaluation.normalized_mean_response_time <= 5.0
            )
            assert (evaluation.qos_slack >= 0) == evaluation.meets_qos


class TestSelection:
    def test_selected_policy_is_cheapest_feasible(self, manager, small_dns_trace):
        selection = manager.select(small_dns_trace, 0.3)
        assert selection.feasible
        feasible = [e for e in selection.evaluations if e.meets_qos]
        assert selection.best.average_power == min(e.average_power for e in feasible)

    def test_selection_meets_budget(self, manager, small_dns_trace):
        selection = manager.select(small_dns_trace, 0.3)
        assert selection.best.normalized_mean_response_time <= 5.0

    def test_select_for_spec(self, manager, dns_ideal):
        selection = manager.select_for_spec(dns_ideal, 0.3, num_jobs=800)
        assert selection.policy.frequency > 0.3

    def test_tight_constraint_forces_higher_frequency(self, xeon, dns_ideal):
        def best_frequency(budget):
            manager = PolicyManager(
                power_model=xeon,
                policy_space=full_space(xeon, frequency_step=0.1),
                qos=MeanResponseTimeConstraint(budget),
                characterization_jobs=1_500,
                seed=5,
            )
            return manager.select_for_spec(dns_ideal, 0.4).policy.frequency

        assert best_frequency(2.0) >= best_frequency(8.0)

    def test_infeasible_budget_falls_back_to_least_bad(self, xeon, small_dns_trace):
        manager = PolicyManager(
            power_model=xeon,
            policy_space=PolicySpace(
                power_model=xeon, states=(C6_S3,), frequencies=(0.5,)
            ),
            qos=MeanResponseTimeConstraint(0.01),
            seed=1,
        )
        selection = manager.select(small_dns_trace, 0.3)
        assert not selection.feasible
        # The least-infeasible candidate has the largest (least negative) slack.
        assert selection.best.qos_slack == max(
            e.qos_slack for e in selection.evaluations
        )

    def test_pick_rejects_empty_evaluations(self):
        with pytest.raises(PolicySelectionError):
            pick_selection([])

    @staticmethod
    def _row(policy, power, slack):
        from repro.core.policy_manager import PolicyEvaluation

        return PolicyEvaluation(
            policy=policy,
            average_power=power,
            mean_response_time=1.0,
            normalized_mean_response_time=1.0,
            p95_response_time=1.0,
            meets_qos=False,
            qos_slack=slack,
        )

    def test_infeasible_fallback_ignores_nan_slack_rows(self, xeon):
        """Regression: a NaN slack in the *first* row used to poison max().

        ``max()`` over [nan, -0.5, -3.0] returns nan (nothing compares
        greater than a leading NaN), which emptied the near-best filter and
        silently degraded the fallback to cheapest power — here the NaN row
        itself.  The NaN-aware fallback must pick the finite largest-slack
        candidate regardless of row order.
        """
        import math

        from repro.policies.policy import race_to_halt_policy
        from repro.power.states import C3_S0I, C6_S0I, C6_S3

        nan_row = self._row(race_to_halt_policy(xeon, C6_S3), 10.0, math.nan)
        best_row = self._row(race_to_halt_policy(xeon, C3_S0I), 90.0, -0.5)
        worse_row = self._row(race_to_halt_policy(xeon, C6_S0I), 20.0, -3.0)
        for table in (
            [nan_row, best_row, worse_row],
            [best_row, nan_row, worse_row],
            [worse_row, best_row, nan_row],
        ):
            selection = pick_selection(table)
            assert not selection.feasible
            assert selection.best is best_row

    def test_infeasible_fallback_all_nan_degrades_to_cheapest(self, xeon):
        import math

        from repro.policies.policy import race_to_halt_policy
        from repro.power.states import C3_S0I, C6_S3

        cheap = self._row(race_to_halt_policy(xeon, C6_S3), 10.0, math.nan)
        costly = self._row(race_to_halt_policy(xeon, C3_S0I), 90.0, math.nan)
        selection = pick_selection([costly, cheap])
        assert not selection.feasible
        assert selection.best is cheap

    def test_by_state_reports_cheapest_feasible_per_state(self, manager, small_dns_trace):
        selection = manager.select(small_dns_trace, 0.3)
        per_state = selection.by_state()
        assert set(per_state).issubset({"C0(i)S0(i)", "C6S0(i)", "C6S3"})
        for state, evaluation in per_state.items():
            assert evaluation.meets_qos
            assert evaluation.sleep_state == state


class TestPercentileSelection:
    def test_percentile_constraint_selects_feasible_policy(self, xeon, dns_ideal):
        # The M/M/1 baseline at rho=0.2 has a normalised p95 of ln(20)/0.8
        # (about 3.7), so a normalised deadline of 6 is feasible but binding.
        deadline = 6.0 * 0.194
        manager = PolicyManager(
            power_model=xeon,
            policy_space=full_space(xeon, frequency_step=0.1),
            qos=PercentileResponseTimeConstraint(deadline=deadline),
            characterization_jobs=2_000,
            seed=9,
        )
        selection = manager.select_for_spec(dns_ideal, 0.2)
        assert selection.feasible
        assert selection.best.p95_response_time <= deadline
        assert selection.policy.frequency >= 0.6

    def test_percentile_tighter_than_mean(self, xeon, dns_ideal):
        """A p95 deadline equal to the mean budget forces faster operation."""
        mean_manager = PolicyManager(
            power_model=xeon,
            policy_space=full_space(xeon, frequency_step=0.1),
            qos=MeanResponseTimeConstraint(5.0),
            characterization_jobs=2_000,
            seed=11,
        )
        tail_manager = PolicyManager(
            power_model=xeon,
            policy_space=full_space(xeon, frequency_step=0.1),
            qos=PercentileResponseTimeConstraint(deadline=5.0 * 0.194),
            characterization_jobs=2_000,
            seed=11,
        )
        mean_selection = mean_manager.select_for_spec(dns_ideal, 0.3)
        tail_selection = tail_manager.select_for_spec(dns_ideal, 0.3)
        assert tail_selection.policy.frequency >= mean_selection.policy.frequency


class TestBatchedCharacterization:
    """The batched (shared-kernel) path must match per-policy simulation."""

    @staticmethod
    def oracle_table(manager, power_model, jobs, utilization):
        """The characterisation table, each row run through the per-job loop."""
        return tuple(
            evaluation_from_result(
                policy,
                reference_simulate_trace(
                    jobs, policy.frequency, policy.sleep, power_model
                ),
                manager.qos,
            )
            for policy in manager.policy_space.candidate_policies(utilization)
        )

    def test_batch_matches_reference_loop(self, manager, xeon, small_dns_trace):
        batched = manager.characterize(small_dns_trace, 0.3)
        reference = self.oracle_table(manager, xeon, small_dns_trace, 0.3)
        assert len(batched) == len(reference)
        for fast, slow in zip(batched, reference):
            assert fast.policy == slow.policy
            assert fast.average_power == pytest.approx(
                slow.average_power, rel=1e-9
            )
            assert fast.mean_response_time == pytest.approx(
                slow.mean_response_time, rel=1e-9
            )
            assert fast.p95_response_time == pytest.approx(
                slow.p95_response_time, rel=1e-9
            )
            assert fast.meets_qos == slow.meets_qos

    def test_selection_matches_reference_loop(self, manager, xeon, small_dns_trace):
        fast = manager.select(small_dns_trace, 0.3)
        slow = pick_selection(self.oracle_table(manager, xeon, small_dns_trace, 0.3))
        assert fast.policy == slow.policy
        assert fast.feasible == slow.feasible


class TestZeroJobCharacterization:
    """Characterising an empty trace is degenerate but must not crash."""

    def test_characterize_and_select_on_empty_trace(self, manager):
        import math

        from repro.workloads.jobs import JobTrace

        evaluations = manager.characterize(JobTrace.empty(), 0.3)
        assert evaluations
        for evaluation in evaluations:
            assert evaluation.average_power == 0.0
            assert math.isnan(evaluation.mean_response_time)
            assert math.isnan(evaluation.normalized_mean_response_time)
            assert not evaluation.meets_qos
        selection = manager.select(JobTrace.empty(), 0.3)
        assert not selection.feasible
        assert selection.best.average_power == 0.0
