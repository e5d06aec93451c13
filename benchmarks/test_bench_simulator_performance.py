"""Micro-benchmarks of the policy-evaluation primitive.

Section 4.1 of the paper reports that evaluating a single policy (one
frequency and low-power state combination, 10,000 jobs) takes about 6.3 ms in
Matlab, and argues the per-epoch policy search is therefore negligible
against a minutes-long update interval.  These benchmarks measure the same
primitive for this implementation: one Algorithm 1 evaluation, a whole
policy-space characterisation, and the analytic (closed-form) evaluation that
could replace simulation for the idealised model.

The simulation kernel (the package's one simulator) is benchmarked next to
the per-job loop it replaced, which the tests keep as their oracle
(``tests/simulation/reference_loop.py``), so the speedup and any future
regression are visible in one report.
"""

from __future__ import annotations

import pytest

from repro.analytic.mm1_sleep import evaluate_policy
from repro.core.policy_manager import PolicyManager, evaluation_from_result, pick_selection
from repro.core.qos import MeanResponseTimeConstraint
from repro.policies.space import full_space
from repro.power.platform import xeon_power_model
from repro.power.states import C6_S0I
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import TraceKernel
from repro.workloads.generator import generate_jobs
from repro.workloads.spec import dns_workload
from tests.simulation.reference_loop import reference_simulate_trace


@pytest.fixture(scope="module")
def power_model():
    return xeon_power_model()


@pytest.fixture(scope="module")
def job_stream():
    return generate_jobs(dns_workload(empirical=False), num_jobs=10_000, utilization=0.3, seed=0)


def make_manager(power_model):
    return PolicyManager(
        power_model=power_model,
        policy_space=full_space(power_model, frequency_step=0.1),
        qos=MeanResponseTimeConstraint(5.0),
        characterization_jobs=1_000,
        seed=0,
    )


def reference_select(manager, power_model, jobs, utilization):
    """The manager's full-grid selection, each candidate run by the per-job loop."""
    return pick_selection(
        [
            evaluation_from_result(
                policy,
                reference_simulate_trace(jobs, policy.frequency, policy.sleep, power_model),
                manager.qos,
            )
            for policy in manager.policy_space.candidate_policies(utilization)
        ]
    )


@pytest.mark.benchmark(group="simulator")
def test_bench_single_policy_evaluation(benchmark, power_model, job_stream):
    """One Algorithm 1 run: 10,000 jobs under one (frequency, state) policy."""
    sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
    result = benchmark(
        simulate_trace, job_stream, 0.7, sleep, power_model
    )
    assert result.num_jobs == 10_000


@pytest.mark.benchmark(group="simulator")
def test_bench_single_policy_evaluation_reference(benchmark, power_model, job_stream):
    """The same single-policy run through the per-job reference loop."""
    sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
    result = benchmark(
        reference_simulate_trace, job_stream, 0.7, sleep, power_model
    )
    assert result.num_jobs == 10_000


@pytest.mark.benchmark(group="simulator")
def test_bench_warm_kernel_evaluation(benchmark, power_model, job_stream):
    """One policy evaluation with the trace kernel's per-frequency cache warm.

    This is the amortised per-candidate cost inside a batched policy-space
    characterisation, where many sleep states share each frequency.
    """
    sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
    kernel = TraceKernel(job_stream, power_model)
    kernel.evaluate(0.7, sleep)
    result = benchmark(kernel.evaluate, 0.7, sleep)
    assert result.num_jobs == 10_000


@pytest.mark.benchmark(group="simulator")
def test_bench_policy_space_characterization(benchmark, power_model):
    """A full per-epoch policy search over the default SleepScale space."""
    manager = make_manager(power_model)
    spec = dns_workload(empirical=False)
    jobs = generate_jobs(spec, num_jobs=1_000, utilization=0.3, seed=1)

    selection = benchmark(manager.select, jobs, 0.3)
    assert selection.feasible


@pytest.mark.benchmark(group="simulator")
def test_bench_policy_space_characterization_reference(benchmark, power_model):
    """The same policy search with every candidate run by the per-job loop."""
    manager = make_manager(power_model)
    spec = dns_workload(empirical=False)
    jobs = generate_jobs(spec, num_jobs=1_000, utilization=0.3, seed=1)

    selection = benchmark(reference_select, manager, power_model, jobs, 0.3)
    assert selection.policy == manager.select(jobs, 0.3).policy
    assert selection.feasible


@pytest.mark.benchmark(group="simulator")
def test_bench_analytic_policy_evaluation(benchmark, power_model):
    """The closed-form evaluation of one policy (no simulation at all)."""
    spec = dns_workload(empirical=False)
    sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
    arrival_rate = 0.3 * spec.service_rate

    point = benchmark(
        evaluate_policy,
        arrival_rate,
        spec.service_rate,
        0.7,
        sleep,
        power_model.active_power(0.7),
    )
    assert point.average_power > 0
