"""Tests for job-stream generation (stationary and trace-driven)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.units import minutes
from repro.workloads.generator import (
    empirical_utilization,
    generate_jobs,
    generate_trace_driven_jobs,
    make_rng,
    trace_reuse,
)
from repro.workloads.distributions import (
    Deterministic,
    Empirical,
    Exponential,
    HyperExponential,
)
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import WorkloadSpec
from repro.workloads.traces import UtilizationTrace, constant_trace, step_trace


class TestGenerateJobs:
    def test_job_count(self, dns_ideal):
        jobs = generate_jobs(dns_ideal, num_jobs=500, seed=1)
        assert len(jobs) == 500

    def test_seed_reproducibility(self, dns_ideal):
        a = generate_jobs(dns_ideal, num_jobs=200, utilization=0.3, seed=5)
        b = generate_jobs(dns_ideal, num_jobs=200, utilization=0.3, seed=5)
        assert a == b

    def test_different_seeds_differ(self, dns_ideal):
        a = generate_jobs(dns_ideal, num_jobs=200, seed=1)
        b = generate_jobs(dns_ideal, num_jobs=200, seed=2)
        assert a != b

    def test_targets_requested_utilization(self, dns_ideal):
        jobs = generate_jobs(dns_ideal, num_jobs=20_000, utilization=0.4, seed=3)
        assert jobs.offered_load == pytest.approx(0.4, rel=0.05)

    def test_service_demands_match_spec_mean(self, dns_ideal):
        jobs = generate_jobs(dns_ideal, num_jobs=20_000, utilization=0.4, seed=3)
        assert jobs.mean_service_demand == pytest.approx(0.194, rel=0.05)

    def test_shared_rng_advances(self, dns_ideal):
        rng = make_rng(0)
        a = generate_jobs(dns_ideal, num_jobs=100, rng=rng)
        b = generate_jobs(dns_ideal, num_jobs=100, rng=rng)
        assert a != b

    def test_rejects_zero_jobs(self, dns_ideal):
        with pytest.raises(ConfigurationError):
            generate_jobs(dns_ideal, num_jobs=0)


class TestTraceDrivenGeneration:
    def test_flat_trace_matches_target_load(self, dns_ideal):
        trace = constant_trace(0.4, num_samples=30)
        workload = generate_trace_driven_jobs(dns_ideal, trace, seed=1)
        assert workload.jobs.offered_load == pytest.approx(0.4, rel=0.15)

    def test_step_trace_produces_more_jobs_in_busy_half(self, dns_ideal):
        trace = step_trace(0.1, 0.6, num_samples=60)
        workload = generate_trace_driven_jobs(dns_ideal, trace, seed=2)
        halfway = trace.duration / 2
        first = np.sum(workload.jobs.arrival_times < halfway)
        second = np.sum(workload.jobs.arrival_times >= halfway)
        assert second > 2 * first

    def test_arrivals_are_sorted_and_within_trace(self, dns_ideal):
        trace = constant_trace(0.3, num_samples=20)
        jobs = generate_trace_driven_jobs(dns_ideal, trace, seed=3).jobs
        assert np.all(np.diff(jobs.arrival_times) >= 0)
        assert jobs.end_time <= trace.duration

    def test_utilization_clamping(self, dns_ideal):
        trace = constant_trace(0.0, num_samples=20)
        workload = generate_trace_driven_jobs(
            dns_ideal, trace, seed=4, min_utilization=0.05
        )
        assert len(workload.jobs) > 0

    def test_invalid_clamp_rejected(self, dns_ideal):
        trace = constant_trace(0.3, num_samples=10)
        with pytest.raises(ConfigurationError):
            generate_trace_driven_jobs(
                dns_ideal, trace, min_utilization=0.5, max_utilization=0.2
            )

    def test_result_carries_inputs(self, dns_ideal):
        trace = constant_trace(0.3, num_samples=10)
        workload = generate_trace_driven_jobs(dns_ideal, trace, seed=5)
        assert workload.spec is dns_ideal
        assert workload.utilization is trace

    def test_reproducible_with_seed(self, dns_ideal):
        trace = constant_trace(0.3, num_samples=10)
        a = generate_trace_driven_jobs(dns_ideal, trace, seed=9).jobs
        b = generate_trace_driven_jobs(dns_ideal, trace, seed=9).jobs
        assert a == b


class TestTraceDrivenArrivalOrder:
    """The per-interval chunks concatenate in arrival order, unsorted.

    A stable argsort of the output is the identity permutation, so the
    ``argsort`` and fancy-index copies the generator used to make returned
    exactly the stream it returns now.
    """

    SPECS = {
        "poisson": WorkloadSpec("poisson", Exponential(0.2), Exponential(0.1)),
        # Zero gaps: several jobs share an arrival instant (ties).
        "zero-gaps": WorkloadSpec(
            "zero-gaps", Empirical([0.0, 0.0, 0.0, 0.5]), Exponential(0.1)
        ),
        "deterministic": WorkloadSpec(
            "deterministic", Deterministic(0.1), Deterministic(0.03)
        ),
        "bursty": WorkloadSpec(
            "bursty", HyperExponential.from_mean_cv(0.2, 3.0), Exponential(0.1)
        ),
    }
    TRACES = {
        "constant": constant_trace(0.4, num_samples=12),
        "step": step_trace(0.05, 0.8, num_samples=16),
        # Fractional interval and offset start: interval ends are rounded.
        "offset": UtilizationTrace(
            [0.3, 0.9, 0.1, 0.6, 0.2, 0.7], interval=0.7, start_time=3.1
        ),
        # Idle minutes at a tiny clamp leave intervals with no jobs at all.
        "gappy": UtilizationTrace([0.5, 0.0, 0.0, 0.5, 0.0, 0.5], interval=1.0),
    }

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_equals_its_stable_argsort(self, spec_name, trace_name, seed):
        trace = self.TRACES[trace_name]
        jobs = generate_trace_driven_jobs(
            self.SPECS[spec_name], trace, seed=seed, min_utilization=1e-6
        ).jobs
        arrivals = jobs.arrival_times
        order = np.argsort(arrivals, kind="stable")
        np.testing.assert_array_equal(order, np.arange(arrivals.size))
        resorted = JobTrace(arrivals[order], jobs.service_demands[order])
        assert resorted == jobs
        assert np.all(arrivals >= trace.start_time)
        assert np.all(arrivals < trace.start_time + trace.duration)

    def test_cases_cover_ties_and_empty_intervals(self):
        ties = generate_trace_driven_jobs(
            self.SPECS["zero-gaps"], self.TRACES["constant"], seed=0
        ).jobs
        assert np.any(np.diff(ties.arrival_times) == 0.0)
        trace = self.TRACES["gappy"]
        jobs = generate_trace_driven_jobs(
            self.SPECS["poisson"], trace, seed=0, min_utilization=1e-6
        ).jobs
        per_interval = np.bincount(
            (jobs.arrival_times // trace.interval).astype(int),
            minlength=len(trace.values),
        )
        assert np.any(per_interval == 0)


def _reuse_inputs(dns_ideal):
    """Keyword arguments of one seeded generation, in reuse-key order."""
    return {
        "spec": dns_ideal,
        "trace": UtilizationTrace([0.2, 0.5, 0.3], interval=minutes(1), name="t"),
        "seed": 3,
        "min_utilization": 0.01,
        "max_utilization": 0.95,
    }


#: One change per reuse-key field; each must miss.
_KEY_CHANGES = {
    "spec": lambda inputs: {"spec": inputs["spec"].at_utilization(0.4)},
    "values": lambda inputs: {
        "trace": UtilizationTrace([0.2, 0.5, 0.31], interval=minutes(1), name="t")
    },
    "interval": lambda inputs: {
        "trace": UtilizationTrace([0.2, 0.5, 0.3], interval=minutes(2), name="t")
    },
    "start_time": lambda inputs: {
        "trace": UtilizationTrace(
            [0.2, 0.5, 0.3], interval=minutes(1), start_time=60.0, name="t"
        )
    },
    "name": lambda inputs: {
        "trace": UtilizationTrace([0.2, 0.5, 0.3], interval=minutes(1), name="u")
    },
    "seed": lambda inputs: {"seed": 4},
    "min_utilization": lambda inputs: {"min_utilization": 0.02},
    "max_utilization": lambda inputs: {"max_utilization": 0.9},
}


class TestTraceReuse:
    def test_equal_inputs_reuse_inside_the_scope_only(self, dns_ideal):
        inputs = _reuse_inputs(dns_ideal)
        assert generate_trace_driven_jobs(**inputs) is not generate_trace_driven_jobs(
            **inputs
        )
        with trace_reuse():
            first = generate_trace_driven_jobs(**inputs)
            # An equal, separately built key reuses too.
            again = generate_trace_driven_jobs(**_reuse_inputs(dns_ideal))
            assert again is first
        after = generate_trace_driven_jobs(**inputs)
        assert after is not first
        assert after.jobs == first.jobs

    @pytest.mark.parametrize("field", sorted(_KEY_CHANGES))
    def test_any_changed_key_field_misses(self, dns_ideal, field):
        inputs = _reuse_inputs(dns_ideal)
        changed = {**inputs, **_KEY_CHANGES[field](inputs)}
        with trace_reuse():
            first = generate_trace_driven_jobs(**inputs)
            other = generate_trace_driven_jobs(**changed)
            assert other is not first
        # The miss generated exactly what an unscoped call does.
        assert other.jobs == generate_trace_driven_jobs(**changed).jobs

    def test_one_entry_is_kept(self, dns_ideal):
        inputs = _reuse_inputs(dns_ideal)
        with trace_reuse():
            first = generate_trace_driven_jobs(**inputs)
            generate_trace_driven_jobs(**{**inputs, "seed": 4})
            assert generate_trace_driven_jobs(**inputs) is not first

    def test_rng_and_unseeded_calls_are_never_reused(self, dns_ideal):
        inputs = _reuse_inputs(dns_ideal)
        del inputs["seed"]
        with trace_reuse():
            with_rng = generate_trace_driven_jobs(**inputs, rng=make_rng(3))
            assert generate_trace_driven_jobs(**inputs, rng=make_rng(3)) is not with_rng
            # A seed beside an rng does not open the reuse path either.
            seeded_rng = generate_trace_driven_jobs(**inputs, seed=3, rng=make_rng(3))
            assert generate_trace_driven_jobs(**inputs, seed=3) is not seeded_rng
            assert generate_trace_driven_jobs(**inputs) is not generate_trace_driven_jobs(
                **inputs
            )

    def test_unhashable_spec_generates_as_usual(self):
        spec = WorkloadSpec(
            name="logged",
            interarrival=Empirical([0.1, 0.2, 0.4]),
            service=Empirical([0.05, 0.1]),
        )
        trace = constant_trace(0.3, num_samples=2)
        with trace_reuse():
            first = generate_trace_driven_jobs(spec, trace, seed=1)
            second = generate_trace_driven_jobs(spec, trace, seed=1)
        assert second is not first
        assert second.jobs == first.jobs

    def test_scope_resets_after_an_exception(self, dns_ideal):
        inputs = _reuse_inputs(dns_ideal)
        with pytest.raises(RuntimeError, match="cell failed"):
            with trace_reuse():
                first = generate_trace_driven_jobs(**inputs)
                raise RuntimeError("cell failed")
        assert generate_trace_driven_jobs(**inputs) is not first

    def test_nested_scope_keeps_its_own_entry(self, dns_ideal):
        inputs = _reuse_inputs(dns_ideal)
        with trace_reuse():
            outer = generate_trace_driven_jobs(**inputs)
            with trace_reuse():
                inner = generate_trace_driven_jobs(**inputs)
                assert inner is not outer
            assert generate_trace_driven_jobs(**inputs) is outer


class TestEmpiricalUtilization:
    def test_flat_trace_measures_flat_utilization(self, dns_ideal):
        trace = constant_trace(0.5, num_samples=30)
        jobs = generate_trace_driven_jobs(dns_ideal, trace, seed=6).jobs
        measured = empirical_utilization(jobs, minutes(1), horizon=trace.duration)
        assert measured.size == 30
        assert float(np.mean(measured)) == pytest.approx(0.5, rel=0.15)

    def test_hand_built_trace(self):
        jobs = JobTrace([10.0, 70.0], [30.0, 6.0])
        measured = empirical_utilization(jobs, 60.0, horizon=120.0)
        assert measured[0] == pytest.approx(0.5)
        assert measured[1] == pytest.approx(0.1)

    def test_rejects_bad_interval(self, small_dns_trace):
        with pytest.raises(ConfigurationError):
            empirical_utilization(small_dns_trace, 0.0)
