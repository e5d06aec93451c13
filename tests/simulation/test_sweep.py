"""Tests for frequency/state sweeps and trade-off curves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.power.states import C0I_S0I, C6_S0I, C6_S3
from repro.simulation.service_scaling import ServiceScaling
from repro.simulation.sweep import (
    TradeoffCurve,
    TradeoffPoint,
    best_policy_across_states,
    resolve_sleep,
    sweep_frequencies,
    sweep_states,
)
from repro.workloads.generator import generate_jobs, make_rng
from tests.simulation.reference_loop import reference_simulate_trace


def make_point(frequency, power, response=1.0, p95=2.0, state="C6S3") -> TradeoffPoint:
    return TradeoffPoint(
        frequency=frequency,
        mean_response_time=response,
        normalized_mean_response_time=response,
        p95_response_time=p95,
        average_power=power,
        sleep_state=state,
    )


class TestTradeoffCurve:
    @pytest.fixture()
    def curve(self) -> TradeoffCurve:
        points = (
            make_point(0.4, 90.0, response=6.0, p95=12.0),
            make_point(0.6, 80.0, response=3.0, p95=6.0),
            make_point(0.8, 95.0, response=2.0, p95=4.0),
            make_point(1.0, 120.0, response=1.5, p95=3.0),
        )
        return TradeoffCurve(sleep_state="C6S3", utilization=0.1, points=points)

    def test_minimum_power_point(self, curve):
        assert curve.minimum_power_point().frequency == 0.6

    def test_best_under_mean_budget(self, curve):
        assert curve.best_under_mean_budget(5.0).frequency == 0.6
        assert curve.best_under_mean_budget(2.0).frequency == 0.8
        assert curve.best_under_mean_budget(1.0) is None

    def test_best_under_percentile_budget(self, curve):
        assert curve.best_under_percentile_budget(7.0).frequency == 0.6
        assert curve.best_under_percentile_budget(3.5).frequency == 1.0

    def test_race_to_halt_is_full_speed_point(self, curve):
        assert curve.race_to_halt_point().frequency == 1.0

    def test_array_views(self, curve):
        assert list(curve.frequencies) == [0.4, 0.6, 0.8, 1.0]
        assert curve.powers[1] == 80.0
        assert curve.normalized_response_times[0] == 6.0

    def test_len_and_iter(self, curve):
        assert len(curve) == 4
        assert [p.frequency for p in curve] == [0.4, 0.6, 0.8, 1.0]

    def test_empty_curve_rejected(self):
        with pytest.raises(ConfigurationError):
            TradeoffCurve(sleep_state="x", utilization=0.1, points=())


class TestBestPolicyAcrossStates:
    @pytest.fixture()
    def curves(self) -> dict[str, TradeoffCurve]:
        deep = TradeoffCurve(
            "C6S3", 0.1, (make_point(0.5, 70.0, response=8.0),)
        )
        shallow = TradeoffCurve(
            "C0(i)S0(i)", 0.1, (make_point(0.5, 85.0, response=3.0),)
        )
        return {"C6S3": deep, "C0(i)S0(i)": shallow}

    def test_unconstrained_picks_cheapest(self, curves):
        label, point = best_policy_across_states(curves)
        assert label == "C6S3"
        assert point.average_power == 70.0

    def test_budget_excludes_slow_state(self, curves):
        label, _ = best_policy_across_states(curves, normalized_budget=5.0)
        assert label == "C0(i)S0(i)"

    def test_no_feasible_policy_raises(self, curves):
        with pytest.raises(ConfigurationError):
            best_policy_across_states(curves, normalized_budget=0.5)

    def test_both_constraints_rejected(self, curves):
        with pytest.raises(ConfigurationError):
            best_policy_across_states(
                curves, normalized_budget=5.0, percentile_deadline=1.0
            )


class TestResolveSleep:
    def test_sequence_is_kept_fixed(self, xeon):
        sequence = xeon.immediate_sleep_sequence(C6_S3, 1.0)
        factory = resolve_sleep(sequence, xeon)
        assert factory(0.3) is sequence

    def test_state_rebuilds_per_frequency(self, xeon):
        factory = resolve_sleep(C0I_S0I, xeon)
        assert factory(0.4)[0].power < factory(1.0)[0].power

    def test_callable_passes_through(self, xeon):
        calls = []

        def factory(frequency):
            calls.append(frequency)
            return xeon.immediate_sleep_sequence(C6_S3, frequency)

        resolved = resolve_sleep(factory, xeon)
        resolved(0.7)
        assert calls == [0.7]

    def test_unsupported_type_rejected(self, xeon):
        with pytest.raises(ConfigurationError):
            resolve_sleep(42, xeon)


class TestSweepFrequencies:
    def test_curve_spans_stable_range(self, dns_ideal, xeon):
        curve = sweep_frequencies(
            dns_ideal,
            C6_S3,
            xeon,
            utilization=0.2,
            num_jobs=400,
            frequency_step=0.1,
            seed=0,
        )
        assert curve.frequencies[0] > 0.2
        assert curve.frequencies[-1] == pytest.approx(1.0, abs=0.02)

    def test_response_time_decreases_with_frequency(self, dns_ideal, xeon):
        curve = sweep_frequencies(
            dns_ideal,
            C0I_S0I,
            xeon,
            utilization=0.2,
            num_jobs=2_000,
            frequency_step=0.1,
            seed=0,
        )
        responses = curve.normalized_response_times
        assert responses[0] > responses[-1]

    def test_explicit_frequency_list(self, dns_ideal, xeon):
        curve = sweep_frequencies(
            dns_ideal,
            C6_S0I,
            xeon,
            utilization=0.3,
            frequencies=[0.5, 0.8, 1.0],
            num_jobs=300,
            seed=0,
        )
        assert list(curve.frequencies) == [0.5, 0.8, 1.0]

    def test_unstable_frequencies_skipped(self, dns_ideal, xeon):
        curve = sweep_frequencies(
            dns_ideal,
            C6_S0I,
            xeon,
            utilization=0.5,
            frequencies=[0.4, 0.5, 0.8],
            num_jobs=300,
            seed=0,
        )
        assert list(curve.frequencies) == [0.8]

    def test_all_unstable_raises(self, dns_ideal, xeon):
        with pytest.raises(ConfigurationError):
            sweep_frequencies(
                dns_ideal,
                C6_S0I,
                xeon,
                utilization=0.9,
                frequencies=[0.3, 0.5],
                num_jobs=300,
                seed=0,
            )

    def test_empty_frequency_list_rejected(self, dns_ideal, xeon):
        with pytest.raises(ConfigurationError):
            sweep_frequencies(
                dns_ideal, C6_S0I, xeon, utilization=0.3, frequencies=[], num_jobs=100
            )


class TestSweepStates:
    def test_returns_curve_per_state(self, dns_ideal, xeon):
        curves = sweep_states(
            dns_ideal,
            [C0I_S0I, C6_S0I],
            xeon,
            utilization=0.2,
            num_jobs=400,
            frequency_step=0.2,
            seed=0,
        )
        assert set(curves) == {"C0(i)S0(i)", "C6S0(i)"}

    def test_mapping_labels_are_preserved(self, dns_ideal, xeon):
        curves = sweep_states(
            dns_ideal,
            {"shallow": C0I_S0I, "deep": C6_S3},
            xeon,
            utilization=0.2,
            num_jobs=400,
            frequency_step=0.2,
            seed=0,
        )
        assert set(curves) == {"shallow", "deep"}

    def test_empty_states_rejected(self, dns_ideal, xeon):
        with pytest.raises(ConfigurationError):
            sweep_states(dns_ideal, [], xeon, utilization=0.2)

    def test_callable_without_label_rejected(self, dns_ideal, xeon):
        with pytest.raises(ConfigurationError):
            sweep_states(
                dns_ideal,
                [lambda f: xeon.immediate_sleep_sequence(C6_S3, f)],
                xeon,
                utilization=0.2,
            )

    def test_paired_job_streams_across_states(self, dns_ideal, xeon):
        # The same seed means the same job stream, so the curves differ only
        # through the sleep behaviour; identical wake-free states at the same
        # frequency must then give identical response times.
        curves = sweep_states(
            dns_ideal,
            [C0I_S0I, C6_S0I],
            xeon,
            utilization=0.2,
            num_jobs=500,
            frequencies=[0.8],
            seed=3,
        )
        shallow = curves["C0(i)S0(i)"].points[0]
        deep = curves["C6S0(i)"].points[0]
        # C6S0(i) adds a 1 ms wake-up so its response time is slightly larger
        # but the underlying stream is the same.
        assert deep.mean_response_time >= shallow.mean_response_time
        assert deep.mean_response_time - shallow.mean_response_time < 2e-3
        assert np.isclose(deep.frequency, shallow.frequency)


class TestSweepOracle:
    """The kernel-backed sweep against the per-job loop, and the stability cutoff."""

    def test_curve_matches_reference_loop(self, dns_ideal, xeon):
        kwargs = dict(
            utilization=0.3,
            num_jobs=500,
            frequency_step=0.1,
            seed=0,
        )
        fast = sweep_frequencies(dns_ideal, C6_S0I, xeon, **kwargs)
        # The sweep's own stream: one draw from its seeded generator.
        jobs = generate_jobs(
            dns_ideal, num_jobs=500, utilization=0.3, rng=make_rng(0)
        )
        scaling = ServiceScaling(beta=dns_ideal.cpu_boundedness)
        slow = [
            reference_simulate_trace(
                jobs,
                frequency,
                xeon.immediate_sleep_sequence(C6_S0I, frequency),
                xeon,
                scaling=scaling,
            )
            for frequency in fast.frequencies.tolist()
        ]
        assert list(fast.frequencies) == [result.frequency for result in slow]
        np.testing.assert_allclose(
            fast.powers, [result.average_power for result in slow], rtol=1e-9
        )
        np.testing.assert_allclose(
            fast.normalized_response_times,
            [result.normalized_mean_response_time for result in slow],
            rtol=1e-9,
        )

    def test_stability_cutoff_matches_check_stability(self, dns_ideal, xeon):
        # The sweep and check_stability share MAX_STABLE_UTILIZATION: a point
        # the sweep skips is exactly a point check_stability rejects.
        from repro.exceptions import StabilityError
        from repro.simulation.engine import (
            MAX_STABLE_UTILIZATION,
            check_stability,
            is_stable,
        )
        from repro.simulation.service_scaling import cpu_bound

        utilization = 0.5
        # Effective load lands between the old check_stability cutoff (1.0)
        # and the sweep cutoff: both must now treat it as unstable.
        borderline = utilization / (MAX_STABLE_UTILIZATION + 5e-4)
        assert not is_stable(utilization, borderline, cpu_bound())
        with pytest.raises(StabilityError):
            check_stability(utilization, borderline, cpu_bound())
        curve = sweep_frequencies(
            dns_ideal,
            C6_S0I,
            xeon,
            utilization=utilization,
            frequencies=[borderline, 0.8],
            num_jobs=200,
            seed=0,
        )
        assert list(curve.frequencies) == [0.8]
