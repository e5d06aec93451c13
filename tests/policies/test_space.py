"""Tests for candidate policy spaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.policies.space import (
    PolicySpace,
    dvfs_only_space,
    full_space,
    single_state_space,
)
from repro.power.states import C0I_S0I, C3_S0I, C6_S3, LOW_POWER_STATES
from repro.simulation.service_scaling import memory_bound


class TestCandidateFrequencies:
    def test_frequencies_are_stable(self, xeon):
        space = full_space(xeon, frequency_step=0.05)
        frequencies = space.candidate_frequencies(0.4)
        assert np.all(frequencies > 0.4)
        assert frequencies[-1] == pytest.approx(1.0)

    def test_full_speed_always_included(self, xeon):
        space = PolicySpace(power_model=xeon, frequencies=(0.3, 0.6))
        assert 1.0 in space.candidate_frequencies(0.2)

    def test_explicit_frequency_list_filtered(self, xeon):
        space = PolicySpace(power_model=xeon, frequencies=(0.3, 0.6, 0.9))
        assert list(space.candidate_frequencies(0.5)) == [0.6, 0.9, 1.0]

    def test_pstate_grid(self, xeon):
        space = PolicySpace(power_model=xeon, use_pstates=True, pstate_levels=5)
        frequencies = space.candidate_frequencies(0.0)
        assert len(frequencies) == 5

    def test_memory_bound_scaling_allows_any_frequency(self, xeon):
        space = PolicySpace(
            power_model=xeon, frequency_step=0.2, scaling=memory_bound()
        )
        frequencies = space.candidate_frequencies(0.7)
        assert frequencies[0] < 0.7  # stability does not depend on f

    def test_overload_falls_back_to_full_speed(self, xeon):
        space = PolicySpace(power_model=xeon, frequencies=(0.5,))
        assert list(space.candidate_frequencies(0.95)) == [1.0]

    def test_invalid_utilization_rejected(self, xeon):
        space = full_space(xeon)
        with pytest.raises(ConfigurationError):
            space.candidate_frequencies(1.0)


class TestCandidatePolicies:
    def test_size_is_states_times_frequencies(self, xeon):
        space = PolicySpace(
            power_model=xeon, states=(C0I_S0I, C6_S3), frequencies=(0.6, 0.8)
        )
        policies = space.candidate_policies(0.3)
        # frequencies 0.6, 0.8 plus the always-added 1.0 -> 3 x 2 states.
        assert len(policies) == 6

    def test_policies_respect_shallow_state_frequency_dependence(self, xeon):
        space = PolicySpace(power_model=xeon, states=(C0I_S0I,), frequencies=(0.5,))
        policies = space.candidate_policies(0.2)
        by_frequency = {p.frequency: p for p in policies}
        assert by_frequency[0.5].sleep[0].power < by_frequency[1.0].sleep[0].power

    def test_dvfs_only_space_has_no_real_sleep(self, xeon):
        space = dvfs_only_space(xeon, frequencies=(0.5, 0.8))
        policies = space.candidate_policies(0.2)
        assert all(p.sleep[0].wake_up_latency == 0.0 for p in policies)
        assert all(
            p.sleep[0].power == pytest.approx(xeon.active_power(p.frequency))
            for p in policies
        )

    def test_single_state_space(self, xeon):
        space = single_state_space(xeon, C3_S0I, frequencies=(0.5,))
        policies = space.candidate_policies(0.2)
        assert {p.sleep_state_name for p in policies} == {"C3S0(i)"}

    def test_full_space_uses_all_states(self, xeon):
        space = full_space(xeon, frequencies=(0.9,))
        policies = space.candidate_policies(0.2)
        assert {p.sleep_state_name for p in policies} == {
            state.name for state in LOW_POWER_STATES
        }

    def test_size_helper(self, xeon):
        space = PolicySpace(power_model=xeon, states=(C6_S3,), frequencies=(0.6,))
        assert space.size(0.2) == len(space.candidate_policies(0.2))

    def test_validation(self, xeon):
        with pytest.raises(ConfigurationError):
            PolicySpace(power_model=xeon, states=())
        with pytest.raises(ConfigurationError):
            PolicySpace(power_model=xeon, frequencies=())
