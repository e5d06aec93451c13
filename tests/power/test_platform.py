"""Tests for the whole-server power model (CPU + platform)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.power.components import CpuPowerModel, xeon_component_inventory
from repro.power.platform import ServerPowerModel, atom_power_model, xeon_power_model
from repro.power.sleep import SleepSequence, SleepStateSpec
from repro.power.states import (
    ACTIVE,
    C0I_S0I,
    C1_S0I,
    C3_S0I,
    C6_S0I,
    C6_S3,
    LOW_POWER_STATES,
    CpuState,
    PlatformState,
)


class TestXeonSystemPower:
    def test_peak_power_is_250_watts(self, xeon):
        assert xeon.peak_power() == pytest.approx(250.0)

    def test_active_power_has_cubic_cpu_term(self, xeon):
        # 130 * 0.5^3 + 120 platform active.
        assert xeon.active_power(0.5) == pytest.approx(130.0 * 0.125 + 120.0)

    def test_operating_idle_power_at_full_frequency(self, xeon):
        assert xeon.system_power(C0I_S0I, 1.0) == pytest.approx(75.0 + 60.5)

    def test_operating_idle_power_tracks_frequency(self, xeon):
        assert xeon.system_power(C0I_S0I, 0.5) == pytest.approx(75.0 * 0.125 + 60.5)

    def test_halt_power(self, xeon):
        assert xeon.system_power(C1_S0I, 1.0) == pytest.approx(47.0 + 60.5)

    def test_c3_power(self, xeon):
        assert xeon.system_power(C3_S0I, 1.0) == pytest.approx(22.0 + 60.5)

    def test_c6_power(self, xeon):
        assert xeon.system_power(C6_S0I, 1.0) == pytest.approx(15.0 + 60.5)

    def test_deepest_state_power(self, xeon):
        assert xeon.system_power(C6_S3, 1.0) == pytest.approx(15.0 + 13.1)

    def test_deeper_states_draw_less(self, xeon):
        powers = [xeon.system_power(state, 1.0) for state in LOW_POWER_STATES]
        assert powers == sorted(powers, reverse=True)

    def test_active_power_always_exceeds_idle(self, xeon):
        for frequency in (0.3, 0.6, 1.0):
            assert xeon.active_power(frequency) > xeon.idle_power(frequency)

    def test_platform_power_s3(self, xeon):
        assert xeon.platform_power(PlatformState.S3, CpuState.C6) == pytest.approx(13.1)

    def test_platform_power_idle_never_uses_deeper_sleep_column(self, xeon):
        # Even with the CPU in C6, an S0(i) platform keeps RAM etc. powered.
        assert xeon.platform_power(PlatformState.S0_IDLE, CpuState.C6) == pytest.approx(60.5)


class TestWakeUpLatencies:
    def test_defaults_match_paper(self, xeon):
        assert xeon.wake_up_latency(C6_S3) == pytest.approx(1.0)
        assert xeon.wake_up_latency(C6_S0I) == pytest.approx(1e-3)
        assert xeon.wake_up_latency(C0I_S0I) == 0.0

    def test_custom_latencies_override_defaults(self):
        model = xeon_power_model(wake_up_latencies={C6_S3: 5.0})
        assert model.wake_up_latency(C6_S3) == pytest.approx(5.0)
        # Unspecified states fall back to the paper defaults.
        assert model.wake_up_latency(C6_S0I) == pytest.approx(1e-3)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(
                inventory=xeon_power_model().inventory,
                wake_up_latencies={C6_S3: -1.0},
            )


class TestSleepSpecConstruction:
    def test_sleep_state_spec_fields(self, xeon):
        spec = xeon.sleep_state_spec(C6_S3, entry_delay=2.0)
        assert spec.power == pytest.approx(28.1)
        assert spec.entry_delay == 2.0
        assert spec.wake_up_latency == pytest.approx(1.0)

    def test_shallow_spec_power_depends_on_frequency(self, xeon):
        low = xeon.sleep_state_spec(C0I_S0I, frequency=0.4)
        high = xeon.sleep_state_spec(C0I_S0I, frequency=1.0)
        assert low.power < high.power

    def test_active_state_rejected(self, xeon):
        with pytest.raises(ConfigurationError):
            xeon.sleep_state_spec(ACTIVE)

    def test_immediate_sequence_has_zero_delay(self, xeon):
        sequence = xeon.immediate_sleep_sequence(C3_S0I)
        assert sequence.first_entry_delay == 0.0
        assert len(sequence) == 1

    def test_multi_state_sequence(self, xeon):
        sequence = xeon.sleep_sequence([C0I_S0I, C6_S3], [0.0, 30.0])
        assert len(sequence) == 2
        assert sequence.deepest.name == "C6S3"
        assert sequence[1].entry_delay == 30.0

    def test_sequence_length_mismatch_rejected(self, xeon):
        with pytest.raises(ConfigurationError):
            xeon.sleep_sequence([C0I_S0I, C6_S3], [0.0])

    def test_full_throttle_back_sequence_uses_all_states(self, xeon):
        sequence = xeon.full_throttle_back_sequence([0.0, 0.1, 0.2, 0.3, 0.4])
        assert len(sequence) == len(LOW_POWER_STATES)
        assert [s.name for s in sequence] == [s.name for s in LOW_POWER_STATES]

    def test_low_power_state_table_contains_all_states(self, xeon):
        table = xeon.low_power_state_table()
        assert set(table) == {state.name for state in LOW_POWER_STATES}
        assert table["C6S3"]["power_w"] == pytest.approx(28.1)


class TestAtomModel:
    def test_atom_peak_below_xeon(self, xeon, atom):
        assert atom.peak_power() < xeon.peak_power() / 3

    def test_atom_platform_dominates_cpu_dynamic_range(self, atom):
        dynamic_range = atom.active_power(1.0) - atom.active_power(0.3)
        idle_floor = atom.idle_power(0.3)
        assert dynamic_range < idle_floor

    def test_atom_name(self, atom):
        assert atom.name == "atom"
        assert atom_power_model().name == "atom"


class _HashableLatencies(dict):
    """A latency mapping that hashes, so a whole model can be hashed."""

    def __hash__(self):
        return hash(frozenset(self.items()))


def _filled(model: ServerPowerModel) -> ServerPowerModel:
    """*model* after building every immediate sequence at a few frequencies."""
    for state in LOW_POWER_STATES:
        for frequency in (0.3, 0.75, 1.0):
            model.immediate_sleep_sequence(state, frequency)
    return model


class TestStateTable:
    """The per-state table is derived state, bounded by the number of states."""

    def test_absent_from_repr_eq_and_pickled_state(self):
        fresh, used = xeon_power_model(), _filled(xeon_power_model())
        assert used._state_table and not fresh._state_table
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert "_state_table" not in repr(used)
        assert set(used.__getstate__()) == {
            "inventory", "dvfs", "wake_up_latencies", "name",
        }

    def test_absent_from_hash(self):
        def model():
            return ServerPowerModel(
                inventory=xeon_component_inventory(),
                wake_up_latencies=_HashableLatencies(
                    xeon_power_model().wake_up_latencies
                ),
            )

        assert hash(_filled(model())) == hash(model())

    def test_rebuilt_after_unpickling(self):
        used = _filled(xeon_power_model())
        clone = pickle.loads(pickle.dumps(used))
        assert clone == used
        assert clone._state_table == {}
        for state in LOW_POWER_STATES:
            for frequency in (0.3, 1.0):
                assert clone.immediate_sleep_sequence(
                    state, frequency
                ) == used.immediate_sleep_sequence(state, frequency)
        assert set(clone._state_table) == set(LOW_POWER_STATES)

    def test_replace_starts_a_fresh_table(self):
        used = _filled(xeon_power_model())
        slower = dataclasses.replace(
            used, wake_up_latencies={**used.wake_up_latencies, C6_S3: 4.0}
        )
        assert slower._state_table == {}
        assert slower.sleep_state_spec(C6_S3).wake_up_latency == 4.0
        assert used.sleep_state_spec(C6_S3).wake_up_latency == pytest.approx(1.0)

    @pytest.mark.parametrize("factory", [xeon_power_model, atom_power_model])
    def test_at_most_one_entry_per_state(self, factory):
        model = _filled(factory())
        for _ in range(3):
            model.sleep_sequence([C0I_S0I, C6_S3], [0.0, 2.0], 0.6)
            model.sleep_state_spec(C1_S0I, 0.5, 0.9)
        assert set(model._state_table) == set(LOW_POWER_STATES)

    @pytest.mark.parametrize("factory", [xeon_power_model, atom_power_model])
    def test_specs_equal_the_summed_system_power(self, factory):
        model = factory()
        for state in LOW_POWER_STATES:
            for frequency in (0.05, 0.3, 0.5, 0.8, 1.0):
                for delay in (0.0, 1.5):
                    spec = model.sleep_state_spec(state, delay, frequency)
                    assert spec == SleepStateSpec(
                        state=state,
                        power=model.system_power(state, frequency),
                        entry_delay=delay,
                        wake_up_latency=model.wake_up_latency(state),
                    )
                sequence = model.immediate_sleep_sequence(state, frequency)
                assert sequence == SleepSequence(
                    [model.sleep_state_spec(state, 0.0, frequency)]
                )
                assert sequence.name == state.name

    def test_constant_cpu_states_share_one_sequence(self, xeon):
        for state in (C3_S0I, C6_S0I, C6_S3):
            assert xeon.immediate_sleep_sequence(
                state, 0.4
            ) is xeon.immediate_sleep_sequence(state, 1.0)
        for state in (C0I_S0I, C1_S0I):
            low = xeon.immediate_sleep_sequence(state, 0.4)
            assert low != xeon.immediate_sleep_sequence(state, 1.0)

    def test_custom_cpu_model_shares_nothing(self):
        class FlatCpu(CpuPowerModel):
            def power(self, state, frequency=1.0):
                return super().power(state, frequency) * (1.0 + frequency)

        model = ServerPowerModel(
            inventory=dataclasses.replace(xeon_component_inventory(), cpu=FlatCpu())
        )
        low = model.immediate_sleep_sequence(C6_S3, 0.5)
        assert low[0].power == model.system_power(C6_S3, 0.5)
        assert low != model.immediate_sleep_sequence(C6_S3, 1.0)

    def test_bad_frequency_still_rejected_for_constant_states(self, xeon):
        with pytest.raises(ConfigurationError):
            xeon.immediate_sleep_sequence(C6_S3, 1.5)
        with pytest.raises(ConfigurationError):
            xeon.sleep_state_spec(C3_S0I, 0.0, -0.1)

    def test_active_state_never_enters_the_table(self):
        model = xeon_power_model()
        with pytest.raises(ConfigurationError):
            model.immediate_sleep_sequence(ACTIVE)
        assert model._state_table == {}
