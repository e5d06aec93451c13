"""Tests for the per-component power models (Table 2)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.power.components import (
    ComponentInventory,
    ComponentMode,
    ComponentPower,
    CpuPowerModel,
    atom_component_inventory,
    xeon_component_inventory,
)
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import ACTIVE, LOW_POWER_STATES, CpuState


class TestComponentPower:
    def test_power_multiplies_by_count(self):
        ram = ComponentPower("RAM", 4.0, 2.0, 2.0, 2.0, 0.5, count=6)
        assert ram.power(ComponentMode.OPERATING) == pytest.approx(24.0)
        assert ram.power(ComponentMode.DEEPER_SLEEP) == pytest.approx(3.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ConfigurationError):
            ComponentPower("bad", -1.0, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            ComponentPower("bad", 1.0, 1.0, 1.0, 1.0, 1.0, count=0)

    def test_per_unit_power_by_mode_has_all_modes(self):
        component = ComponentPower("X", 5.0, 4.0, 3.0, 2.0, 1.0)
        table = component.per_unit_power_by_mode()
        assert set(table) == set(ComponentMode)
        assert table[ComponentMode.SLEEP] == 3.0


class TestCpuPowerModel:
    def test_xeon_defaults_match_table2(self):
        cpu = CpuPowerModel()
        assert cpu.power(CpuState.C0_ACTIVE, 1.0) == pytest.approx(130.0)
        assert cpu.power(CpuState.C0_IDLE, 1.0) == pytest.approx(75.0)
        assert cpu.power(CpuState.C1, 1.0) == pytest.approx(47.0)
        assert cpu.power(CpuState.C3, 1.0) == pytest.approx(22.0)
        assert cpu.power(CpuState.C6, 1.0) == pytest.approx(15.0)

    def test_active_power_scales_cubically(self):
        cpu = CpuPowerModel()
        assert cpu.power(CpuState.C0_ACTIVE, 0.5) == pytest.approx(130.0 * 0.125)

    def test_idle_power_scales_cubically(self):
        cpu = CpuPowerModel()
        assert cpu.power(CpuState.C0_IDLE, 0.5) == pytest.approx(75.0 * 0.125)

    def test_halt_power_scales_quadratically(self):
        cpu = CpuPowerModel()
        assert cpu.power(CpuState.C1, 0.5) == pytest.approx(47.0 * 0.25)

    def test_deep_states_are_frequency_independent(self):
        cpu = CpuPowerModel()
        assert cpu.power(CpuState.C3, 0.2) == cpu.power(CpuState.C3, 1.0)
        assert cpu.power(CpuState.C6, 0.2) == cpu.power(CpuState.C6, 1.0)

    def test_zero_frequency_zeroes_dynamic_power(self):
        cpu = CpuPowerModel()
        assert cpu.power(CpuState.C0_ACTIVE, 0.0) == 0.0

    def test_rejects_out_of_range_frequency(self):
        cpu = CpuPowerModel()
        with pytest.raises(ConfigurationError):
            cpu.power(CpuState.C0_ACTIVE, 1.5)
        with pytest.raises(ConfigurationError):
            cpu.power(CpuState.C0_ACTIVE, -0.1)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ConfigurationError):
            CpuPowerModel(active_coefficient=-1.0)


class TestXeonInventory:
    @pytest.fixture(scope="class")
    def inventory(self) -> ComponentInventory:
        return xeon_component_inventory()

    def test_platform_totals_match_table2(self, inventory):
        assert inventory.platform_power(ComponentMode.OPERATING) == pytest.approx(120.0)
        assert inventory.platform_power(ComponentMode.IDLE) == pytest.approx(60.5)
        assert inventory.platform_power(ComponentMode.SLEEP) == pytest.approx(60.5)
        assert inventory.platform_power(ComponentMode.DEEP_SLEEP) == pytest.approx(60.5)
        assert inventory.platform_power(ComponentMode.DEEPER_SLEEP) == pytest.approx(13.1)

    def test_ram_total_matches_table2(self, inventory):
        ram = inventory.component("ram")
        assert ram.power(ComponentMode.OPERATING) == pytest.approx(23.1)
        assert ram.power(ComponentMode.DEEPER_SLEEP) == pytest.approx(3.0)

    def test_component_lookup_is_case_insensitive(self, inventory):
        assert inventory.component("PSU").name == "PSU"
        assert inventory.component("psu").name == "PSU"

    def test_unknown_component_raises(self, inventory):
        with pytest.raises(ConfigurationError):
            inventory.component("GPU")

    def test_table_includes_platform_total_row(self, inventory):
        table = inventory.table()
        assert "Platform total" in table
        assert table["Platform total"]["operating"] == pytest.approx(120.0)

    def test_six_component_categories(self, inventory):
        assert len(inventory.components) == 6


class TestAtomInventory:
    def test_atom_platform_dominates_cpu(self):
        inventory = atom_component_inventory()
        cpu_peak = inventory.cpu.power(CpuState.C0_ACTIVE, 1.0)
        platform_idle = inventory.platform_power(ComponentMode.IDLE)
        assert cpu_peak < platform_idle

    def test_atom_draws_less_than_xeon(self):
        atom = atom_component_inventory()
        xeon = xeon_component_inventory()
        for mode in ComponentMode:
            assert atom.platform_power(mode) < xeon.platform_power(mode)


def _summed_platform_power(inventory, mode):
    """Reference: the plain per-call sum over the components."""
    return sum(component.power(mode) for component in inventory.components)


class TestMemoisedPlatformPower:
    MODELS = (xeon_power_model, atom_power_model)

    @pytest.mark.parametrize("model", MODELS)
    def test_table_equals_summed_form_bit_for_bit(self, model, monkeypatch):
        power = model()
        frequencies = [index / 20 for index in range(21)]
        states = (ACTIVE, *LOW_POWER_STATES)
        for mode in ComponentMode:
            assert power.inventory.platform_power(mode) == _summed_platform_power(
                power.inventory, mode
            )
        tabled = [power.system_power(s, f) for s in states for f in frequencies]
        monkeypatch.setattr(
            ComponentInventory, "platform_power", _summed_platform_power
        )
        summed = [power.system_power(s, f) for s in states for f in frequencies]
        assert tabled == summed

    def test_identity_and_pickling_stay_field_based(self):
        inventory = xeon_component_inventory()
        clone = pickle.loads(pickle.dumps(inventory))
        assert clone == inventory
        assert hash(clone) == hash(inventory)
        assert repr(clone) == repr(inventory)
        assert "_platform_powers" not in repr(inventory)
        assert set(inventory.__getstate__()) == {"cpu", "components", "name"}
        for mode in ComponentMode:
            assert clone.platform_power(mode) == inventory.platform_power(mode)

    def test_replace_recomputes_the_table(self):
        inventory = xeon_component_inventory()
        assert inventory.platform_power(ComponentMode.OPERATING) == pytest.approx(120.0)
        fewer = dataclasses.replace(inventory, components=inventory.components[:1])
        assert fewer.platform_power(ComponentMode.OPERATING) == pytest.approx(7.8)
