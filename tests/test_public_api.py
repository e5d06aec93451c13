"""Tests of the top-level public API surface."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert missing == []

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_key_entry_points_present(self):
        for name in (
            "SleepScaleRuntime",
            "PolicyManager",
            "AnalyticPolicyManager",
            "ServerFarm",
            "sleepscale_strategy",
            "figure9_strategies",
            "xeon_power_model",
            "dns_workload",
            "simulate_workload",
        ):
            assert name in repro.__all__

    @pytest.mark.parametrize(
        "module",
        [
            "repro.power",
            "repro.workloads",
            "repro.simulation",
            "repro.analytic",
            "repro.policies",
            "repro.prediction",
            "repro.core",
            "repro.cluster",
            "repro.experiments",
        ],
    )
    def test_subpackages_import_and_export_cleanly(self, module):
        imported = importlib.import_module(module)
        exported = getattr(imported, "__all__", [])
        missing = [name for name in exported if not hasattr(imported, name)]
        assert missing == []

    def test_docstring_quickstart_mentions_runtime(self):
        assert "SleepScaleRuntime" in (repro.__doc__ or "")
