"""Figure-as-campaign parity: campaign cells == the direct experiment run.

The migration contract for the campaign refactor: every registered
campaign, run cell by cell, must reproduce exactly the rows the direct
``run_experiment`` call produces — at fast-mode size, for every
``figure*``/``table*``/``ablation-*`` decomposition and for the scenario
campaign.  Cells are concatenated in cell order; for figure6 the direct
loop interleaves its axes differently, so the comparison is as a
multiset (same rows, cell-major order).
"""

from __future__ import annotations

import json

import pytest

from repro.campaigns import CampaignStore, campaign_results, run_campaign
from repro.campaigns.spec import canonical_json, split_scenario_params
from repro.experiments import runner
from repro.experiments.base import ExperimentConfig
from repro.experiments.report import jsonify_rows
from repro.experiments.scenario_runner import run_scenario

#: Reduced sizing shared by the campaign spec and the direct run.
TINY = {"num_jobs": 300, "frequency_step": 0.2}

#: Campaigns whose cell decomposition reorders rows relative to the
#: direct loop (same rows, different interleaving).
UNORDERED = {"figure6"}

EXPERIMENT_CAMPAIGNS = [
    name for name, spec in runner.CAMPAIGNS.items() if spec.kind == "experiment"
]


@pytest.mark.parametrize("name", EXPERIMENT_CAMPAIGNS)
def test_campaign_cells_reproduce_direct_rows(name, tmp_path):
    spec = runner.CAMPAIGNS[name].replace(**TINY)
    assert len(spec.seeds) == 1

    outcome = run_campaign(spec, tmp_path, executor="serial")
    assert outcome.completed
    records = campaign_results(CampaignStore(tmp_path), spec)
    cell_rows = [row for record in records for row in record["result"]["rows"]]

    config = ExperimentConfig(fast=spec.fast, seed=spec.seeds[0], **TINY)
    direct_rows = jsonify_rows(runner.run_experiment(spec.target, config).rows)

    if name in UNORDERED:
        assert sorted(cell_rows, key=canonical_json) == sorted(
            direct_rows, key=canonical_json
        )
    else:
        assert cell_rows == direct_rows


def test_scenario_campaign_cells_reproduce_direct_reports(tmp_path):
    spec = runner.CAMPAIGNS["scenario-diurnal"]
    assert spec.kind == "scenario"

    outcome = run_campaign(spec, tmp_path, executor="serial")
    assert outcome.completed
    records = campaign_results(CampaignStore(tmp_path), spec)

    for cell, record in zip(spec.cells(), records, strict=True):
        knobs, overrides = split_scenario_params(cell.params)
        direct = run_scenario(
            spec.target,
            seed=cell.seed,
            search=knobs.get("search", spec.search),
            controller=knobs.get("controller"),
            overrides=overrides,
        )
        assert record["result"] == json.loads(json.dumps(direct))


def test_every_registered_campaign_targets_a_registered_surface():
    for name, spec in runner.CAMPAIGNS.items():
        assert name == spec.name
        if spec.kind == "experiment":
            assert spec.target in runner.EXPERIMENTS, name
