"""Executor parity for the campaign engine (REP003 ``campaign-executor``).

The campaign fan-out is pinned across the shared executor subsystem: the
"serial" executor is the oracle, and the "process" executor must leave a
*byte-identical* store behind — same cell records, same
merged CSV.  Cell tasks are plain picklable data executed by a
module-level function, which is what makes the process executor possible
at all (REP002).
"""

from __future__ import annotations

import pickle

import pytest

import repro.campaigns
from repro.campaigns import (
    CAMPAIGN_EXECUTORS,
    CampaignStore,
    campaign_results,
    cell_task,
    execute_cell,
    run_campaign,
)
from repro.exceptions import CampaignError
from repro.experiments import runner


def store_bytes(root):
    """Every file in a campaign store, relative path -> bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def parity_spec():
    # table5 is the cheapest multi-cell campaign (three workload cells).
    return runner.CAMPAIGNS["table5"]


@pytest.fixture(scope="module")
def serial_oracle(tmp_path_factory, parity_spec):
    root = tmp_path_factory.mktemp("campaign-serial-oracle")
    outcome = run_campaign(parity_spec, root, executor="serial")
    assert outcome.completed
    return store_bytes(root)


class TestExecutorParity:
    def test_selector_matches_registry(self):
        assert CAMPAIGN_EXECUTORS == ("serial", "process")
        assert repro.campaigns.CAMPAIGN_EXECUTORS is CAMPAIGN_EXECUTORS

    def test_process_executor_matches_serial_oracle(
        self, serial_oracle, parity_spec, tmp_path
    ):
        outcome = run_campaign(
            parity_spec, tmp_path, executor="process", max_workers=2
        )
        assert outcome.completed
        assert store_bytes(tmp_path) == serial_oracle


class TestPicklability:
    def test_cell_tasks_round_trip_through_pickle(self, parity_spec):
        for cell in parity_spec.cells():
            task = cell_task(parity_spec, cell)
            assert pickle.loads(pickle.dumps(task)) == task

    def test_execute_cell_is_module_level(self):
        assert pickle.loads(pickle.dumps(execute_cell)) is execute_cell


class TestRunCampaign:
    def test_negative_max_cells_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="max_cells"):
            run_campaign(runner.CAMPAIGNS["table2"], tmp_path, max_cells=-1)

    def test_interrupt_then_resume_partitions_cells(self, parity_spec, tmp_path):
        first = run_campaign(parity_spec, tmp_path, max_cells=1)
        assert len(first.executed) == 1
        assert not first.completed
        assert first.results_path is None
        assert not CampaignStore(tmp_path).results_path.exists()
        second = run_campaign(parity_spec, tmp_path, resume=True)
        assert second.skipped == first.executed
        assert len(second.executed) == parity_spec.num_cells - 1
        assert second.completed
        assert second.results_path is not None
        assert second.results_path.exists()

    def test_campaign_results_requires_a_complete_store(self, parity_spec, tmp_path):
        run_campaign(parity_spec, tmp_path, max_cells=1)
        with pytest.raises(CampaignError, match="incomplete"):
            campaign_results(CampaignStore(tmp_path), parity_spec)
