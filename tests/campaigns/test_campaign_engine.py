"""Executor parity for the campaign engine.

The campaign fan-out runs on the shared executor subsystem
(:data:`repro.concurrency.EXECUTORS`): the "process" executor must leave a
store *byte-identical* to the "serial" one — same cell records, same
merged CSV.  Cell tasks are plain picklable data executed by a
module-level function, which is what makes the process executor possible
at all (REP002).
"""

from __future__ import annotations

import json
import pickle
import re

import pytest

import repro.campaigns
import repro.campaigns.engine
from repro.campaigns import (
    CampaignStore,
    campaign_results,
    cell_task,
    execute_cell,
    run_campaign,
)
from repro.exceptions import CampaignError, ExecutorError, ExperimentError, ScenarioError
from repro.experiments import campaign_runner, runner


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
    def test_executor_names_are_the_concurrency_tuple(self, tmp_path, capsys):
        assert not hasattr(repro.campaigns, "CAMPAIGN_EXECUTORS")
        assert not hasattr(repro.campaigns.engine, "CAMPAIGN_EXECUTORS")
        argv = ["table5", "--output-dir", str(tmp_path / "store"), "--executor", "thread"]
        with pytest.raises(SystemExit) as exit_info:
            campaign_runner.main(argv)
        assert exit_info.value.code == 2
        assert "(choose from 'serial', 'process')" in capsys.readouterr().err

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


def _diurnal_spec(tmp_path, grid):
    """A one-cell diurnal scenario campaign spec file over *grid*."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "schema": "repro.campaign-spec/v1",
                "name": "bad-cell",
                "kind": "scenario",
                "target": "diurnal",
                "grid": grid,
            }
        )
    )
    return spec_path


class TestRunCampaign:
    def test_negative_max_cells_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="max_cells"):
            run_campaign(runner.CAMPAIGNS["table2"], tmp_path, max_cells=-1)

    @pytest.mark.parametrize("executor", [None, "process"])
    def test_zero_workers_rejected_before_the_store(self, executor, tmp_path):
        with pytest.raises(ExecutorError, match="at least 1"):
            run_campaign(
                runner.CAMPAIGNS["table2"], tmp_path, executor=executor, max_workers=0
            )
        assert not CampaignStore(tmp_path).campaign_path.exists()

    @pytest.mark.parametrize(
        ("changes", "error", "message"),
        [
            ({"target": "figure0"}, ExperimentError, "unknown experiment 'figure0'"),
            (
                {"grid": {"workload": (("dns",),)}},
                CampaignError,
                "unexpected keyword argument 'workload'",
            ),
            (
                {"kind": "scenario", "target": "diurnl", "grid": {}},
                ScenarioError,
                "unknown scenario 'diurnl'",
            ),
            (
                {"kind": "scenario", "target": "diurnal", "grid": {"peak": (0.5,)}},
                ScenarioError,
                "has no parameter(s) ['peak']",
            ),
        ],
        ids=["experiment-target", "experiment-parameter", "scenario-target", "scenario-parameter"],
    )
    def test_typo_rejected_before_the_store(self, tmp_path, changes, error, message):
        spec = runner.CAMPAIGNS["figure1"].replace(**changes)
        with pytest.raises(error, match=re.escape(message)):
            run_campaign(spec, tmp_path / "store")
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        ("grid", "message"),
        [
            ({"controller": ["reactiv"]}, "unknown right-sizing policy 'reactiv'"),
            ({"duration_minutes": ["two"]}, "'duration_minutes' of scenario 'diurnal' "
             "expects a number"),
            ({"duration_minutes": [-5]}, "duration_minutes must be at least 1, got -5"),
            ({"peak_utilization": [0.05]}, "need 0 < trough_utilization <= "
             "peak_utilization <= 0.95, got [0.08, 0.05]"),
        ],
        ids=["controller-value", "parameter-type", "parameter-range", "parameters-order"],
    )
    def test_bad_scenario_cell_exits_2_without_a_store(
        self, tmp_path, capsys, grid, message
    ):
        spec_path = _diurnal_spec(tmp_path, grid)
        store = tmp_path / "store"
        assert campaign_runner.main([str(spec_path), "--output-dir", str(store)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message in lines[0]
        assert not store.exists()

    def test_corrected_range_reruns_into_the_same_directory(self, tmp_path, capsys):
        # The failed run wrote nothing, so the corrected spec is not refused
        # as "a different spec" of the same store.
        store = tmp_path / "store"
        argv = ["--output-dir", str(store)]
        bad = _diurnal_spec(tmp_path, {"duration_minutes": [-5]})
        assert campaign_runner.main([str(bad), *argv]) == 2
        assert "must be at least 1, got -5" in capsys.readouterr().err
        good = _diurnal_spec(tmp_path, {"duration_minutes": [5]})
        assert campaign_runner.main([str(good), *argv]) == 0
        assert CampaignStore(store).results_path.exists()

    def test_unreadable_trace_csv_exits_2_without_a_store(self, tmp_path, capsys):
        # The trace rule loads the CSV, so the cell is refused before the
        # store is initialised.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "schema": "repro.campaign-spec/v1",
                    "name": "missing-trace",
                    "kind": "scenario",
                    "target": "trace-replay",
                    "grid": {"trace": [str(tmp_path / "missing.csv")]},
                }
            )
        )
        store = tmp_path / "store"
        assert campaign_runner.main([str(spec_path), "--output-dir", str(store)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot read trace ")
        assert "missing.csv" in lines[0]
        assert not store.exists()

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
