"""Executor parity and trace reuse for the campaign engine.

The campaign fan-out runs on the shared executor subsystem
(:data:`repro.concurrency.EXECUTORS`): the "process" executor must leave a
store *byte-identical* to the "serial" one — same cell records, same
merged CSV.  Cell tasks are plain picklable data executed by a
module-level function, which is what makes the process executor possible
at all (REP002).  A campaign is one fan-out (one pool on the process
executor) whose cell tasks write their own records, and the trace reuse
scope around it changes no record.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.campaigns
import repro.campaigns.engine
import repro.concurrency
import repro.workloads.generator
from repro.campaigns import (
    CampaignSpec,
    CampaignStore,
    campaign_results,
    cell_task,
    execute_cell,
    record_cell,
    run_campaign,
)
from repro.campaigns.spec import split_scenario_params
from repro.campaigns.store import make_cell_record
from repro.exceptions import CampaignError, ExecutorError, ExperimentError, ScenarioError
from repro.experiments import campaign_runner, runner
from repro.experiments.scenario_runner import run_scenario


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
            task = cell_task(parity_spec, cell, "store")
            assert pickle.loads(pickle.dumps(task)) == task

    def test_work_functions_are_module_level(self):
        assert pickle.loads(pickle.dumps(execute_cell)) is execute_cell
        assert pickle.loads(pickle.dumps(record_cell)) is record_cell


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

    @pytest.mark.parametrize(
        ("extra", "grid", "message"),
        [
            ({"backend": "reference"}, {}, "campaign spec has unknown keys: ['backend']"),
            ({}, {"backend": ["reference"]}, "has no parameter(s) ['backend']"),
        ],
        ids=["spec-key", "grid-axis"],
    )
    def test_backend_knob_exits_2_without_a_store(
        self, tmp_path, capsys, extra, grid, message
    ):
        # The package has one simulator: a spec that still names a backend
        # is refused before anything is written.
        spec_path = _diurnal_spec(tmp_path, grid)
        spec_path.write_text(json.dumps({**json.loads(spec_path.read_text()), **extra}))
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


def _autoscale_spec(seeds=(0, 1)):
    """``autoscale-diurnal``, ``policy`` x *seeds*, 5 minutes per cell."""
    return CampaignSpec(
        name="autoscale-reuse",
        kind="scenario",
        target="autoscale-diurnal",
        seeds=seeds,
        grid={"policy": ("always-on", "reactive")},
        fixed={"duration_minutes": 5},
    )


def _fail_on_cell_1(task):
    """:func:`execute_cell`, except that cell 1 of :func:`_autoscale_spec` raises."""
    if task.cell == _autoscale_spec().cells()[1]:
        raise RuntimeError("cell 1 fails")
    return execute_cell(task)


@pytest.fixture(scope="module")
def autoscale_serial(tmp_path_factory):
    """The serial store of :func:`_autoscale_spec`."""
    root = tmp_path_factory.mktemp("autoscale-serial")
    assert run_campaign(_autoscale_spec(), root).completed
    return store_bytes(root)


class TestOneFanOut:
    @pytest.mark.parametrize(("max_workers", "width"), [(None, 3), (2, 2), (8, 4)])
    def test_one_pool_per_campaign(
        self, monkeypatch, tmp_path, autoscale_serial, max_workers, width
    ):
        # Without a worker count a process pool is as wide as the machine,
        # and never wider than the campaign.
        monkeypatch.setattr(repro.concurrency.os, "cpu_count", lambda: 3)
        widths = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                widths.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(repro.concurrency, "ProcessPoolExecutor", CountingPool)
        outcome = run_campaign(
            _autoscale_spec(), tmp_path, executor="process", max_workers=max_workers
        )
        assert outcome.completed
        assert widths == [width]
        assert store_bytes(tmp_path) == autoscale_serial

    def test_failing_cell_keeps_its_neighbours_records(
        self, monkeypatch, tmp_path, autoscale_serial
    ):
        spec = _autoscale_spec()
        cells = spec.cells()
        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(repro.campaigns.engine, "execute_cell", _fail_on_cell_1)
        with pytest.raises(RuntimeError, match="cell 1 fails"):
            run_campaign(spec, tmp_path, executor="process", max_workers=2)
        store = CampaignStore(tmp_path)
        assert store.load_cell(cells[0]) is not None
        assert store.load_cell(cells[1]) is None
        monkeypatch.undo()
        assert run_campaign(spec, tmp_path, resume=True).completed
        assert store_bytes(tmp_path) == autoscale_serial


class TestInterrupt:
    def test_sigint_leaves_no_worker_and_resumes_to_the_serial_store(self, tmp_path):
        # Cells long enough that the run is still going when the first
        # record lands.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "schema": "repro.campaign-spec/v1",
                    "name": "interrupted",
                    "kind": "scenario",
                    "target": "autoscale-diurnal",
                    "seeds": [0, 1, 2],
                    "grid": {"policy": ["always-on", "reactive"]},
                    "fixed": {"duration_minutes": 720},
                }
            )
        )
        store = tmp_path / "interrupted"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        argv = [str(spec_path), "--output-dir", str(store)]
        parent = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "run-campaign", *argv,
             "--executor", "process", "--workers", "2"],
            env=env,
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not any((store / "cells").glob("*.json")):
                assert parent.poll() is None, "the campaign ended before its first record"
                assert time.monotonic() < deadline, "no record within 120 s"
                time.sleep(0.005)
            parent.send_signal(signal.SIGINT)
            assert parent.wait(timeout=120) != 0
        finally:
            if parent.poll() is None:
                os.killpg(parent.pid, signal.SIGKILL)
                parent.wait()
        with pytest.raises(ProcessLookupError):
            os.killpg(parent.pid, 0)
        assert not list(store.rglob("*.tmp"))
        assert not (store / "results.csv").exists()
        assert campaign_runner.main([*argv, "--resume"]) == 0
        straight = tmp_path / "straight"
        assert campaign_runner.main([str(spec_path), "--output-dir", str(straight)]) == 0
        assert store_bytes(store) == store_bytes(straight)


class TestTraceReuse:
    def test_store_matches_cells_run_one_at_a_time(self, tmp_path, monkeypatch):
        spec = _autoscale_spec()
        # Written outside any reuse scope: every cell samples its own trace.
        oracle = CampaignStore(tmp_path / "one-at-a-time")
        oracle.initialise(spec, resume=False)
        cells = spec.cells()
        for cell in cells:
            knobs, overrides = split_scenario_params(cell.params)
            payload = run_scenario(
                spec.target,
                seed=cell.seed,
                search=knobs.get("search", spec.search),
                controller=knobs.get("controller"),
                overrides=overrides,
            )
            oracle.write_cell(make_cell_record(spec.name, cell, payload))
        oracle.finalise(spec, cells)
        # The campaign samples each seed's trace once: the policy axis does
        # not read it, so the second cell of every seed reuses the first's.
        samples = []
        real_make_rng = repro.workloads.generator.make_rng

        def counting_make_rng(seed=None):
            samples.append(seed)
            return real_make_rng(seed)

        monkeypatch.setattr(repro.workloads.generator, "make_rng", counting_make_rng)
        outcome = run_campaign(spec, tmp_path / "campaign")
        assert outcome.completed
        assert len(samples) == len(spec.seeds)
        assert store_bytes(tmp_path / "campaign") == store_bytes(tmp_path / "one-at-a-time")
