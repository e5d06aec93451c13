"""Campaign execution: fan cells out, persist records, resume, merge.

:func:`run_campaign` is the one entry point: it pins the store to the
spec, enumerates the cells, skips the ones whose records are already
trusted (``resume=True``), and runs the rest in one fan-out on an executor
from the shared :mod:`repro.concurrency` subsystem.  Cell tasks are plain
picklable data (:class:`CellTask`) executed by a module-level function,
:func:`record_cell`, which runs the cell and writes its record in the
process that ran it — so the process executor works exactly like the
serial oracle, and the cell *records* are byte-identical whichever
executor ran them (pinned by ``tests/campaigns/test_campaign_engine.py``).

Records are persisted cell by cell as cells finish, so an interruption
at any point leaves a valid partial store holding every finished cell; the
merged ``results.csv`` is only written when every cell of the campaign has
a record, and is rebuilt deterministically from the records alone.
"""

from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path
from typing import Any

from repro.concurrency import Executor, resolve_executor
from repro.exceptions import CampaignError
from repro.campaigns.spec import (
    KIND_EXPERIMENT,
    CampaignCell,
    CampaignSpec,
    split_scenario_params,
)
from repro.campaigns.store import CampaignStore, make_cell_record
from repro.workloads.generator import trace_reuse


@dataclasses.dataclass(frozen=True)
class CellTask:
    """Everything one worker needs to run and record one cell (picklable data)."""

    cell: CampaignCell
    campaign: str
    root: Path
    fast: bool
    num_jobs: int | None
    frequency_step: float | None
    search: str


def cell_task(spec: CampaignSpec, cell: CampaignCell, root: str | Path) -> CellTask:
    """The :class:`CellTask` for *cell* under *spec*, recording into *root*."""
    return CellTask(
        cell=cell,
        campaign=spec.name,
        root=Path(root),
        fast=spec.fast,
        num_jobs=spec.num_jobs,
        frequency_step=spec.frequency_step,
        search=spec.search,
    )


def execute_cell(task: CellTask) -> dict[str, Any]:
    """Run one cell and return its JSON-ready result payload.

    Imports are deferred: the experiment registry imports every figure
    module, and pulling that into this module's import graph would create a
    cycle (figure modules declare their campaigns with
    :mod:`repro.campaigns.spec`).
    """
    cell = task.cell
    if cell.kind == KIND_EXPERIMENT:
        from repro.experiments.base import ExperimentConfig
        from repro.experiments.report import experiment_payload
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig(
            fast=task.fast,
            seed=cell.seed,
            num_jobs=task.num_jobs,
            frequency_step=task.frequency_step,
        )
        result = run_experiment(cell.target, config, **cell.params)
        return experiment_payload(result)
    from repro.experiments.scenario_runner import run_scenario

    knobs, overrides = split_scenario_params(cell.params)
    return run_scenario(
        cell.target,
        seed=cell.seed,
        search=knobs.get("search", task.search),
        controller=knobs.get("controller"),
        overrides=overrides,
    )


def record_cell(task: CellTask) -> str:
    """Run one cell, persist its record and return its cell ID.

    The executor's work function: module-level and lambda-free so the
    process executor can ship it (REP002).  Every record has its own file
    and temp file, so workers writing side by side never collide.
    """
    payload = execute_cell(task)
    CampaignStore(task.root).write_cell(make_cell_record(task.campaign, task.cell, payload))
    return task.cell.cell_id


def _check_cells(spec: CampaignSpec, cells: list[CampaignCell]) -> None:
    """Check the target and every cell's parameters against the registry.

    The same checks a cell would fail at run time, made up front: an
    experiment's parameter names, or a scenario's knob values and declared
    parameter names, types and range rules (:meth:`Scenario.resolve`,
    which builds nothing; a trace CSV is loaded by its rule, so an
    unreadable one fails here too).  Imports are deferred for the reason
    :func:`execute_cell` gives.
    """
    if spec.kind == KIND_EXPERIMENT:
        from repro.experiments.runner import _experiment_runner

        signature = inspect.signature(_experiment_runner(spec.target))
        for cell in cells:
            try:
                signature.bind(None, **cell.params)
            except TypeError as error:
                raise CampaignError(
                    f"experiment {spec.target!r} cannot take the cell parameters: {error}"
                ) from error
        return
    from repro.scenarios import get_scenario

    scenario = get_scenario(spec.target)
    for cell in cells:
        knobs, overrides = split_scenario_params(cell.params)
        scenario.resolve(
            overrides,
            seed=cell.seed,
            search=knobs.get("search", spec.search),
            controller=knobs.get("controller"),
        )


@dataclasses.dataclass(frozen=True)
class CampaignRunResult:
    """What one :func:`run_campaign` call did.

    ``executed`` and ``skipped`` partition the cells the run considered
    (skipped = already had a trusted record); ``completed`` says whether
    every cell of the campaign now has a record, in which case
    ``results_path`` points at the merged CSV.
    """

    spec: CampaignSpec
    output_dir: Path
    executed: tuple[str, ...]
    skipped: tuple[str, ...]
    completed: bool
    results_path: Path | None


def run_campaign(
    spec: CampaignSpec,
    output_dir: str | Path,
    *,
    resume: bool = False,
    executor: Executor | str | None = None,
    max_workers: int | None = None,
    max_cells: int | None = None,
) -> CampaignRunResult:
    """Run (or resume) *spec*, persisting one record per cell under *output_dir*.

    *resume* skips cells whose records are already present and trusted —
    corrupted or stale records are re-run, and a resumed store ends up
    byte-identical to an uninterrupted one.  *executor*/*max_workers*
    select the fan-out (:data:`~repro.concurrency.EXECUTORS`; results are
    identical whichever executes).  *max_cells* bounds how many pending
    cells this call runs — the supported way to interrupt a campaign at a
    cell boundary (CI's campaign-smoke job runs a truncated pass, then a
    ``--resume`` pass, and asserts the stores match byte-for-byte).

    Every pending cell goes to one :meth:`~repro.concurrency.Executor.map`
    call (one pool on the process executor), and each cell task writes its
    own record as it finishes, so a failing or interrupted run keeps every
    record its finished cells wrote.

    The fan-out runs inside a
    :func:`~repro.workloads.generator.trace_reuse` scope: a cell whose
    trace-driven workload equals the previous cell's in the same process
    (same spec, trace, seed and clamps; a campaign axis the trace does not
    read) reuses it instead of sampling it again.  The scope holds one
    entry, which is enough because cells run seed-major; forked process
    workers inherit the open scope and keep their own entry across the
    cells they serve.  It does nothing outside ``run_campaign``, and
    changes no record.
    """
    if max_cells is not None and max_cells < 0:
        raise CampaignError(f"max_cells must be non-negative, got {max_cells}")
    # Resolved before the store is touched: a bad executor or worker count,
    # a typo'd target, a bad parameter name, type, range or knob value
    # leaves no output directory behind.
    cell_executor = resolve_executor(executor, max_workers)
    cells = spec.cells()
    _check_cells(spec, cells)
    store = CampaignStore(output_dir)
    store.initialise(spec, resume=resume)
    done = store.completed_cell_ids(cells)
    pending = [cell for cell in cells if cell.cell_id not in done]
    if max_cells is not None:
        pending = pending[:max_cells]
    with trace_reuse():
        executed = cell_executor.map(
            record_cell, [cell_task(spec, cell, output_dir) for cell in pending]
        )
    completed = len(done) + len(executed) == len(cells)
    results_path = store.finalise(spec, cells) if completed else None
    return CampaignRunResult(
        spec=spec,
        output_dir=Path(output_dir),
        executed=tuple(executed),
        skipped=tuple(sorted(done)),
        completed=completed,
        results_path=results_path,
    )


def campaign_results(
    store: CampaignStore, spec: CampaignSpec
) -> list[dict[str, Any]]:
    """Every cell's validated record, in cell order (campaign must be complete)."""
    records = []
    for cell in spec.cells():
        record = store.load_cell(cell)
        if record is None:
            raise CampaignError(
                f"campaign {spec.name!r} is incomplete: cell {cell.cell_id} "
                "has no trusted record"
            )
        records.append(record)
    return records
