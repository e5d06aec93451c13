"""Persistent campaign state: one atomic record per completed cell.

A :class:`CampaignStore` owns one directory::

    <root>/
      campaign.json        # the spec that produced this store (identity pin)
      cells/<cell_id>.json # one schema-versioned record per completed cell
      results.csv          # merged table, rebuilt from the records

Every write is atomic (temp file + ``os.replace``) and every byte is a
deterministic function of the spec and the cell results — no timestamps,
no hostnames, fixed key order — so an interrupted-then-resumed campaign
produces a directory *byte-identical* to an uninterrupted run (pinned by
``tests/campaigns/test_campaign_resume.py``).  Records are validated on the way in
**and** on the way out: a corrupted, truncated or stale cell file is
reported as missing, so resume re-runs it instead of trusting it.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.campaigns.spec import (
    CAMPAIGN_KINDS,
    KIND_EXPERIMENT,
    KIND_SCENARIO,
    CampaignCell,
    CampaignSpec,
    canonical_json,
)
from repro.exceptions import CampaignError, ReproError
from repro.experiments.report import EXPERIMENT_PAYLOAD_TABLE
from repro.experiments.scenario_runner import REPORT_TABLE
from repro.experiments.schema import Const, Int, Obj, Str, validate

#: Version tag stamped into (and required from) every cell record.
CELL_SCHEMA = "repro.campaign-cell/v1"


def _cell_invariants(record: Any) -> Iterator[tuple[str, str]]:
    """A well-formed ``cell_id`` that the record's content reproduces."""
    cell_id = record["cell_id"]
    if not (cell_id[5:6] == "-" and cell_id[:5].isdecimal()):
        yield "cell_id", "is malformed (expected <index:05d>-<digest>)"
        return
    recomputed = CampaignCell(
        index=int(cell_id[:5]),
        seed=record["seed"],
        params=record["params"],
        kind=record["kind"],
        target=record["target"],
    ).cell_id
    if recomputed != cell_id:
        yield "cell_id", (
            f"does not match the record's content (expected {recomputed!r}); the record is stale"
        )


#: The executable cell-record schema; ``result`` is walked separately,
#: with the table its ``kind`` selects.
CELL_TABLE = Obj(
    {
        "schema": Const(CELL_SCHEMA),
        "campaign": Str(nonempty=True),
        "cell_id": Str(nonempty=True),
        "kind": Str(choices=CAMPAIGN_KINDS),
        "target": Str(nonempty=True),
        "seed": Int(),
        "params": Obj(),
        "result": Obj(),
    },
    invariants=_cell_invariants,
)

#: File names inside a campaign store directory.
CAMPAIGN_FILE = "campaign.json"
CELLS_DIR = "cells"
RESULTS_CSV = "results.csv"

#: Leading columns of the merged CSV, before the campaign's parameter
#: columns and the result columns discovered from the records.
_CSV_BASE_COLUMNS = ("cell_index", "cell_id", "seed")


def _dump_json(payload: Any) -> str:
    """The one serialisation every store file uses (stable bytes)."""
    return (
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, ensure_ascii=False)
        + "\n"
    )


def _atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* atomically (temp file + rename)."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def make_cell_record(
    spec: CampaignSpec, cell: CampaignCell, result: Mapping[str, Any]
) -> dict[str, Any]:
    """Assemble (and validate) the persistent record for one finished cell.

    *result* is the cell's JSON-ready payload: an experiment payload
    (:func:`repro.experiments.report.experiment_payload`) for experiment
    cells, a validated scenario report for scenario cells.
    """
    record = {
        "schema": CELL_SCHEMA,
        "campaign": spec.name,
        "cell_id": cell.cell_id,
        "kind": cell.kind,
        "target": cell.target,
        "seed": cell.seed,
        "params": dict(cell.params),
        "result": dict(result),
    }
    validate_cell_record(record)
    return record


def validate_cell_record(record: Any) -> None:
    """Check one cell record against ``repro.campaign-cell/v1``.

    Raises :class:`~repro.exceptions.CampaignError` on the first violation.
    The embedded result is walked under the path ``result`` with the same
    tables the direct surfaces use (the experiment payload for experiment
    cells, the scenario report for scenario cells), and the
    content-addressed ``cell_id`` is recomputed from the record — a record
    whose identity does not match its content is stale, not trusted.
    """
    if not isinstance(record, dict):
        raise CampaignError("a campaign cell record must be a JSON object")
    validate(record, CELL_TABLE, CampaignError, "campaign cell record")
    if record["kind"] == KIND_EXPERIMENT:
        result_table = EXPERIMENT_PAYLOAD_TABLE
    else:
        result_table = REPORT_TABLE
    validate(record["result"], result_table, CampaignError, "campaign cell record", "result")


class CampaignStore:
    """The on-disk home of one campaign's spec, cell records and merged CSV."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- paths --------------------------------------------------------------

    @property
    def campaign_path(self) -> Path:
        return self.root / CAMPAIGN_FILE

    @property
    def cells_dir(self) -> Path:
        return self.root / CELLS_DIR

    @property
    def results_path(self) -> Path:
        return self.root / RESULTS_CSV

    def cell_path(self, cell_id: str) -> Path:
        return self.cells_dir / f"{cell_id}.json"

    # -- identity -----------------------------------------------------------

    def initialise(self, spec: CampaignSpec, *, resume: bool) -> None:
        """Pin the store to *spec*, creating or checking ``campaign.json``.

        A store directory belongs to exactly one campaign: starting a
        different spec in a populated store is an error, and a fresh
        (non-resume) run refuses a store that already holds cell records —
        resuming must be asked for, so the execution-count guarantees of
        ``--resume`` are never delivered by accident.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self.cells_dir.mkdir(exist_ok=True)
        except OSError as error:
            raise CampaignError(f"cannot create store {self.root}: {error}") from error
        spec_text = _dump_json(spec.to_json_dict())
        if self.campaign_path.exists():
            try:
                existing = json.loads(self.campaign_path.read_text(encoding="utf-8"))
                existing_spec = CampaignSpec.from_json_dict(existing)
            except (OSError, json.JSONDecodeError, CampaignError) as error:
                raise CampaignError(
                    f"cannot read {self.campaign_path}: {error}"
                ) from error
            if existing_spec.canonical_text() != spec.canonical_text():
                raise CampaignError(
                    f"store {self.root} belongs to campaign "
                    f"{existing_spec.name!r} with a different spec; use a new "
                    "--output-dir (or fix the spec) instead of mixing records"
                )
            if not resume and any(self.cells_dir.glob("*.json")):
                raise CampaignError(
                    f"store {self.root} already holds cell records for "
                    f"{spec.name!r}; pass --resume to continue it or point "
                    "--output-dir at a fresh directory"
                )
            # Resume against a matching spec: leave campaign.json untouched
            # (its bytes are already identical to what we would write).
            return
        if any(self.cells_dir.glob("*.json")):
            raise CampaignError(
                f"store {self.root} holds cell records but no {CAMPAIGN_FILE}; "
                "refusing to adopt records of unknown origin"
            )
        _atomic_write_text(self.campaign_path, spec_text)

    # -- cell records -------------------------------------------------------

    def write_cell(self, record: Mapping[str, Any]) -> Path:
        """Validate and atomically persist one cell record."""
        record = dict(record)
        validate_cell_record(record)
        path = self.cell_path(record["cell_id"])
        _atomic_write_text(path, _dump_json(record))
        return path

    def load_cell(self, cell: CampaignCell) -> dict[str, Any] | None:
        """The validated record for *cell*, or ``None`` if absent/untrusted.

        A file that is missing, unreadable, truncated, corrupted or stale
        (content hash mismatch, wrong campaign cell) is treated identically:
        the cell is not completed and will be re-run.
        """
        path = self.cell_path(cell.cell_id)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        try:
            validate_cell_record(record)
        except ReproError:
            return None
        if record["cell_id"] != cell.cell_id:
            return None
        return record

    def completed_cell_ids(self, cells: Iterable[CampaignCell]) -> set[str]:
        """IDs of *cells* whose records are present and trustworthy."""
        return {
            cell.cell_id for cell in cells if self.load_cell(cell) is not None
        }

    # -- merged CSV ---------------------------------------------------------

    def finalise(self, spec: CampaignSpec, cells: Sequence[CampaignCell]) -> Path:
        """Rebuild ``results.csv`` from the cell records, in cell order.

        The CSV is a pure deterministic function of the records: base
        columns, then the spec's parameter columns (fixed first, then grid
        axes in declaration order), then result columns in first-seen
        order.  Experiment cells contribute one line per result row;
        scenario cells contribute one flattened summary line.
        """
        param_columns = list(spec.fixed) + list(spec.grid)
        lines: list[tuple[dict[str, Any], dict[str, Any]]] = []
        for cell in cells:
            record = self.load_cell(cell)
            if record is None:
                raise CampaignError(
                    f"cannot merge campaign {spec.name!r}: cell "
                    f"{cell.cell_id} has no trusted record"
                )
            base = {
                "cell_index": cell.index,
                "cell_id": cell.cell_id,
                "seed": cell.seed,
                **{axis: cell.params.get(axis) for axis in param_columns},
            }
            lines.extend((base, data) for data in _result_rows(record))
        result_columns: list[str] = []
        seen = set(_CSV_BASE_COLUMNS) | set(param_columns)
        for _base, data in lines:
            for column in data:
                if column not in seen:
                    seen.add(column)
                    result_columns.append(column)
        header = list(_CSV_BASE_COLUMNS) + param_columns + result_columns
        out = [",".join(_csv_field(column) for column in header)]
        for base, data in lines:
            merged = {**base, **data}
            out.append(
                ",".join(_csv_field(_csv_value(merged.get(column))) for column in header)
            )
        _atomic_write_text(self.results_path, "\n".join(out) + "\n")
        return self.results_path


def _result_rows(record: Mapping[str, Any]) -> list[dict[str, Any]]:
    """The CSV-bound rows of one cell record."""
    result = record["result"]
    if record["kind"] == KIND_EXPERIMENT:
        return [dict(row) for row in result["rows"]]
    assert record["kind"] == KIND_SCENARIO
    flat = {
        "scenario": result["scenario"],
        "backend": result["backend"],
        "search": result["search"],
        "workload": result["workload"]["name"],
        "num_jobs": result["workload"]["num_jobs"],
        "energy_joules": result["energy"]["total_joules"],
        "average_power_w": result["energy"]["average_power_w"],
        "mean_response_time_s": result["response_time"]["mean_s"],
        "p95_response_time_s": result["response_time"]["p95_s"],
        "p99_response_time_s": result["response_time"]["p99_s"],
        "meets_budget": result["response_time"]["meets_budget"],
    }
    controller = result["controller"]
    if controller is not None:
        flat["controller_policy"] = controller["policy"]
        flat["wake_transitions"] = controller["wake_transitions"]
    return [flat]


def _csv_value(value: Any) -> str:
    """A deterministic text form for one CSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return repr(value)
    return canonical_json(value)


def _csv_field(text: str) -> str:
    """Quote *text* for CSV if it needs it (RFC 4180 style)."""
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text
