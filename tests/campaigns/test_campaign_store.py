"""Unit tests for :mod:`repro.campaigns.store`.

The store is the persistence half of the resume contract: records are
validated both when written and when read back, the directory is pinned
to exactly one spec, and the merged CSV is a pure deterministic function
of the records.
"""

from __future__ import annotations

import json

import pytest

from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import (
    CELL_SCHEMA,
    CampaignStore,
    make_cell_record,
    validate_cell_record,
)
from repro.exceptions import CampaignError


def tiny_spec(**overrides):
    defaults = dict(
        name="store-unit",
        kind="experiment",
        target="anything",
        seeds=(0,),
        grid={"alpha": (0.0, 0.5)},
        fixed={"label": "x,y"},
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def payload_for(cell):
    """A minimal valid experiment payload, deterministic in the cell."""
    return {
        "name": "store-unit",
        "description": "synthetic payload",
        "rows": [
            {
                "alpha": cell.params["alpha"],
                "label": cell.params["label"],
                "value": cell.seed + cell.params["alpha"],
                "ok": True,
                "missing": None,
            }
        ],
        "metadata": {"seed": cell.seed},
        "notes": ["synthetic"],
    }


def fill_store(spec, root):
    store = CampaignStore(root)
    store.initialise(spec, resume=False)
    for cell in spec.cells():
        store.write_cell(make_cell_record(spec.name, cell, payload_for(cell)))
    return store


class TestCellRecords:
    def test_make_cell_record_is_valid_and_schema_tagged(self):
        spec = tiny_spec()
        cell = spec.cells()[0]
        record = make_cell_record(spec.name, cell, payload_for(cell))
        assert record["schema"] == CELL_SCHEMA
        assert record["cell_id"] == cell.cell_id
        validate_cell_record(record)

    def test_non_object_record_rejected(self):
        with pytest.raises(CampaignError, match="JSON object"):
            validate_cell_record([1])

    def test_wrong_key_set_rejected(self):
        spec = tiny_spec()
        cell = spec.cells()[0]
        record = make_cell_record(spec.name, cell, payload_for(cell))
        record.pop("campaign")
        with pytest.raises(CampaignError, match="exactly the keys"):
            validate_cell_record(record)

    def test_wrong_schema_rejected(self):
        spec = tiny_spec()
        cell = spec.cells()[0]
        record = make_cell_record(spec.name, cell, payload_for(cell))
        record["schema"] = "repro.campaign-cell/v0"
        with pytest.raises(CampaignError, match="schema"):
            validate_cell_record(record)

    def test_malformed_cell_id_rejected(self):
        spec = tiny_spec()
        cell = spec.cells()[0]
        record = make_cell_record(spec.name, cell, payload_for(cell))
        record["cell_id"] = "bogus"
        with pytest.raises(CampaignError, match="malformed"):
            validate_cell_record(record)

    def test_stale_record_rejected_by_recomputed_id(self):
        # Mutating the content without updating the id must be caught:
        # the id is recomputed from kind/target/seed/params.
        spec = tiny_spec()
        cell = spec.cells()[0]
        record = make_cell_record(spec.name, cell, payload_for(cell))
        record["seed"] = record["seed"] + 1
        with pytest.raises(CampaignError, match="stale"):
            validate_cell_record(record)

    def test_embedded_result_is_validated(self):
        spec = tiny_spec()
        cell = spec.cells()[0]
        bad = payload_for(cell)
        bad["rows"] = []
        with pytest.raises(CampaignError, match="rows"):
            make_cell_record(spec.name, cell, bad)


class TestLoadCell:
    def test_round_trip(self, tmp_path):
        spec = tiny_spec()
        store = fill_store(spec, tmp_path)
        cell = spec.cells()[0]
        record = store.load_cell(cell)
        assert record is not None
        assert record["result"]["rows"] == payload_for(cell)["rows"]

    @pytest.mark.parametrize(
        "corruption",
        ["missing", "empty", "truncated", "garbage", "stale"],
    )
    def test_untrusted_files_read_as_missing(self, tmp_path, corruption):
        spec = tiny_spec()
        store = fill_store(spec, tmp_path)
        cell = spec.cells()[0]
        path = store.cell_path(cell.cell_id)
        if corruption == "missing":
            path.unlink()
        elif corruption == "empty":
            path.write_text("", encoding="utf-8")
        elif corruption == "truncated":
            text = path.read_text(encoding="utf-8")
            path.write_text(text[: len(text) // 2], encoding="utf-8")
        elif corruption == "garbage":
            path.write_bytes(b"\x00\xffnot json")
        elif corruption == "stale":
            record = json.loads(path.read_text(encoding="utf-8"))
            record["seed"] += 1
            path.write_text(json.dumps(record), encoding="utf-8")
        assert store.load_cell(cell) is None
        assert cell.cell_id not in store.completed_cell_ids(spec.cells())

    def test_completed_cell_ids_reports_trusted_records(self, tmp_path):
        spec = tiny_spec()
        store = fill_store(spec, tmp_path)
        cells = spec.cells()
        assert store.completed_cell_ids(cells) == {c.cell_id for c in cells}


class TestInitialise:
    def test_fresh_store_writes_campaign_json(self, tmp_path):
        spec = tiny_spec()
        store = CampaignStore(tmp_path)
        store.initialise(spec, resume=False)
        saved = json.loads(store.campaign_path.read_text(encoding="utf-8"))
        assert CampaignSpec.from_json_dict(saved).canonical_text() == spec.canonical_text()

    def test_resume_against_same_spec_is_allowed(self, tmp_path):
        spec = tiny_spec()
        store = fill_store(spec, tmp_path)
        store.initialise(spec, resume=True)

    def test_different_spec_refused(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.initialise(tiny_spec(), resume=False)
        with pytest.raises(CampaignError, match="different spec"):
            store.initialise(tiny_spec(seeds=(0, 1)), resume=True)

    def test_non_resume_over_records_refused(self, tmp_path):
        spec = tiny_spec()
        store = fill_store(spec, tmp_path)
        with pytest.raises(CampaignError, match="--resume"):
            store.initialise(spec, resume=False)

    def test_records_without_campaign_json_refused(self, tmp_path):
        spec = tiny_spec()
        store = fill_store(spec, tmp_path)
        store.campaign_path.unlink()
        with pytest.raises(CampaignError, match="unknown origin"):
            store.initialise(spec, resume=False)

    def test_unreadable_campaign_json_is_an_error(self, tmp_path):
        spec = tiny_spec()
        store = CampaignStore(tmp_path)
        store.initialise(spec, resume=False)
        store.campaign_path.write_text("{broken", encoding="utf-8")
        with pytest.raises(CampaignError, match="cannot read"):
            store.initialise(spec, resume=True)

    def test_stale_campaign_json_names_the_file(self, tmp_path):
        # A store written when specs still had a ``backend`` field.
        spec = tiny_spec()
        store = CampaignStore(tmp_path)
        store.initialise(spec, resume=False)
        stale = {**json.loads(store.campaign_path.read_text()), "backend": "vectorized"}
        store.campaign_path.write_text(json.dumps(stale), encoding="utf-8")
        with pytest.raises(CampaignError) as error:
            store.initialise(spec, resume=True)
        message = str(error.value)
        assert str(store.campaign_path) in message
        assert "unknown keys: ['backend']" in message


class TestFinalise:
    def test_csv_is_deterministic_and_ordered(self, tmp_path):
        spec = tiny_spec()
        store = fill_store(spec, tmp_path)
        first = store.finalise(spec, spec.cells())
        once = first.read_bytes()
        again = store.finalise(spec, spec.cells()).read_bytes()
        assert once == again
        lines = once.decode("utf-8").splitlines()
        # Base columns, then fixed params, then grid axes, then result
        # columns in first-seen order — which, because records are stored
        # with sorted keys, is sorted within each record's rows.
        assert lines[0] == "cell_index,cell_id,seed,label,alpha,missing,ok,value"
        assert len(lines) == 1 + spec.num_cells

    def test_csv_value_rendering(self, tmp_path):
        spec = tiny_spec()
        store = fill_store(spec, tmp_path)
        lines = (
            store.finalise(spec, spec.cells()).read_text(encoding="utf-8").splitlines()
        )
        # The fixed label contains a comma so the field is quoted; booleans
        # render lowercase; None renders as the empty field.
        assert '"x,y"' in lines[1]
        assert ",,true," in lines[1]

    def test_finalise_refuses_untrusted_records(self, tmp_path):
        spec = tiny_spec()
        store = fill_store(spec, tmp_path)
        store.cell_path(spec.cells()[0].cell_id).unlink()
        with pytest.raises(CampaignError, match="no trusted record"):
            store.finalise(spec, spec.cells())
