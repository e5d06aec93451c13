"""Unit tests for :mod:`repro.campaigns.spec`.

The spec layer is what makes campaigns resumable: deterministic cell
enumeration, content-addressed cell IDs, and a JSON round trip that
preserves both.  These tests pin the validation surface and the
canonicalisation rules (tuple-vs-list spelling must not change identity).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.campaigns.spec import (
    CAMPAIGN_KINDS,
    SPEC_SCHEMA,
    CampaignCell,
    CampaignSpec,
    canonical_json,
    canonical_value,
    describe_spec,
    load_spec_file,
    split_scenario_params,
)
from repro.exceptions import CampaignError


def make_spec(**overrides):
    defaults = dict(
        name="unit",
        kind="experiment",
        target="figure1",
        seeds=(0, 1),
        grid={"alpha": (0.0, 0.5), "mode": ("a", "b", "c")},
        fixed={"extra": 7},
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestValidation:
    def test_kinds_are_the_two_documented_ones(self):
        assert CAMPAIGN_KINDS == ("experiment", "scenario")

    def test_empty_name_rejected(self):
        with pytest.raises(CampaignError, match="non-empty name"):
            make_spec(name="")

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignError, match="kind"):
            make_spec(kind="benchmark")

    def test_empty_target_rejected(self):
        with pytest.raises(CampaignError, match="target"):
            make_spec(target="")

    def test_no_seeds_rejected(self):
        with pytest.raises(CampaignError, match="no seeds"):
            make_spec(seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(CampaignError, match="duplicate seeds"):
            make_spec(seeds=(3, 3))

    def test_bool_seed_rejected(self):
        with pytest.raises(CampaignError, match="seeds must be integers"):
            make_spec(seeds=(True,))

    def test_negative_seed_rejected(self):
        with pytest.raises(CampaignError, match="seeds must be non-negative, got -1"):
            make_spec(seeds=(0, -1))

    def test_zero_num_jobs_rejected(self):
        with pytest.raises(CampaignError, match="num_jobs must be at least 1, got 0"):
            make_spec(num_jobs=0)

    @pytest.mark.parametrize("step", [0.0, -0.05, math.nan, math.inf])
    def test_non_positive_or_non_finite_frequency_step_rejected(self, step):
        with pytest.raises(CampaignError, match="frequency_step must be positive"):
            make_spec(frequency_step=step)

    def test_nan_grid_value_rejected(self):
        with pytest.raises(CampaignError, match="finite"):
            make_spec(grid={"alpha": (math.nan,)})

    def test_inf_fixed_value_rejected(self):
        with pytest.raises(CampaignError, match="finite"):
            make_spec(fixed={"extra": math.inf})

    def test_non_json_value_rejected(self):
        with pytest.raises(CampaignError, match="JSON-representable"):
            make_spec(grid={"alpha": (object(),)})

    def test_non_string_mapping_key_rejected(self):
        with pytest.raises(CampaignError, match="keys.*must be strings"):
            canonical_value({1: "x"})

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError, match="no values"):
            make_spec(grid={"alpha": ()})

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(CampaignError, match="duplicate values"):
            make_spec(grid={"alpha": (1, 1)})

    def test_tuple_and_list_spellings_are_the_same_value(self):
        # Canonicalisation happens before the duplicate check, so a tuple
        # and a list with the same elements are one value, not two.
        with pytest.raises(CampaignError, match="duplicate values"):
            make_spec(grid={"alpha": ((1, 2), [1, 2])})

    def test_axis_name_must_be_identifier(self):
        with pytest.raises(CampaignError, match="identifier"):
            make_spec(grid={"not an axis": (1,)})

    def test_grid_fixed_overlap_rejected(self):
        with pytest.raises(CampaignError, match="both as grid axes"):
            make_spec(grid={"alpha": (1, 2)}, fixed={"alpha": 3})

    def test_experiment_campaign_rejects_scenario_knob_axes(self):
        with pytest.raises(CampaignError, match="scenario knob axes"):
            make_spec(grid={"backend": ("vectorized", "reference")})

    def test_scenario_campaign_accepts_knob_axes(self):
        spec = make_spec(
            kind="scenario",
            target="diurnal",
            grid={"controller": (None, "reactive")},
            fixed={},
        )
        knobs, overrides = split_scenario_params(spec.cells()[0].params)
        assert knobs == {"controller": None}
        assert overrides == {}

    def test_replace_revalidates(self):
        spec = make_spec()
        with pytest.raises(CampaignError, match="duplicate seeds"):
            spec.replace(seeds=(5, 5))


class TestEnumeration:
    def test_num_cells_is_seed_times_grid_volume(self):
        assert make_spec().num_cells == 2 * 2 * 3

    def test_cells_are_seed_major_last_axis_fastest(self):
        cells = make_spec().cells()
        assert [cell.index for cell in cells] == list(range(12))
        assert [cell.seed for cell in cells] == [0] * 6 + [1] * 6
        assert [cell.params["mode"] for cell in cells[:3]] == ["a", "b", "c"]
        assert [cell.params["alpha"] for cell in cells[:6]] == [0.0] * 3 + [0.5] * 3

    def test_fixed_params_merge_into_every_cell(self):
        assert all(cell.params["extra"] == 7 for cell in make_spec().cells())

    def test_gridless_spec_has_one_cell_per_seed(self):
        spec = make_spec(grid={}, seeds=(0, 1, 2))
        assert [cell.params for cell in spec.cells()] == [{"extra": 7}] * 3

    def test_cell_ids_are_stable_across_enumerations(self):
        assert [c.cell_id for c in make_spec().cells()] == [
            c.cell_id for c in make_spec().cells()
        ]

    def test_cell_ids_are_content_addressed(self):
        base = CampaignCell(
            index=0, seed=0, params={"a": 1}, kind="experiment", target="t"
        )
        same_content = CampaignCell(
            index=0, seed=0, params={"a": 1}, kind="experiment", target="t"
        )
        other_seed = CampaignCell(
            index=0, seed=1, params={"a": 1}, kind="experiment", target="t"
        )
        other_params = CampaignCell(
            index=0, seed=0, params={"a": 2}, kind="experiment", target="t"
        )
        assert base.cell_id == same_content.cell_id
        assert base.cell_id != other_seed.cell_id
        assert base.cell_id != other_params.cell_id

    def test_tuple_vs_list_spelling_does_not_change_cell_ids(self):
        spec_tuple = make_spec(grid={"pair": ((1, 2), (3, 4))}, fixed={})
        spec_list = make_spec(grid={"pair": ([1, 2], [3, 4])}, fixed={})
        assert [c.cell_id for c in spec_tuple.cells()] == [
            c.cell_id for c in spec_list.cells()
        ]


class TestSerialisation:
    def test_json_round_trip_preserves_identity(self):
        spec = make_spec()
        document = json.loads(json.dumps(spec.to_json_dict()))
        loaded = CampaignSpec.from_json_dict(document)
        assert loaded.canonical_text() == spec.canonical_text()
        assert [c.cell_id for c in loaded.cells()] == [
            c.cell_id for c in spec.cells()
        ]

    def test_schema_tag_required(self):
        payload = make_spec().to_json_dict()
        payload["schema"] = "repro.campaign-spec/v0"
        with pytest.raises(CampaignError, match="schema"):
            CampaignSpec.from_json_dict(payload)
        assert SPEC_SCHEMA == "repro.campaign-spec/v1"

    def test_unknown_keys_rejected(self):
        payload = make_spec().to_json_dict()
        payload["surprise"] = 1
        with pytest.raises(CampaignError, match="unknown keys"):
            CampaignSpec.from_json_dict(payload)

    def test_non_object_document_rejected(self):
        with pytest.raises(CampaignError, match="JSON object"):
            CampaignSpec.from_json_dict([1, 2])

    def test_seeds_must_be_a_list(self):
        payload = make_spec().to_json_dict()
        payload["seeds"] = 0
        with pytest.raises(CampaignError, match="seeds"):
            CampaignSpec.from_json_dict(payload)

    def test_grid_must_be_an_object(self):
        payload = make_spec().to_json_dict()
        payload["grid"] = [1]
        with pytest.raises(CampaignError, match="grid"):
            CampaignSpec.from_json_dict(payload)

    def test_load_spec_file_round_trip(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json_dict()), encoding="utf-8")
        assert load_spec_file(path).canonical_text() == spec.canonical_text()

    def test_load_spec_file_missing(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            load_spec_file(tmp_path / "absent.json")

    def test_load_spec_file_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CampaignError, match="cannot read"):
            load_spec_file(path)

    def test_canonical_json_sorts_keys_and_unrolls_tuples(self):
        assert canonical_json({"b": 1, "a": (2,)}) == '{"a":[2],"b":1}'

    def test_describe_spec_mentions_name_and_cell_count(self):
        text = describe_spec(make_spec())
        assert "unit" in text
        assert "12 cell(s)" in text
