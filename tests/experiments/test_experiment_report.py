"""Unit tests for :mod:`repro.experiments.report` and the ``--output`` flag."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments import runner
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.report import (
    EXPERIMENT_REPORT_SCHEMA,
    experiment_payload,
    experiment_report,
    jsonify_rows,
    jsonify_value,
    validate_experiment_payload,
    validate_experiment_report,
)


class TestJsonify:
    def test_numpy_scalars_unwrap(self):
        assert jsonify_value(np.float64(1.5)) == 1.5
        assert isinstance(jsonify_value(np.float64(1.5)), float)
        assert jsonify_value(np.int32(3)) == 3
        assert isinstance(jsonify_value(np.int32(3)), int)
        assert jsonify_value(np.bool_(True)) is True

    def test_non_finite_floats_become_null(self):
        assert jsonify_value(math.nan) is None
        assert jsonify_value(math.inf) is None
        assert jsonify_value(np.float64("nan")) is None

    def test_tuples_become_lists(self):
        assert jsonify_value((1, (2, 3))) == [1, [2, 3]]

    def test_mappings_keep_structure(self):
        assert jsonify_value({"a": (1,), "b": np.float64(2.0)}) == {
            "a": [1],
            "b": 2.0,
        }

    def test_unserialisable_values_are_rejected(self):
        with pytest.raises(ExperimentError, match="cannot serialise"):
            jsonify_value({"bad": {1, 2}})

    def test_rows_stringify_keys(self):
        assert jsonify_rows([{"x": np.float64(0.5)}]) == [{"x": 0.5}]


def toy_result():
    return ExperimentResult(
        name="toy",
        description="toy experiment",
        rows=({"x": np.float64(1.0), "label": "a"}, {"x": math.nan, "label": "b"}),
        metadata={"grid": (1, 2)},
        notes=("a note",),
    )


class TestPayload:
    def test_experiment_payload_shape(self):
        payload = experiment_payload(toy_result())
        assert payload == {
            "name": "toy",
            "description": "toy experiment",
            "rows": [{"x": 1.0, "label": "a"}, {"x": None, "label": "b"}],
            "metadata": {"grid": [1, 2]},
            "notes": ["a note"],
        }
        validate_experiment_payload(payload)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (lambda p: p.pop("notes"), "exactly the keys"),
            (lambda p: p.update(extra=1), "exactly the keys"),
            (lambda p: p.update(name=""), "non-empty string"),
            (lambda p: p.update(rows=[]), "non-empty list"),
            (lambda p: p.update(rows=[{}]), "non-empty object"),
            (lambda p: p["rows"][0].update(x=math.inf), "finite"),
            (lambda p: p.update(metadata=[1]), "metadata must be an object"),
            (lambda p: p.update(notes=[1]), "list of strings"),
            (lambda p: p["rows"][0].update(x=object()), "JSON value"),
        ],
    )
    def test_payload_validation_failures(self, mutation, message):
        payload = experiment_payload(toy_result())
        mutation(payload)
        with pytest.raises(ExperimentError, match=message):
            validate_experiment_payload(payload)


class TestReport:
    def test_report_is_schema_tagged_and_json_clean(self):
        config = ExperimentConfig(fast=True, seed=3)
        report = experiment_report({"toy": toy_result()}, config)
        assert report["schema"] == EXPERIMENT_REPORT_SCHEMA
        assert report["config"] == {
            "fast": True,
            "seed": 3,
            "num_jobs": None,
            "frequency_step": None,
        }
        # NaN was serialised as null, so strict JSON can carry the report.
        text = json.dumps(report, allow_nan=False)
        validate_experiment_report(json.loads(text))

    def test_duplicate_experiment_names_rejected(self):
        config = ExperimentConfig()
        report = experiment_report({"toy": toy_result()}, config)
        report["experiments"].append(report["experiments"][0])
        with pytest.raises(ExperimentError, match="unique"):
            validate_experiment_report(report)

    def test_wrong_schema_rejected(self):
        report = experiment_report({"toy": toy_result()}, ExperimentConfig())
        report["schema"] = "repro.experiment-report/v0"
        with pytest.raises(ExperimentError, match="schema"):
            validate_experiment_report(report)

    def test_bad_config_rejected(self):
        report = experiment_report({"toy": toy_result()}, ExperimentConfig())
        report["config"]["num_jobs"] = -1
        with pytest.raises(ExperimentError, match="num_jobs"):
            validate_experiment_report(report)

    def test_bool_is_not_an_integer(self):
        report = experiment_report({"toy": toy_result()}, ExperimentConfig())
        report["config"]["num_jobs"] = True
        with pytest.raises(ExperimentError, match="config.num_jobs must be an integer"):
            validate_experiment_report(report)


class TestCliOutput:
    def test_output_file_holds_a_valid_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert runner.main(["table2", "--output", str(path)]) == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        validate_experiment_report(report)
        assert [entry["name"] for entry in report["experiments"]] == ["table2"]
        assert f"wrote report to {path}" in capsys.readouterr().out

    def test_output_dash_writes_to_stdout(self, capsys):
        assert runner.main(["table2", "--output", "-"]) == 0
        captured = capsys.readouterr()
        # Stdout is exactly the report; the tables and timing go to stderr.
        report = json.loads(captured.out)
        validate_experiment_report(report)
        assert report["schema"] == EXPERIMENT_REPORT_SCHEMA
        assert "== table2:" in captured.err
        assert "completed in" in captured.err
