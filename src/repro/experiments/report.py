"""Machine-readable experiment reports (``repro.experiment-report/v1``).

``python -m repro.experiments <names> --output FILE`` serialises the run's
:class:`~repro.experiments.base.ExperimentResult`\\ s into one
schema-versioned JSON document, mirroring the scenario reports'
validate-before-emit discipline.  The same row serialisation and payload
validation back the campaign store's cell records
(:mod:`repro.campaigns.store`), so the two surfaces cannot drift apart.

Report schema::

    {
      "schema": "repro.experiment-report/v1",
      "config": {
        "fast": bool, "seed": int,
        "num_jobs": int | null, "frequency_step": float | null
      },
      "experiments": [
        {
          "name": str, "description": str,
          "rows": [{column: value, ...}, ...],     # non-empty; columns may vary
          "metadata": {..},                        # JSON-canonical
          "notes": [str, ...]
        },
        ...
      ]
    }

JSON has no NaN/inf, so non-finite floats become ``null`` wherever they
appear (an infeasible cell's power, for example); numpy scalars are
unwrapped to plain Python numbers.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from typing import Any

from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.schema import Bool, Const, Int, Json, List, Num, Obj, Opt, Str, validate

#: Version tag stamped into (and required from) every experiment report.
EXPERIMENT_REPORT_SCHEMA = "repro.experiment-report/v1"

#: One experiment's payload: the executable form of the docstring schema's
#: ``experiments`` entries.
EXPERIMENT_PAYLOAD_TABLE = Obj(
    {
        "name": Str(nonempty=True),
        "description": Str(nonempty=True),
        "rows": List(Obj(values=Json(), nonempty=True), nonempty=True),
        "metadata": Obj(values=Json()),
        "notes": List(Str()),
    }
)


def _report_invariants(report: Any) -> Iterator[tuple[str, str]]:
    """Experiment names are unique within a report."""
    names = [entry["name"] for entry in report["experiments"]]
    if len(set(names)) != len(names):
        yield "experiments", "names must be unique"


#: The executable experiment-report schema.
EXPERIMENT_REPORT_TABLE = Obj(
    {
        "schema": Const(EXPERIMENT_REPORT_SCHEMA),
        "config": Obj(
            {
                "fast": Bool(),
                "seed": Int(),
                "num_jobs": Opt(Int(min=1)),
                "frequency_step": Opt(Num(positive=True)),
            }
        ),
        "experiments": List(EXPERIMENT_PAYLOAD_TABLE, nonempty=True),
    },
    invariants=_report_invariants,
)


def jsonify_value(value: Any) -> Any:
    """*value* as a JSON-representable object.

    Tuples become lists, numpy scalars become Python numbers (via
    ``item()``), and non-finite floats become ``None``.  Anything else
    that JSON cannot carry is rejected loudly rather than serialised as
    its ``repr``.
    """
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        # numpy scalars (and 0-d arrays) unwrap to plain Python objects.
        try:
            value = value.item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [jsonify_value(item) for item in value]
    if isinstance(value, Mapping):
        jsonified: dict[str, Any] = {}
        for key, item in value.items():
            jsonified[str(jsonify_value(key))] = jsonify_value(item)
        return jsonified
    raise ExperimentError(
        f"cannot serialise {type(value).__name__} value {value!r} into an "
        "experiment report"
    )


def jsonify_rows(rows: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Experiment rows as JSON-ready dictionaries (NaN → ``null``)."""
    return [
        {str(key): jsonify_value(value) for key, value in row.items()} for row in rows
    ]


def experiment_payload(result: ExperimentResult) -> dict[str, Any]:
    """One experiment's JSON payload (shared with campaign cell records)."""
    return {
        "name": result.name,
        "description": result.description,
        "rows": jsonify_rows(result.rows),
        "metadata": jsonify_value(dict(result.metadata)),
        "notes": [str(note) for note in result.notes],
    }


def experiment_report(
    results: Mapping[str, ExperimentResult], config: ExperimentConfig
) -> dict[str, Any]:
    """Assemble the schema-versioned report for one ``run_experiments`` call.

    The returned document is already validated against
    :data:`EXPERIMENT_REPORT_SCHEMA`.
    """
    report = {
        "schema": EXPERIMENT_REPORT_SCHEMA,
        "config": {
            "fast": config.fast,
            "seed": config.seed,
            "num_jobs": config.num_jobs,
            "frequency_step": config.frequency_step,
        },
        "experiments": [experiment_payload(result) for result in results.values()],
    }
    validate_experiment_report(report)
    return report


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


def validate_experiment_payload(payload: Any, where: str = "experiment") -> None:
    """Check one experiment payload (also each campaign cell's result body).

    Raises :class:`~repro.exceptions.ExperimentError` on the first
    violation, naming its path under *where*; returns ``None`` on success.
    Structural only — keys, types, finite numbers, non-empty rows.  Rows
    may differ in their columns (``table2`` mixes two row shapes).
    """
    validate(payload, EXPERIMENT_PAYLOAD_TABLE, ExperimentError, "experiment report", where)


def validate_experiment_report(report: Any) -> None:
    """Check *report* against the ``repro.experiment-report/v1`` schema."""
    validate(report, EXPERIMENT_REPORT_TABLE, ExperimentError, "experiment report")
