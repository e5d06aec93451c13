"""Run registered scenarios end-to-end and emit a comparable JSON report.

``python -m repro.experiments run-scenario <name>`` builds the named scenario
(:mod:`repro.scenarios`), runs its job stream through its server farm, and
prints one JSON document whose schema is identical across scenarios, so
energy and latency numbers can be compared between e.g. ``diurnal`` and
``flash-crowd`` runs without any per-scenario glue.

Report schema (``repro.scenario-report/v4``; v2 added the ``search``
key recording the policy-search mode — ``"frontier"`` unless the
``"full"`` oracle is asked for; every other field is identical between
the two — v3 the ``controller`` block
recording farm-level right-sizing, v4 the always-present ``tenants``
block recording the farm-level QoS contract and per-tenant outcomes)::

    {
      "schema": "repro.scenario-report/v4",
      "scenario": str,            # registered scenario name
      "description": str,
      "seed": int,
      "backend": "vectorized",    # fixed; leaves with schema v5
      "search": "frontier" | "full",
      "parameters": {name: value, ...},        # resolved builder parameters
      "workload": {
        "name": str,                           # WorkloadSpec name
        "mean_service_time_s": float,
        "num_jobs": int,
        "duration_s": float                    # first to last arrival
      },
      "farm": {
        "servers": [{"name": str, "platform": str}, ...],
        "platforms": [str, ...],               # distinct, in server order
        "heterogeneous": bool,
        "dispatcher": str                      # dispatcher class name
      },
      "energy": {
        "total_joules": float,          # parked servers' sleep-walk energy included
        "average_power_w": float,
        "average_power_per_server_w": float   # parked servers contribute idle power
      },
      "response_time": {
        "mean_s": float, "p50_s": float, "p95_s": float, "p99_s": float,
        "normalized_mean": float,              # mu * E[R]
        "budget": float,                       # normalised budget in force
        "meets_budget": bool
      },
      "controller": null | {              # farm-level right-sizing, if any
        "policy": "always-on" | "reactive" | "predictive",
        "min_awake": int,
        "setup_latency_s": float,
        "setup_energy_joules": float,      # total paid for wake transitions
        "awake_counts": [int, ...],        # commanded-on servers per epoch
        "wake_transitions": int            # number of paid wakes
      },
      "tenants": {                        # farm-level QoS contract (always present)
        "mode": "none" | "strictest" | "per-tenant",
        "constraint": str | null,          # farm-level constraint description
        "rows": [                          # per-tenant outcomes; [] unless per-tenant
          {"name": str, "weight": float, "priority": int, "qos": str,
           "num_jobs": int, "mean_response_time_s": float | null,
           "p95_s": float | null, "p99_s": float | null,
           "meets_budget": bool, "slack": float | null},
          ...
        ],
        "isolation": null | [              # combined-vs-solo rows (--isolation)
          {"name": str, "combined_p95_s": float | null, "solo_p95_s": float | null,
           "combined_p99_s": float | null, "solo_p99_s": float | null,
           "p95_delta_s": float | null, "p99_delta_s": float | null,
           "meets_budget_combined": bool, "meets_budget_solo": bool,
           "interference_violation": bool},
          ...
        ]
      },
      "state_selection_fractions": {state: fraction, ...},   # sums to 1
      "per_server": [                          # one per farm server, in order
        {"server": str, "num_jobs": int,
         "mean_response_time_s": float | null, "average_power_w": float | null},
        ...
      ]
    }

NaN is not valid JSON, so metrics that are undefined for a slot (an idle
server's latency) are serialised as ``null``.

The block above is an annotated copy; the executable schema is
:data:`REPORT_TABLE` (a :mod:`repro.experiments.schema` table) plus its
cross-field invariants, and a tier-1 test keeps every table key in the
block.  :func:`validate_report` walks a report through that table and is
what the scenario round-trip tests and the CI smoke matrix call.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import math
import sys
from collections.abc import Iterator, Mapping
from typing import Any

from repro.cluster.controller import (
    CONTROLLER_POLICIES,
    FarmController,
    SetupModel,
)
from repro.cluster.farm import FarmResult
from repro.cluster.tenancy import (
    FARM_QOS_MODES,
    FarmQos,
    TenantIsolation,
    isolation_report,
)
from repro.concurrency import EXECUTORS, Executor
from repro.core.qos import (
    QosConstraint,
    mean_qos_from_baseline,
    percentile_qos_from_baseline,
)
from repro.exceptions import ConfigurationError, ExperimentError, ScenarioError
from repro.experiments.base import check_output_file, write_output_file
from repro.experiments.schema import Bool, Const, Int, List, Num, Obj, Opt, Str, validate
from repro.scenarios import (
    BuiltScenario,
    Scenario,
    available_scenarios,
    get_scenario,
    scenario_catalog,
)
from repro.core.search import DEFAULT_SEARCH, SEARCHES

#: Version tag stamped into (and required from) every scenario report.
REPORT_SCHEMA = "repro.scenario-report/v4"
#: The report's ``backend`` value.  The package has one simulator; the key
#: stays, with this one value, until the next schema version drops it.
REPORT_BACKEND = "vectorized"

#: A metric that is undefined for some slots (an idle server's latency).
_METRIC = Opt(Num())


def _report_invariants(report: Any) -> Iterator[tuple[str, str]]:
    """What :data:`REPORT_TABLE` cannot express (run once it has passed)."""
    farm, tenants, workload = report["farm"], report["tenants"], report["workload"]
    times, controller = report["response_time"], report["controller"]
    per_tenant = tenants["mode"] == "per-tenant"
    tenant_names = [row["name"] for row in tenants["rows"]]
    if not times["p50_s"] <= times["p95_s"] <= times["p99_s"]:
        yield "response_time", "percentiles must be non-decreasing"
    if farm["platforms"] != list(dict.fromkeys(s["platform"] for s in farm["servers"])):
        yield "farm.platforms", "must be the servers' distinct platforms, in server order"
    if farm["heterogeneous"] != (len(farm["platforms"]) > 1):
        yield "farm.heterogeneous", "must match the distinct platform count"
    if controller is not None and max(controller["awake_counts"]) > len(farm["servers"]):
        yield "controller.awake_counts", "entries must not exceed the number of farm servers"
    if per_tenant and not tenant_names:
        yield "tenants.rows", "must not be empty in per-tenant mode"
    if not per_tenant and (tenant_names or tenants["isolation"] is not None):
        yield "tenants", "rows/isolation only apply in per-tenant mode"
    if len(set(tenant_names)) != len(tenant_names):
        yield "tenants.rows", "names must be unique"
    if per_tenant and sum(row["num_jobs"] for row in tenants["rows"]) != workload["num_jobs"]:
        yield "tenants.rows", "job counts must sum to workload.num_jobs (job conservation)"
    if any(row["name"] not in tenant_names for row in tenants["isolation"] or ()):
        yield "tenants.isolation", "names must match tenant rows"
    if abs(sum(report["state_selection_fractions"].values()) - 1.0) >= 1e-9:
        yield "state_selection_fractions", "must sum to 1"
    per_server = report["per_server"]
    if [entry["server"] for entry in per_server] != [s["name"] for s in farm["servers"]]:
        yield "per_server", "must list one entry per farm server, in server order"
    if sum(entry["num_jobs"] for entry in per_server) != workload["num_jobs"]:
        yield "per_server", "job counts must sum to workload.num_jobs (job conservation)"


#: The executable scenario-report schema; the module docstring's schema
#: block is its annotated copy (a tier-1 test keeps every key in both).
REPORT_TABLE = Obj(
    {
        "schema": Const(REPORT_SCHEMA),
        "scenario": Str(nonempty=True),
        "description": Str(nonempty=True),
        "seed": Int(),
        "backend": Const(REPORT_BACKEND),
        "search": Str(choices=SEARCHES),
        "parameters": Obj(),
        "workload": Obj(
            {
                "name": Str(nonempty=True),
                "mean_service_time_s": Num(positive=True),
                "num_jobs": Int(min=1),
                "duration_s": Num(min=0),
            }
        ),
        "farm": Obj(
            {
                "servers": List(Obj({"name": Str(), "platform": Str()}), nonempty=True),
                "platforms": List(Str(), nonempty=True),
                "heterogeneous": Bool(),
                "dispatcher": Str(nonempty=True),
            }
        ),
        "energy": Obj(
            {
                "total_joules": Num(min=0),
                "average_power_w": Num(min=0),
                "average_power_per_server_w": Num(min=0),
            }
        ),
        "response_time": Obj(
            {
                "mean_s": Num(min=0),
                "p50_s": Num(min=0),
                "p95_s": Num(min=0),
                "p99_s": Num(min=0),
                "normalized_mean": Num(min=0),
                "budget": Num(min=0),
                "meets_budget": Bool(),
            }
        ),
        "controller": Opt(
            Obj(
                {
                    "policy": Str(choices=CONTROLLER_POLICIES),
                    "min_awake": Int(min=1),
                    "setup_latency_s": Num(min=0),
                    "setup_energy_joules": Num(min=0),
                    "awake_counts": List(Int(min=0), nonempty=True),
                    "wake_transitions": Int(min=0),
                }
            )
        ),
        "tenants": Obj(
            {
                "mode": Str(choices=("none", *FARM_QOS_MODES)),
                "constraint": Opt(Str()),
                "rows": List(
                    Obj(
                        {
                            "name": Str(nonempty=True),
                            "weight": Num(positive=True),
                            "priority": Int(),
                            "qos": Str(),
                            "num_jobs": Int(min=0),
                            "mean_response_time_s": _METRIC,
                            "p95_s": _METRIC,
                            "p99_s": _METRIC,
                            "meets_budget": Bool(),
                            "slack": _METRIC,
                        }
                    )
                ),
                "isolation": Opt(
                    List(
                        Obj(
                            {
                                "name": Str(),
                                "combined_p95_s": _METRIC,
                                "solo_p95_s": _METRIC,
                                "combined_p99_s": _METRIC,
                                "solo_p99_s": _METRIC,
                                "p95_delta_s": _METRIC,
                                "p99_delta_s": _METRIC,
                                "meets_budget_combined": Bool(),
                                "meets_budget_solo": Bool(),
                                "interference_violation": Bool(),
                            }
                        )
                    )
                ),
            }
        ),
        "state_selection_fractions": Obj(values=Num(min=0), nonempty=True),
        "per_server": List(
            Obj(
                {
                    "server": Str(),
                    "num_jobs": Int(min=0),
                    "mean_response_time_s": _METRIC,
                    "average_power_w": _METRIC,
                }
            )
        ),
    },
    invariants=_report_invariants,
)

#: Peak design utilisation behind the ``--tenant ...:qos=...`` budget
#: families (matches the scenario library's baseline, the paper's 0.8).
_BASELINE_RHO_B = 0.8

#: Constraint families a ``--tenant`` flag may select for a tenant.
_TENANT_QOS_KINDS = ("mean", "p95", "p99")


def _finite_or_none(value: float) -> float | None:
    """JSON has no NaN/inf; undefined metrics become ``null``."""
    value = float(value)
    return value if math.isfinite(value) else None


def report_from_result(
    built: BuiltScenario,
    result: FarmResult,
    *,
    isolation: tuple[TenantIsolation, ...] | None = None,
) -> dict[str, Any]:
    """Assemble the schema-versioned report for one scenario run.

    Works for any :class:`BuiltScenario` — registered or hand-constructed —
    because everything the report needs is carried on the built object.
    *isolation* carries pre-computed combined-vs-solo rows (from
    :func:`repro.cluster.tenancy.isolation_report`) into the ``tenants``
    block; without it the block's ``isolation`` entry is ``null``.
    """
    p50, p95, p99 = result.response_time_percentiles(50.0, 95.0, 99.0)
    per_server = []
    for row in result.per_server_rows():
        per_server.append(
            {
                "server": row["server"],
                "num_jobs": int(row["num_jobs"]),
                "mean_response_time_s": _finite_or_none(row["mean_response_time_s"]),
                "average_power_w": _finite_or_none(row["average_power_w"]),
            }
        )
    servers = [
        {"name": spec.name, "platform": spec.power_model.name}
        for spec in built.farm.servers
    ]
    return {
        "schema": REPORT_SCHEMA,
        "scenario": built.name,
        "description": built.description,
        "seed": built.seed,
        "backend": REPORT_BACKEND,
        "search": built.search,
        "parameters": dict(built.parameters),
        "workload": {
            "name": built.spec.name,
            "mean_service_time_s": built.spec.mean_service_time,
            "num_jobs": built.num_jobs,
            "duration_s": built.duration,
        },
        "farm": {
            "servers": servers,
            "platforms": list(built.farm.platform_names),
            "heterogeneous": built.farm.is_heterogeneous,
            "dispatcher": type(built.farm.dispatcher).__name__,
        },
        "energy": {
            "total_joules": result.total_energy,
            "average_power_w": result.total_average_power,
            "average_power_per_server_w": result.average_power_per_server,
        },
        "response_time": {
            "mean_s": result.mean_response_time,
            "p50_s": p50,
            "p95_s": p95,
            "p99_s": p99,
            "normalized_mean": result.normalized_mean_response_time,
            "budget": result.response_time_budget,
            "meets_budget": bool(result.meets_budget),
        },
        "controller": _controller_block(built, result),
        "tenants": _tenants_block(built, result, isolation),
        "state_selection_fractions": result.state_selection_fractions(),
        "per_server": per_server,
    }


def _controller_block(
    built: BuiltScenario, result: FarmResult
) -> dict[str, Any] | None:
    """The v3 ``controller`` report section (``None`` on uncontrolled runs)."""
    controller = built.farm.controller
    if controller is None:
        return None
    transitions = result.wake_transitions or ()
    return {
        "policy": controller.policy_name,
        "min_awake": controller.min_awake,
        "setup_latency_s": controller.setup.latency_s,
        "setup_energy_joules": result.setup_energy,
        "awake_counts": [int(count) for count in (result.awake_counts or ())],
        "wake_transitions": sum(1 for _t, _s, kind in transitions if kind == "wake"),
    }


def _tenants_block(
    built: BuiltScenario,
    result: FarmResult,
    isolation: tuple[TenantIsolation, ...] | None,
) -> dict[str, Any]:
    """The v4 ``tenants`` report section (always present).

    ``mode`` is ``"none"`` when the farm carries no :class:`FarmQos` at
    all, else the qos mode; ``rows`` holds per-tenant outcomes (empty
    outside per-tenant mode, where there is nothing tenant-shaped to
    report).
    """
    qos = built.farm.qos
    if qos is None:
        return {"mode": "none", "constraint": None, "rows": [], "isolation": None}
    constraint = qos.composite_constraint()
    rows = [
        {
            "name": row.name,
            "weight": row.weight,
            "priority": row.priority,
            "qos": row.qos_description,
            "num_jobs": row.num_jobs,
            "mean_response_time_s": _finite_or_none(row.mean_response_time),
            "p95_s": _finite_or_none(row.p95),
            "p99_s": _finite_or_none(row.p99),
            "meets_budget": bool(row.meets_budget),
            "slack": _finite_or_none(row.slack),
        }
        for row in result.tenant_rows()
    ]
    isolation_rows = None
    if isolation is not None:
        isolation_rows = [
            {
                "name": row.name,
                "combined_p95_s": _finite_or_none(row.combined_p95),
                "solo_p95_s": _finite_or_none(row.solo_p95),
                "combined_p99_s": _finite_or_none(row.combined_p99),
                "solo_p99_s": _finite_or_none(row.solo_p99),
                "p95_delta_s": _finite_or_none(row.p95_delta),
                "p99_delta_s": _finite_or_none(row.p99_delta),
                "meets_budget_combined": bool(row.meets_budget_combined),
                "meets_budget_solo": bool(row.meets_budget_solo),
                "interference_violation": bool(row.interference_violation),
            }
            for row in isolation
        ]
    return {
        "mode": qos.mode,
        "constraint": None if constraint is None else constraint.describe(),
        "rows": rows,
        "isolation": isolation_rows,
    }


def run_scenario(
    name: str,
    *,
    seed: int = 0,
    search: str = DEFAULT_SEARCH,
    executor: Executor | str | None = None,
    max_workers: int | None = None,
    controller: FarmController | str | None = None,
    setup_latency_s: float | None = None,
    setup_energy_j: float | None = None,
    min_awake: int | None = None,
    qos: FarmQos | None = None,
    tenants: list[str] | None = None,
    isolation: bool = False,
    overrides: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build, run and report one registered scenario.

    *overrides* maps declared parameter names to values (unknown names are
    rejected by the scenario).  *executor*/*max_workers* select how the farm
    runs its per-server epoch loops (serial, or sharded across worker
    processes — the report is identical whichever executes, which is why
    the schema carries no executor field).  *controller* attaches a
    farm-level right-sizing controller (a
    :class:`~repro.cluster.controller.FarmController` or a policy name —
    with a name, *setup_latency_s*, *setup_energy_j* and *min_awake* flesh
    out its :class:`~repro.cluster.controller.SetupModel`),
    replacing any controller the scenario embedded.  *qos* attaches a
    farm-level QoS contract, replacing any the scenario embedded.
    *tenants* is a list of ``--tenant``-style specs
    (``"name:qos=p95:weight=2:priority=1"``) adjusting single tenants of a
    per-tenant scenario: budgets, dispatch weights and priorities are
    rebuilt (including the tenant-aware dispatcher's partitions), while the
    per-server policy-search budgets the builder embedded are untouched.
    *isolation* additionally runs each tenant's sub-stream solo and fills
    the report's ``tenants.isolation`` rows (per-tenant scenarios only).
    The returned report is already validated against
    :data:`REPORT_SCHEMA`.
    """
    overrides = dict(overrides or {})
    # Scenario.RESERVED_NAMES are build() keywords, not scenario parameters;
    # caught here they produce a pointer to the right flag instead of a
    # TypeError from the keyword splat below.
    reserved = sorted(set(overrides) & Scenario.RESERVED_NAMES)
    if reserved:
        raise ExperimentError(
            f"{', '.join(reserved)} cannot be set via overrides; use the "
            f"dedicated {'/'.join(sorted(Scenario.RESERVED_NAMES))} arguments "
            "(CLI: --seed / --search-mode / --executor / "
            "--controller / --tenant)"
        )
    setup_flags = (setup_latency_s, setup_energy_j, min_awake)
    if controller is None and any(flag is not None for flag in setup_flags):
        raise ExperimentError(
            "--setup-latency / --setup-energy / --min-awake configure the "
            "controller and require --controller"
        )
    if isinstance(controller, str):
        controller = FarmController(
            policy=controller,
            setup=SetupModel(
                latency_s=setup_latency_s if setup_latency_s is not None else 0.0,
                energy_j=setup_energy_j,
            ),
            min_awake=min_awake if min_awake is not None else 1,
        )
    elif controller is not None and any(flag is not None for flag in setup_flags):
        raise ExperimentError(
            "setup_latency_s / setup_energy_j / min_awake only apply when "
            "the controller is given as a policy name; configure the "
            "FarmController instance directly instead"
        )
    built = get_scenario(name).build(
        seed=seed,
        search=search,
        executor=executor,
        controller=controller,
        qos=qos,
        **overrides,
    )
    if tenants:
        built = _apply_tenant_overrides(built, tenants)
    farm = built.farm
    if max_workers is not None:
        # dataclasses.replace re-runs ServerFarm.__post_init__, so an invalid
        # worker count is rejected rather than silently running serially.
        farm = dataclasses.replace(farm, max_workers=max_workers)
    isolation_rows: tuple[TenantIsolation, ...] | None = None
    if isolation:
        farm_qos = farm.qos
        if farm_qos is None or not farm_qos.is_per_tenant:
            raise ExperimentError(
                "--isolation needs a per-tenant scenario (farm qos built "
                f"with FarmQos.per_tenant); scenario {name!r} has none"
            )
        # isolation_report runs the combined trace once and reuses it, so
        # the combined numbers in the report are the same run either way.
        result, isolation_rows = isolation_report(farm, built.jobs)
    else:
        result = farm.run(built.jobs)
    # The report describes what actually ran: surface tenant overrides too.
    built = dataclasses.replace(built, farm=farm)
    report = report_from_result(built, result, isolation=isolation_rows)
    validate_report(report)
    return report


def _parse_tenant_spec(text: str) -> tuple[str, dict[str, Any]]:
    """Parse one ``--tenant name:key=value[:key=value...]`` flag.

    Keys: ``qos`` (one of ``mean``/``p95``/``p99``, selecting the
    baseline-derived constraint family), ``weight`` (positive float) and
    ``priority`` (int).
    """
    name, separator, rest = text.partition(":")
    if not separator or not name or not rest:
        raise ExperimentError(
            f"tenant spec {text!r} must have the form "
            "name:key=value[:key=value...]"
        )
    settings: dict[str, Any] = {}
    for part in rest.split(":"):
        key, assign, raw = part.partition("=")
        if not assign or not key:
            raise ExperimentError(
                f"tenant setting {part!r} (in {text!r}) must have the form "
                "key=value"
            )
        if key == "qos":
            if raw not in _TENANT_QOS_KINDS:
                raise ExperimentError(
                    f"tenant qos must be one of {', '.join(_TENANT_QOS_KINDS)}, "
                    f"got {raw!r}"
                )
            settings[key] = raw
        elif key == "weight":
            try:
                weight = float(raw)
            except ValueError:
                raise ExperimentError(
                    f"tenant weight must be a number, got {raw!r}"
                ) from None
            if not math.isfinite(weight) or weight <= 0:
                raise ExperimentError(
                    f"tenant weight must be positive and finite, got {raw!r}"
                )
            settings[key] = weight
        elif key == "priority":
            try:
                settings[key] = int(raw)
            except ValueError:
                raise ExperimentError(
                    f"tenant priority must be an integer, got {raw!r}"
                ) from None
        else:
            raise ExperimentError(
                f"unknown tenant setting {key!r} (in {text!r}); "
                "expected qos, weight or priority"
            )
    return name, settings


def _apply_tenant_overrides(
    built: BuiltScenario, tenant_specs: list[str]
) -> BuiltScenario:
    """Rebuild the farm's per-tenant :class:`FarmQos` from ``--tenant`` flags.

    The tenant-aware dispatcher (if any) is rebuilt over the adjusted
    tenant table so weights and priorities take effect in dispatch, not
    just in reporting.
    """
    farm = built.farm
    farm_qos = farm.qos
    if farm_qos is None or not farm_qos.is_per_tenant:
        raise ExperimentError(
            "--tenant adjusts a per-tenant scenario (farm qos built with "
            f"FarmQos.per_tenant); scenario {built.name!r} has none"
        )
    table = list(farm_qos.tenants)
    names = [tenant.name for tenant in table]
    for text in tenant_specs:
        name, settings = _parse_tenant_spec(text)
        if name not in names:
            raise ExperimentError(
                f"unknown tenant {name!r}; scenario {built.name!r} declares: "
                f"{', '.join(names)}"
            )
        index = names.index(name)
        spec = table[index]
        changes: dict[str, Any] = {}
        if "qos" in settings:
            kind = settings["qos"]
            if kind == "mean":
                constraint: QosConstraint = mean_qos_from_baseline(_BASELINE_RHO_B)
            else:
                constraint = percentile_qos_from_baseline(
                    _BASELINE_RHO_B,
                    built.spec.mean_service_time,
                    percentile=95.0 if kind == "p95" else 99.0,
                )
            changes["qos"] = constraint
        if "weight" in settings:
            changes["weight"] = settings["weight"]
        if "priority" in settings:
            changes["priority"] = settings["priority"]
        table[index] = dataclasses.replace(spec, **changes)
    new_qos = FarmQos.per_tenant(*table)
    dispatcher = farm.dispatcher
    with_tenants = getattr(dispatcher, "with_tenants", None)
    if callable(with_tenants):
        dispatcher = with_tenants(tuple(table))
    farm = dataclasses.replace(farm, qos=new_qos, dispatcher=dispatcher)
    return dataclasses.replace(built, farm=farm)


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


def validate_report(report: Any) -> None:
    """Check *report* against the ``repro.scenario-report/v4`` schema.

    Raises :class:`~repro.exceptions.ExperimentError` on the first violation,
    naming its path; returns ``None`` on success.  The check is
    :data:`REPORT_TABLE` and its invariants — it does not re-run the
    scenario.
    """
    validate(report, REPORT_TABLE, ExperimentError, "scenario report")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _parse_override(text: str) -> tuple[str, Any]:
    """Parse a ``--set key=value`` flag; values use Python literal syntax."""
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise ExperimentError(
            f"override {text!r} must have the form key=value"
        )
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw  # plain strings may be given unquoted
    return key, value


def list_scenarios_main() -> int:
    """CLI for ``python -m repro.experiments list-scenarios``."""
    catalog = scenario_catalog()
    for name in available_scenarios():
        print(f"{name}: {catalog[name]['description']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI for ``python -m repro.experiments run-scenario``."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments run-scenario",
        description="Run a registered scenario and print its JSON report.",
    )
    parser.add_argument(
        "scenario",
        help="scenario name (see `python -m repro.experiments list-scenarios`)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--search-mode",
        choices=list(SEARCHES),
        default=DEFAULT_SEARCH,
        help=(
            "per-epoch policy-search mode: 'frontier' (default) probes the "
            "candidate grid in proven power-floor order, 'full' walks all of "
            "it as the oracle (selected policies are identical either way)"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=list(EXECUTORS),
        default=None,
        help=(
            "how per-server epoch loops execute: 'serial' or 'process' "
            "(shards the farm across worker processes for multi-core "
            "runs); the report is identical whichever executes"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker-process count for --executor process (default: the "
            "machine's CPU count; without --executor, N > 1 selects the "
            "process executor)"
        ),
    )
    parser.add_argument(
        "--controller",
        choices=list(CONTROLLER_POLICIES),
        default=None,
        help=(
            "attach a farm-level right-sizing controller with this policy "
            "(replacing any controller the scenario embeds); 'always-on' with "
            "zero setup costs reproduces the controller-less run bit for bit"
        ),
    )
    parser.add_argument(
        "--setup-latency",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "seconds a woken server needs before it can serve (requires "
            "--controller; default 0)"
        ),
    )
    parser.add_argument(
        "--setup-energy",
        type=float,
        default=None,
        metavar="JOULES",
        help=(
            "energy charged per wake transition (requires --controller; "
            "default: setup latency at the woken server's peak power)"
        ),
    )
    parser.add_argument(
        "--min-awake",
        type=int,
        default=None,
        metavar="N",
        help=(
            "servers the controller must keep serviceable at all times "
            "(requires --controller; default 1)"
        ),
    )
    parser.add_argument(
        "--tenant",
        dest="tenants",
        action="append",
        default=[],
        metavar="NAME:KEY=VALUE[:KEY=VALUE...]",
        help=(
            "override a declared tenant of a per-tenant scenario "
            "(repeatable); keys: qos=mean|p95|p99, weight=FLOAT, "
            "priority=INT, e.g. --tenant victim:qos=p95:weight=2"
        ),
    )
    parser.add_argument(
        "--isolation",
        action="store_true",
        help=(
            "also run each tenant solo and report interference deltas "
            "(per-tenant scenarios only)"
        ),
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a declared scenario parameter (repeatable)",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE",
    )
    arguments = parser.parse_args(argv)
    if arguments.workers is not None and arguments.workers < 1:
        parser.error(f"--workers must be at least 1, got {arguments.workers}")

    try:
        if arguments.output:
            check_output_file(arguments.output)
        overrides = dict(_parse_override(item) for item in arguments.overrides)
        report = run_scenario(
            arguments.scenario,
            seed=arguments.seed,
            search=arguments.search_mode,
            executor=arguments.executor,
            max_workers=arguments.workers,
            controller=arguments.controller,
            setup_latency_s=arguments.setup_latency,
            setup_energy_j=arguments.setup_energy,
            min_awake=arguments.min_awake,
            tenants=arguments.tenants,
            isolation=arguments.isolation,
            overrides=overrides,
        )
        text = json.dumps(report, indent=2, sort_keys=False)
        print(text)
        if arguments.output:
            write_output_file(arguments.output, text + "\n")
    except (ScenarioError, ConfigurationError, ExperimentError) as error:
        # A mistyped name, --set, flag combination or unwritable --output:
        # one line, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
