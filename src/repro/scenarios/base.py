"""Scenario registry: named, parameterised workload + farm configurations.

A *scenario* bundles everything one experiment run needs — a workload
specification, a concrete job stream, and a (possibly heterogeneous) server
farm — behind a name and a declared parameter list.  The paper judges
SleepScale on a handful of workload shapes; the registry holds the ones
this reproduction evaluates it on.

The contract — each parameter is stated once, in its
:class:`ScenarioParameter` declaration, range rule included:

* :meth:`Scenario.resolve` lays the overrides over the declared defaults
  and checks each value's type and range rule, then the scenario's rules
  across parameters (say, a trough load at most the peak), building
  nothing;
* :meth:`Scenario.build` resolves and calls the builder with one
  read-only :class:`ScenarioArgs` namespace: the resolved parameters plus
  ``seed`` and ``search``;
* the builder returns ``(spec, jobs, farm, normalised)``, where
  ``normalised`` maps the few parameters it normalised (say, a duration
  rounded to whole minutes) to the values it actually used;
* :meth:`Scenario.build` assembles the :class:`BuiltScenario` — its
  ``parameters`` are the resolved values with the normalised ones laid
  over them, in declaration order — and applies the executor, controller
  and qos overrides to the farm;
* :func:`register_scenario` (usually via the :func:`scenario` decorator)
  publishes it under a unique kebab-case name;
* :func:`get_scenario` / :func:`available_scenarios` /
  :func:`scenario_catalog` are the lookup surface the CLI, the docs and the
  tests share, so a scenario that builds also appears in ``list-scenarios``
  and in the smoke matrix automatically.

Builders must be deterministic given ``seed`` and hand ``search`` to every
policy-search strategy they create.
"""

from __future__ import annotations

import dataclasses
import itertools
import types
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping
from typing import Any

from repro.cluster.controller import FarmController
from repro.cluster.farm import ServerFarm
from repro.cluster.tenancy import FarmQos, farm_qos_type_error
from repro.concurrency import Executor, validate_executor
from repro.core.search import DEFAULT_SEARCH, validate_search
from repro.exceptions import ScenarioError
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import WorkloadSpec


#: A declared parameter's range rule: called with the parameter's name and
#: its resolved value, it returns the failure message, or ``None``.
ParameterCheck = Callable[[str, Any], "str | None"]

#: A scenario's rule across parameters: called with every resolved value,
#: it returns the failure message, or ``None``.
ScenarioCheck = Callable[[Mapping[str, Any]], "str | None"]


@dataclass(frozen=True)
class ScenarioParameter:
    """One declared knob of a scenario: name, default, documentation, rule.

    ``check``, when given, is the parameter's range rule;
    :meth:`Scenario.resolve` applies it to every value, so a bad value
    fails before anything is built or written.
    """

    name: str
    default: Any
    description: str
    check: ParameterCheck | None = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ScenarioError(
                f"parameter name must be a valid identifier, got {self.name!r}"
            )


@dataclass(frozen=True)
class BuiltScenario:
    """A fully materialised scenario, ready to run.

    ``jobs`` is the concrete arrival stream (absolute arrival times starting
    near zero), ``spec`` the :class:`~repro.workloads.spec.WorkloadSpec`
    describing its statistics (used for normalisation and synthetic
    characterisation), and ``farm`` the server fleet that will serve it.
    """

    name: str
    spec: WorkloadSpec
    jobs: JobTrace
    farm: ServerFarm
    parameters: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    #: Policy-search mode every search strategy of the farm was built with.
    search: str = DEFAULT_SEARCH
    #: Filled in by :meth:`Scenario.build` from the scenario's description,
    #: so reports never need the registry.
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.jobs) == 0:
            raise ScenarioError(
                f"scenario {self.name!r} built an empty job stream"
            )
        validate_search(self.search)

    @property
    def num_jobs(self) -> int:
        """Number of jobs in the built stream."""
        return len(self.jobs)

    @property
    def duration(self) -> float:
        """Time span of the built stream (first to last arrival), seconds."""
        return self.jobs.duration

    def run(self):
        """Run the farm over the built job stream (returns a ``FarmResult``)."""
        return self.farm.run(self.jobs)


class ScenarioArgs(types.SimpleNamespace):
    """The one argument of a scenario builder, read-only.

    Its attributes are the declared parameters (defaults with the overrides
    applied) plus ``seed`` and ``search``.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"scenario arguments are read-only; cannot set {name!r}")


#: What a builder returns: spec, jobs, farm and the values of the declared
#: parameters it normalised.
BuilderResult = tuple[WorkloadSpec, JobTrace, ServerFarm, Mapping[str, Any]]

#: Signature every scenario builder implements.
ScenarioBuilder = Callable[[ScenarioArgs], BuilderResult]


@dataclass(frozen=True)
class Scenario:
    """A registered scenario: builder plus declared parameters."""

    name: str
    description: str
    builder: ScenarioBuilder
    parameters: tuple[ScenarioParameter, ...] = ()
    #: Rules across parameters, applied after every parameter's own rule.
    checks: tuple[ScenarioCheck, ...] = ()

    #: Keywords owned by :meth:`build` itself; a declared parameter (or an
    #: override splatted into ``build``) must never collide with them.
    RESERVED_NAMES = frozenset(
        {
            "seed",
            "search",
            "executor",
            "controller",
            "qos",
        }
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("a scenario needs a non-empty name")
        names = [parameter.name for parameter in self.parameters]
        if len(set(names)) != len(names):
            raise ScenarioError(
                f"scenario {self.name!r} declares duplicate parameters: {names}"
            )
        reserved = sorted(self.RESERVED_NAMES.intersection(names))
        if reserved:
            raise ScenarioError(
                f"scenario {self.name!r} declares reserved parameter name(s) "
                f"{reserved}; {sorted(self.RESERVED_NAMES)} are handled by "
                "build() itself"
            )

    def parameter_defaults(self) -> dict[str, Any]:
        """Declared parameters and their default values."""
        return {parameter.name: parameter.default for parameter in self.parameters}

    def resolve(
        self,
        overrides: Mapping[str, Any],
        *,
        seed: int = 0,
        search: str = DEFAULT_SEARCH,
        executor: Executor | str | None = None,
        controller: FarmController | str | None = None,
        qos: FarmQos | None = None,
    ) -> tuple[dict[str, Any], FarmController | None]:
        """Check one build's overrides and knobs without building anything.

        Returns the declared parameters with *overrides* laid over the
        defaults, and the controller (a policy name becomes a
        :class:`~repro.cluster.controller.FarmController`).  :meth:`build`
        calls this first, and ``run_campaign`` calls it for every cell of a
        scenario campaign before it writes the store.  Each value must have
        its default's type and meet its parameter's ``check``, and the
        values together must meet the scenario's ``checks``.
        """
        if seed < 0:
            raise ScenarioError(f"seed must be non-negative, got {seed}")
        validate_search(search)
        validate_executor(executor)
        if isinstance(controller, str):
            controller = FarmController(policy=controller)
        elif controller is not None and not isinstance(controller, FarmController):
            raise ScenarioError(
                "controller must be a FarmController, a policy name or None, "
                f"got {type(controller).__name__}"
            )
        if qos is not None and not isinstance(qos, FarmQos):
            raise ScenarioError(farm_qos_type_error(qos))
        values = self.parameter_defaults()
        unknown = sorted(set(overrides) - set(values))
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r} has no parameter(s) {unknown}; "
                f"declared: {sorted(values)}"
            )
        for key, value in overrides.items():
            # Type-check against the declared default so a mistyped CLI value
            # ("--set duration_minutes=abc") fails here with a clear message
            # instead of a TypeError somewhere inside the builder.
            default = values[key]
            if isinstance(default, bool) != isinstance(value, bool):
                expected, got = type(default).__name__, value
            elif isinstance(default, (int, float)) and not isinstance(
                value, (int, float)
            ):
                expected, got = "number", value
            elif isinstance(default, str) and not isinstance(value, str):
                expected, got = "string", value
            else:
                values[key] = value
                continue
            raise ScenarioError(
                f"parameter {key!r} of scenario {self.name!r} expects a "
                f"{expected} (default {default!r}), got {got!r}"
            )
        # Lazily, in order: a rule across parameters may rely on each
        # parameter's own rule having passed.
        failures = itertools.chain(
            (
                parameter.check(parameter.name, values[parameter.name])
                for parameter in self.parameters
                if parameter.check is not None
            ),
            (check(values) for check in self.checks),
        )
        for failure in failures:
            if failure is not None:
                raise ScenarioError(failure)
        return values, controller

    def build(
        self,
        *,
        seed: int = 0,
        search: str = DEFAULT_SEARCH,
        executor: Executor | str | None = None,
        controller: FarmController | str | None = None,
        qos: FarmQos | None = None,
        **overrides: Any,
    ) -> BuiltScenario:
        """Materialise the scenario with *overrides* applied over the defaults.

        Unknown override names are rejected rather than silently ignored, so
        a typo in a CLI ``--set`` flag fails loudly.  ``search`` selects the
        per-epoch policy-search mode of every search strategy the scenario
        builds: ``"frontier"`` (the default) or its oracle ``"full"``.  Both
        select identical policies, but only ``"full"`` keeps the whole
        characterisation table in ``last_selection``; frontier keeps the
        winning row.
        ``executor`` selects how the built farm runs its per-server epoch
        loops (``"serial"``/``"process"``); it does not change results — the
        executor parity suite pins this — so builders never see it; it is
        applied to the built farm directly.  ``controller`` attaches a
        farm-level right-sizing controller (a
        :class:`~repro.cluster.controller.FarmController` instance, or a
        policy name building one with default — free — setup costs) to the
        built farm, replacing any controller the builder embedded; unlike
        the executor it *does* change results, except for the setup-free
        ``"always-on"`` identity the parity suite pins.
        ``qos`` attaches a farm-level QoS contract (a
        :class:`~repro.cluster.tenancy.FarmQos`; wrap a bare constraint as
        ``FarmQos.strictest(constraint)``) to the built farm, replacing any
        the builder embedded; it is result-invisible at farm level —
        ``strictest`` is pinned bit-identical to no qos at all, and
        per-tenant mode only adds accounting.
        """
        values, controller = self.resolve(
            overrides,
            seed=seed,
            search=search,
            executor=executor,
            controller=controller,
            qos=qos,
        )
        spec, jobs, farm, normalised = self.builder(
            ScenarioArgs(**values, seed=seed, search=search)
        )
        undeclared = sorted(set(normalised) - set(values))
        if undeclared:
            raise ScenarioError(
                f"scenario {self.name!r} normalised undeclared parameter(s) "
                f"{undeclared}"
            )
        farm_overrides = {
            key: value
            for key, value in (
                ("executor", executor),
                ("controller", controller),
                ("qos", qos),
            )
            if value is not None
        }
        if farm_overrides:
            farm = dataclasses.replace(farm, **farm_overrides)
        return BuiltScenario(
            name=self.name,
            spec=spec,
            jobs=jobs,
            farm=farm,
            parameters={**values, **normalised},
            seed=seed,
            search=search,
            description=self.description,
        )


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario_obj: Scenario) -> Scenario:
    """Publish *scenario_obj* in the global registry (names must be unique)."""
    if scenario_obj.name in _REGISTRY:
        raise ScenarioError(
            f"a scenario named {scenario_obj.name!r} is already registered"
        )
    _REGISTRY[scenario_obj.name] = scenario_obj
    return scenario_obj


def scenario(
    name: str,
    description: str,
    parameters: tuple[ScenarioParameter, ...] = (),
    checks: tuple[ScenarioCheck, ...] = (),
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Decorator form of :func:`register_scenario` for builder functions."""

    def decorate(builder: ScenarioBuilder) -> ScenarioBuilder:
        register_scenario(
            Scenario(
                name=name,
                description=description,
                builder=builder,
                parameters=parameters,
                checks=checks,
            )
        )
        return builder

    return decorate


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name, with a helpful error for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError as error:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        ) from error


def available_scenarios() -> list[str]:
    """Names of every registered scenario, sorted alphabetically."""
    return sorted(_REGISTRY)


def scenario_catalog() -> dict[str, dict[str, Any]]:
    """Full catalogue: description and parameter table per scenario.

    This is the machine-readable form of the README scenario cookbook; the
    docs job checks the two never drift apart.
    """
    catalog: dict[str, dict[str, Any]] = {}
    for name in available_scenarios():
        entry = _REGISTRY[name]
        catalog[name] = {
            "description": entry.description,
            "parameters": {
                parameter.name: {
                    "default": parameter.default,
                    "description": parameter.description,
                }
                for parameter in entry.parameters
            },
        }
    return catalog
