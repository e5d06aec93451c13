"""Declarative campaign specifications: scenario-or-experiment × seeds × grid.

A :class:`CampaignSpec` describes a whole evaluation sweep — the kind of
target it runs (a registered experiment or a registered scenario), the seeds
it replicates over, and a cartesian parameter grid — as plain data.  The
spec enumerates its cells deterministically (:meth:`CampaignSpec.cells`):
seeds are the outermost axis, then the grid axes in declaration order, so
the same spec always produces the same cells in the same order with the
same content-addressed IDs.  That determinism is what makes campaigns
resumable: a restarted campaign recognises finished cells by ID and an
interrupted-then-resumed run is bit-identical to an uninterrupted one
(pinned by ``tests/campaigns/``).

Specs round-trip through JSON (:meth:`to_json_dict` /
:meth:`from_json_dict`), so a campaign can be a registered declaration
living beside ``EXPERIMENTS`` or a ``spec.json`` file handed to
``python -m repro.experiments run-campaign``.  Every axis value must be
JSON-representable; tuples are canonicalised to lists on the way in so a
spec built in Python and the same spec re-loaded from JSON enumerate
identical cell IDs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.core.search import SEARCH_FULL, validate_search
from repro.exceptions import CampaignError
from repro.simulation.kernel import BACKEND_VECTORIZED, validate_backend

#: The two campaign kinds: cells call a registered experiment's ``run``
#: callable, or build-and-run a registered scenario.
KIND_EXPERIMENT = "experiment"
KIND_SCENARIO = "scenario"
CAMPAIGN_KINDS = (KIND_EXPERIMENT, KIND_SCENARIO)

#: Grid axis names a scenario campaign routes to ``Scenario.build`` knobs
#: instead of declared-parameter overrides.  ``executor`` is deliberately
#: absent: it is a result-invisible execution knob and belongs to
#: ``run_campaign``, not to the result-defining grid.
SCENARIO_KNOB_AXES = frozenset({"backend", "search", "controller"})

#: Version tag stamped into (and required from) every serialised spec.
SPEC_SCHEMA = "repro.campaign-spec/v1"


def canonical_value(value: Any) -> Any:
    """*value* with tuples canonicalised to lists, recursively.

    Campaign axes must survive a JSON round trip unchanged; tuples do not
    (JSON renders them as arrays which load back as lists), so the spec
    canonicalises them up front and cell IDs are computed over the
    canonical form.  Anything JSON cannot represent at all is rejected.
    """
    if isinstance(value, (tuple, list)):
        return [canonical_value(item) for item in value]
    if isinstance(value, Mapping):
        canonical: dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CampaignError(
                    f"mapping keys in campaign values must be strings, got {key!r}"
                )
            canonical[key] = canonical_value(item)
        return canonical
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        # NaN/inf have no JSON representation and would poison the
        # content-addressed cell IDs; reject them at declaration time.
        try:
            json.dumps(value, allow_nan=False)
        except ValueError as error:
            raise CampaignError(
                f"campaign values must be finite, got {value!r}"
            ) from error
        return value
    raise CampaignError(
        "campaign values must be JSON-representable "
        f"(str/int/float/bool/None/list/dict), got {type(value).__name__}"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON text of *value* (sorted keys, no whitespace)."""
    return json.dumps(
        canonical_value(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


@dataclasses.dataclass(frozen=True)
class CampaignCell:
    """One cell of a campaign: a (seed, parameter assignment) point.

    ``cell_id`` is content-addressed — a digest of the kind, target, seed
    and canonical parameters — so it identifies the *work*, not the
    position: re-enumerating the same spec reproduces the same IDs, and a
    store record carrying a stale ID (the spec changed underneath it) is
    detected rather than trusted.
    """

    index: int
    seed: int
    params: Mapping[str, Any]
    kind: str
    target: str

    @property
    def cell_id(self) -> str:
        payload = {
            "kind": self.kind,
            "target": self.target,
            "seed": self.seed,
            "params": self.params,
        }
        digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
        return f"{self.index:05d}-{digest[:12]}"


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign: target × seeds × cartesian parameter grid.

    Parameters
    ----------
    name:
        Campaign name (registry key and store identity).
    kind:
        ``"experiment"`` (cells call the registered experiment's ``run``
        with the cell parameters as keyword arguments) or ``"scenario"``
        (cells build and run the registered scenario with the cell
        parameters as declared-parameter overrides).
    target:
        The registered experiment or scenario name cells execute.
    seeds:
        Base seeds to replicate the whole grid over (outermost axis).
    grid:
        Axis name → ordered values.  Cells enumerate the cartesian
        product in declaration order (last axis fastest).  For scenario
        campaigns an axis named in :data:`SCENARIO_KNOB_AXES` is routed
        to the corresponding ``Scenario.build`` knob.
    fixed:
        Parameters applied identically to every cell (merged under the
        grid axes; an axis name may not also be fixed).
    fast / num_jobs / frequency_step:
        The :class:`~repro.experiments.base.ExperimentConfig` knobs for
        experiment cells (ignored by scenario cells).
    backend / search:
        Simulation backend and policy-search mode for scenario cells
        (grid knob axes override them per cell).
    """

    name: str
    kind: str
    target: str
    description: str = ""
    seeds: tuple[int, ...] = (0,)
    grid: Mapping[str, tuple[Any, ...]] = dataclasses.field(default_factory=dict)
    fixed: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    fast: bool = True
    num_jobs: int | None = None
    frequency_step: float | None = None
    backend: str = BACKEND_VECTORIZED
    # Pinned in campaign.json/results.csv: a new default breaks --resume.
    search: str = SEARCH_FULL

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("a campaign needs a non-empty name")
        if self.kind not in CAMPAIGN_KINDS:
            raise CampaignError(
                f"campaign {self.name!r} kind must be one of {CAMPAIGN_KINDS}, "
                f"got {self.kind!r}"
            )
        if not self.target:
            raise CampaignError(f"campaign {self.name!r} needs a target")
        if not self.seeds:
            raise CampaignError(f"campaign {self.name!r} declares no seeds")
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise CampaignError(
                    f"campaign {self.name!r} seeds must be integers, got {seed!r}"
                )
            if seed < 0:
                raise CampaignError(
                    f"campaign {self.name!r} seeds must be non-negative, got {seed}"
                )
        if len(set(self.seeds)) != len(self.seeds):
            raise CampaignError(
                f"campaign {self.name!r} declares duplicate seeds: {self.seeds}"
            )
        if self.num_jobs is not None and self.num_jobs < 1:
            raise CampaignError(
                f"campaign {self.name!r} num_jobs must be at least 1, got {self.num_jobs}"
            )
        if self.frequency_step is not None and not 0 < self.frequency_step < math.inf:
            raise CampaignError(
                f"campaign {self.name!r} frequency_step must be positive and "
                f"finite, got {self.frequency_step}"
            )
        validate_backend(self.backend)
        validate_search(self.search)
        # Canonicalise (and thereby validate) the grid and fixed values so
        # cell IDs never depend on tuple-vs-list spelling.
        grid: dict[str, list[Any]] = {}
        for axis, values in dict(self.grid).items():
            if not isinstance(axis, str) or not axis.isidentifier():
                raise CampaignError(
                    f"campaign {self.name!r} axis name must be an identifier, "
                    f"got {axis!r}"
                )
            values = list(values)
            if not values:
                raise CampaignError(
                    f"campaign {self.name!r} axis {axis!r} declares no values"
                )
            canonical = [canonical_value(value) for value in values]
            texts = [canonical_json(value) for value in canonical]
            if len(set(texts)) != len(texts):
                raise CampaignError(
                    f"campaign {self.name!r} axis {axis!r} declares duplicate values"
                )
            grid[axis] = canonical
        fixed = {
            key: canonical_value(value) for key, value in dict(self.fixed).items()
        }
        overlap = sorted(set(grid) & set(fixed))
        if overlap:
            raise CampaignError(
                f"campaign {self.name!r} declares {overlap} both as grid axes "
                "and as fixed parameters"
            )
        if self.kind == KIND_EXPERIMENT:
            knobs = sorted(SCENARIO_KNOB_AXES & (set(grid) | set(fixed)))
            if knobs:
                raise CampaignError(
                    f"experiment campaign {self.name!r} cannot declare the "
                    f"scenario knob axes {knobs}"
                )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "seeds", tuple(self.seeds))

    # -- enumeration --------------------------------------------------------

    @property
    def num_cells(self) -> int:
        """Cells the spec enumerates (``len(seeds)`` × grid volume)."""
        cells = len(self.seeds)
        for values in self.grid.values():
            cells *= len(values)
        return cells

    def cells(self) -> list[CampaignCell]:
        """Every cell, in deterministic order (seed-major, last axis fastest)."""
        axes = list(self.grid)
        combinations: Iterable[tuple[Any, ...]] = itertools.product(
            *(self.grid[axis] for axis in axes)
        )
        result: list[CampaignCell] = []
        index = 0
        if axes:
            combination_list = list(combinations)
        else:
            combination_list = [()]
        for seed in self.seeds:
            for combination in combination_list:
                params = dict(self.fixed)
                params.update(zip(axes, combination, strict=True))
                result.append(
                    CampaignCell(
                        index=index,
                        seed=seed,
                        params=params,
                        kind=self.kind,
                        target=self.target,
                    )
                )
                index += 1
        return result

    # -- serialisation ------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        """The spec as a JSON-ready dictionary (schema-versioned)."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "description": self.description,
            "seeds": list(self.seeds),
            "grid": {axis: list(values) for axis, values in self.grid.items()},
            "fixed": dict(self.fixed),
            "fast": self.fast,
            "num_jobs": self.num_jobs,
            "frequency_step": self.frequency_step,
            "backend": self.backend,
            "search": self.search,
        }

    @classmethod
    def from_json_dict(cls, payload: Any) -> CampaignSpec:
        """Rebuild a spec from :meth:`to_json_dict` output (validating it)."""
        if not isinstance(payload, dict):
            raise CampaignError("a campaign spec document must be a JSON object")
        if payload.get("schema") != SPEC_SCHEMA:
            raise CampaignError(
                f"campaign spec schema must be {SPEC_SCHEMA!r}, "
                f"got {payload.get('schema')!r}"
            )
        known = {
            "schema",
            "name",
            "kind",
            "target",
            "description",
            "seeds",
            "grid",
            "fixed",
            "fast",
            "num_jobs",
            "frequency_step",
            "backend",
            "search",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise CampaignError(f"campaign spec has unknown keys: {unknown}")
        defaults = cls(name="_defaults", kind=KIND_EXPERIMENT, target="_")
        seeds = payload.get("seeds", list(defaults.seeds))
        if not isinstance(seeds, list):
            raise CampaignError("campaign spec 'seeds' must be a list")
        grid = payload.get("grid", {})
        if not isinstance(grid, dict):
            raise CampaignError("campaign spec 'grid' must be an object")
        try:
            return cls(
                name=payload.get("name", ""),
                kind=payload.get("kind", ""),
                target=payload.get("target", ""),
                description=payload.get("description", ""),
                seeds=tuple(seeds),
                grid={axis: tuple(values) for axis, values in grid.items()},
                fixed=payload.get("fixed", {}),
                fast=payload.get("fast", defaults.fast),
                num_jobs=payload.get("num_jobs", None),
                frequency_step=payload.get("frequency_step", None),
                backend=payload.get("backend", defaults.backend),
                search=payload.get("search", defaults.search),
            )
        except TypeError as error:
            raise CampaignError(f"malformed campaign spec: {error}") from error

    def canonical_text(self) -> str:
        """Canonical JSON identity of the spec (what the store pins)."""
        return canonical_json(self.to_json_dict())

    def replace(self, **changes: Any) -> CampaignSpec:
        """A copy of the spec with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)


def load_spec_file(path: Any) -> CampaignSpec:
    """Load and validate a ``spec.json`` campaign file."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise CampaignError(f"cannot read campaign spec {path}: {error}") from error
    return CampaignSpec.from_json_dict(payload)


def split_scenario_params(
    params: Mapping[str, Any],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Split scenario cell params into (build knobs, declared overrides)."""
    knobs = {key: value for key, value in params.items() if key in SCENARIO_KNOB_AXES}
    overrides = {
        key: value for key, value in params.items() if key not in SCENARIO_KNOB_AXES
    }
    return knobs, overrides


def _sequence_preview(values: Sequence[Any], limit: int = 4) -> str:
    preview = ", ".join(repr(value) for value in values[:limit])
    if len(values) > limit:
        preview += ", ..."
    return preview


def describe_spec(spec: CampaignSpec) -> str:
    """One-paragraph human summary (used by ``list-campaigns``)."""
    axes = [f"{len(spec.seeds)} seed(s)"]
    for axis, values in spec.grid.items():
        axes.append(f"{axis}={{{_sequence_preview(values)}}} ({len(values)})")
    return (
        f"{spec.name}: {spec.kind} {spec.target!r}, {spec.num_cells} cell(s) "
        f"[{'; '.join(axes)}]"
    )
