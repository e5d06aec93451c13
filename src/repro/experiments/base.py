"""Common infrastructure for the experiment harness.

Every table and figure of the paper's evaluation has a module in this
package exposing a ``run(config) -> ExperimentResult`` function.  An
:class:`ExperimentResult` is deliberately plain — a list of row dictionaries
plus free-form metadata — so the benchmark harness can print it, assert
qualitative expectations against it, and EXPERIMENTS.md can quote it
directly.

:class:`ExperimentConfig` carries the knobs shared by all experiments, most
importantly the ``fast`` flag: benchmarks run with ``fast=True`` (smaller job
counts, coarser grids, shorter trace windows) so the whole suite finishes in
minutes; the full-fidelity settings match the paper (10,000 jobs per policy,
fine frequency grids, 2 AM–8 PM evaluation windows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import Any

from repro.exceptions import ConfigurationError, ExperimentError


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment knobs.

    Parameters
    ----------
    fast:
        Use reduced job counts / grids / trace windows so the experiment
        completes in seconds rather than minutes.  The qualitative shape of
        every result is preserved; only statistical noise increases.
    seed:
        Base random seed; experiments derive per-case seeds from it.
    num_jobs:
        Jobs per policy evaluation for offline sweeps; ``None`` selects
        10,000 (the paper's setting) or 3,000 in fast mode.
    frequency_step:
        Frequency grid step for sweeps; ``None`` selects 0.01 (the paper's
        plotting grid) or 0.05 in fast mode.
    """

    fast: bool = True
    seed: int = 0
    num_jobs: int | None = None
    frequency_step: float | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

    @property
    def sweep_num_jobs(self) -> int:
        """Jobs per policy evaluation in frequency sweeps."""
        if self.num_jobs is not None:
            return self.num_jobs
        return 3_000 if self.fast else 10_000

    @property
    def sweep_frequency_step(self) -> float:
        """Frequency grid step in sweeps."""
        if self.frequency_step is not None:
            return self.frequency_step
        return 0.05 if self.fast else 0.01

    @property
    def selection_frequency_step(self) -> float:
        """Frequency grid step for policy-selection experiments (Figure 6)."""
        if self.frequency_step is not None:
            return self.frequency_step
        return 0.05 if self.fast else 0.02

    @property
    def runtime_hours(self) -> float:
        """Length of the utilisation-trace window for runtime experiments."""
        return 3.0 if self.fast else 18.0

    @property
    def characterization_jobs(self) -> int:
        """Jobs used by the runtime policy manager when no log is available."""
        return 1_000 if self.fast else 2_000


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one experiment: tabular rows plus metadata and notes."""

    name: str
    description: str
    rows: tuple[Mapping[str, Any], ...]
    metadata: Mapping[str, Any] = field(default_factory=dict)
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.rows:
            raise ExperimentError(f"experiment {self.name!r} produced no rows")

    def column(self, key: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row[key] for row in self.rows]

    def filtered(self, **criteria: Any) -> list[Mapping[str, Any]]:
        """Rows whose columns match every keyword criterion exactly."""
        selected = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                selected.append(row)
        return selected

    def unique(self, key: str) -> list[Any]:
        """Distinct values of one column, in first-appearance order."""
        seen: list[Any] = []
        for row in self.rows:
            value = row[key]
            if value not in seen:
                seen.append(value)
        return seen


def format_rows(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    float_format: str = "{:.4g}",
) -> str:
    """Render rows as a fixed-width text table (for benchmark output and docs)."""
    if not rows:
        raise ExperimentError("cannot format an empty row list")
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: Any) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths, strict=True))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths, strict=True)) for line in rendered
    )
    return f"{header}\n{separator}\n{body}"


def format_result(result: ExperimentResult, columns: Sequence[str] | None = None) -> str:
    """Render a full experiment result, including its notes."""
    parts = [f"== {result.name}: {result.description} =="]
    parts.append(format_rows(result.rows, columns))
    for note in result.notes:
        parts.append(f"note: {note}")
    return "\n".join(parts)
