"""The benchmark's reference workloads: set-up, run entry and output check.

Each workload is built from the ``--seed`` argument alone and runs through the
library's public entry points: ``Scenario.build`` -> ``ServerFarm.run`` ->
``report_from_result``/``validate_report`` for the farm workloads, and a
``CampaignSpec`` -> ``run_campaign`` for the campaign workload.  Every
workload uses the scenario defaults for search mode, simulation (kernel)
backend and trace backend, so a change to a user-visible default shows up.

Simulated statistics are outputs to check, not metrics: :meth:`check`
validates each run and returns a fingerprint that a change which only speeds
the simulator up must leave identical.  Floats enter the fingerprint rounded
to :data:`FINGERPRINT_DIGITS` significant digits, so a reordered sum that
moves the last bit of a total still matches while any real change does not.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaigns.engine import campaign_results, run_campaign
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import CampaignStore
from repro.experiments import scenario_runner
from repro.scenarios import get_scenario

FINGERPRINT_DIGITS = 10


@dataclass(frozen=True)
class Check:
    """Outcome of one output check: operations, failures and the fingerprint."""

    operations: int
    failed: int
    fingerprint: dict[str, Any]
    problems: tuple[str, ...] = ()


def _round(value: float) -> float:
    return float(f"{value:.{FINGERPRINT_DIGITS}g}")


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioWorkload:
    """One registered scenario built and run as a single operation."""

    name: str
    why: str
    scenario: str
    overrides: dict[str, Any]
    executor: str | None = None
    max_workers: int | None = None
    #: Set-ups timed per pass; the reported set-up time is their median.
    setup_repeats: int = 1

    @property
    def operations(self) -> int:
        """Operations one pass attempts: the scenario run."""
        return 1

    def params(self, seed: int) -> dict[str, Any]:
        """The resolved workload parameters (for the result's provenance)."""
        defaults = get_scenario(self.scenario).parameter_defaults()
        return {
            "scenario": self.scenario,
            "seed": seed,
            "parameters": {**defaults, **self.overrides},
            "executor": self.executor or "serial",
            "max_workers": self.max_workers,
        }

    def setup(self, seed: int) -> Any:
        """Build the scenario: trace generation plus farm construction."""
        built = get_scenario(self.scenario).build(
            seed=seed, executor=self.executor, **self.overrides
        )
        if self.max_workers is not None:
            farm = dataclasses.replace(built.farm, max_workers=self.max_workers)
            built = dataclasses.replace(built, farm=farm)
        return built

    def run(self, built: Any, work_dir: Path) -> Any:
        """The run entry: farm run plus report assembly and validation."""
        result = built.farm.run(built.jobs)
        report = scenario_runner.report_from_result(built, result)
        scenario_runner.validate_report(report)
        return result, report

    def check(self, built: Any, outcome: Any) -> Check:
        """Schema (already validated in :meth:`run`), job conservation, fingerprint."""
        result, report = outcome
        problems = []
        served = sum(server.num_jobs for server in result.active_servers)
        reported = sum(row["num_jobs"] for row in report["per_server"])
        if not served == reported == report["workload"]["num_jobs"] == built.num_jobs:
            problems.append(
                f"jobs not conserved: {built.num_jobs} generated, {served} served, "
                f"{reported} reported"
            )
        epochs = [
            f"{name}|{epoch.index}|{epoch.policy_label}|{epoch.sleep_state}|"
            f"{epoch.selected_frequency:.9f}"
            for name, server in zip(result.server_names, result.per_server, strict=True)
            if server is not None
            for epoch in server.epochs
        ]
        fingerprint = {
            "total_energy_j": _round(report["energy"]["total_joules"]),
            "p95_s": _round(report["response_time"]["p95_s"]),
            "meets_budget": report["response_time"]["meets_budget"],
            "epochs": len(epochs),
            "decisions_sha256": _sha256(epochs),
        }
        return Check(1, int(bool(problems)), fingerprint, tuple(problems))

    def cache_stats(self, built: Any, outcome: Any) -> tuple[int, int]:
        """Characterisation-cache (hits, lookups) of the run, parent and shards."""
        hits = lookups = 0
        if built.farm.search_cache is not None:
            stats = built.farm.search_cache.stats
            hits += stats.table_hits + stats.selection_hits + stats.kernel_hits
            lookups += (
                stats.table_hits + stats.selection_hits + stats.kernel_hits
                + stats.table_misses + stats.selection_misses + stats.kernel_misses
            )
        for server in outcome[0].active_servers:
            extra = server.extra
            for kind in ("table", "selection", "kernel"):
                shard_hits = int(extra.get(f"process_cache_{kind}_hits", 0))
                hits += shard_hits
                lookups += shard_hits + int(extra.get(f"process_cache_{kind}_misses", 0))
        return hits, lookups


@dataclass(frozen=True)
class CampaignWorkload:
    """A scenario campaign declared here; each cell is one operation."""

    name: str
    why: str
    target: str
    seeds_per_run: int
    grid: dict[str, tuple[Any, ...]]
    fixed: dict[str, Any]
    setup_repeats: int = 50

    @property
    def operations(self) -> int:
        """Operations one pass attempts: every cell of the campaign."""
        return self.seeds_per_run * math.prod(len(v) for v in self.grid.values())

    def _seeds(self, seed: int) -> tuple[int, ...]:
        first = seed * self.seeds_per_run
        return tuple(range(first, first + self.seeds_per_run))

    def params(self, seed: int) -> dict[str, Any]:
        return {
            "target": self.target,
            "seeds": list(self._seeds(seed)),
            "grid": {axis: list(values) for axis, values in self.grid.items()},
            "fixed": dict(self.fixed),
        }

    def setup(self, seed: int) -> Any:
        """Campaign-spec construction (validation and canonicalisation)."""
        return CampaignSpec(
            name=f"perfbench-{self.name}",
            kind="scenario",
            target=self.target,
            seeds=self._seeds(seed),
            grid=self.grid,
            fixed=self.fixed,
        )

    def run(self, spec: CampaignSpec, work_dir: Path) -> Any:
        """The run entry: the whole campaign into a fresh store under *work_dir*."""
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=work_dir))
        try:
            return store_dir, run_campaign(spec, store_dir)
        except BaseException:
            shutil.rmtree(store_dir, ignore_errors=True)
            raise

    def check(self, spec: CampaignSpec, outcome: Any) -> Check:
        """Every cell's record and job conservation, then the results.csv digest."""
        store_dir, run = outcome
        try:
            cells = self.operations
            problems = []
            if not run.completed or run.results_path is None:
                return Check(cells, cells, {}, ("campaign did not complete",))
            # campaign_results re-validates every record against its schema.
            for record in campaign_results(CampaignStore(store_dir), spec):
                report = record["result"]
                reported = sum(row["num_jobs"] for row in report["per_server"])
                if reported != report["workload"]["num_jobs"]:
                    problems.append(
                        f"cell {record['cell_id']}: jobs not conserved "
                        f"({report['workload']['num_jobs']} generated, {reported} served)"
                    )
            rows = list(csv.reader(io.StringIO(run.results_path.read_text("utf-8"))))
            fingerprint = {
                "cells": len(rows) - 1,
                "results_csv_sha256": _sha256([",".join(_normalise(r)) for r in rows]),
            }
            return Check(cells, len(problems), fingerprint, tuple(problems))
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def cache_stats(self, spec: CampaignSpec, outcome: Any) -> tuple[int, int]:
        # Race-to-halt servers do no policy search, hence no cache lookups.
        return 0, 0


def _normalise(row: list[str]) -> list[str]:
    """CSV fields with floats rounded like every other fingerprint float."""
    fields = []
    for text in row:
        try:
            number = float(text)
        except ValueError:
            fields.append(text)
            continue
        fields.append(text if text.lstrip("-").isdigit() else repr(_round(number)))
    return fields


WORKLOADS: dict[str, ScenarioWorkload | CampaignWorkload] = {
    workload.name: workload
    for workload in (
        ScenarioWorkload(
            name="search-farm",
            why=(
                "16 always-active servers, 64 per-epoch policy searches over 97k "
                "jobs: search, kernel, power model and enumeration are ~90% of the run"
            ),
            scenario="mega-farm",
            overrides={"xeon_servers": 8, "atom_servers": 8, "duration_minutes": 8},
        ),
        ScenarioWorkload(
            name="stream-farm",
            why=(
                "240k jobs streamed in 32768-job chunks through power-aware dispatch "
                "that parks 11 of 16 servers: idle accounting leads, then streaming "
                "feed and dispatch"
            ),
            scenario="farm-scale",
            overrides={"duration_minutes": 24, "utilization": 0.7},
        ),
        CampaignWorkload(
            name="autoscale-campaign",
            why=(
                "24 small controlled runs (8 seeds x 3 right-sizing policies): fixed "
                "per-run costs, controller, dispatch, campaign I/O; no policy search"
            ),
            target="autoscale-diurnal",
            seeds_per_run=8,
            grid={"policy": ("always-on", "reactive", "predictive")},
            fixed={"workload": "google", "duration_minutes": 10},
        ),
        ScenarioWorkload(
            name="sharded-farm",
            why=(
                "32 servers sharded over 2 worker processes: the only workload that "
                "crosses the process boundary (shard grouping, pickling, pool start-up)"
            ),
            scenario="mega-farm",
            overrides={"xeon_servers": 16, "atom_servers": 16, "duration_minutes": 8},
            executor="process",
            max_workers=2,
        ),
    )
}
