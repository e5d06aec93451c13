"""Frontier-vs-full search fuzz: 1,400 seeded draws, 0 mismatches allowed.

Each of the first 1,200 draws is one case of
``tests/core/test_search.py::_assert_equivalent``: a policy-space shape, a
QoS type, a platform preset, a frequency step, a utilisation and a job
stream (one draw in eight is short: 250 jobs at step 0.05).  The last 200 draw the regime where QoS slack
falls as frequency rises: a C6S3-only space, exponential 5 or 50 ms jobs,
and a mean budget inside a step where the ``full`` table's mu*E[R] rises
with frequency (a draw whose column has no such step is counted and not
compared).  Every draw comes from a generator seeded with ``zlib.crc32`` of
the draw's name (never ``hash()``, which changes with ``PYTHONHASHSEED``),
so every run draws the same cases.  The frontier and the full-grid oracle
must select the same policy with the same feasibility and power.

Prints the number of draws and mismatches, the sleep-state columns the
frontier skipped on their proven power floors and on their proven response
floors (every cell over a mean-response budget), the cells it skipped on
their own response floors, the grid cells it evaluated out of those it
saw (the probe cost of the bounds), and the rising-step draws compared, and
exits 1 on any mismatch.  Run from the repository root (no arguments; about
20 s on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/search_fuzz.py
"""

from __future__ import annotations

import sys
import zlib
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.core.qos import MeanResponseTimeConstraint  # noqa: E402
from repro.policies.space import single_state_space  # noqa: E402
from repro.power.platform import atom_power_model, xeon_power_model  # noqa: E402
from repro.power.states import C6_S3  # noqa: E402
from repro.workloads import dns_workload  # noqa: E402
from tests.core.test_search import (  # noqa: E402
    _assert_equivalent,
    _assert_selects_like_full,
    _exponential_trace,
    _rising_step_budgets,
)

DRAWS = 1_200
RISING_DRAWS = 200
SPACE_KINDS = ("full", "single", "dvfs")
QOS_KINDS = ("mean", "percentile")
#: One draw in this many is short (250 jobs at step 0.05, as the tier-1
#: fuzz's short draws); the rest draw 700 jobs at step 0.05 or 0.02.
SHORT_EVERY = 8


def main() -> int:
    models = (xeon_power_model(), atom_power_model())
    dns = dns_workload(empirical=False)
    mismatches = pruned = infeasible = proven = evaluated = seen = 0
    for index in range(DRAWS):
        rng = np.random.default_rng(zlib.crc32(f"search-fuzz/{index}".encode()))
        short = index % SHORT_EVERY == 0
        space_kind = SPACE_KINDS[int(rng.integers(len(SPACE_KINDS)))]
        qos_kind = QOS_KINDS[int(rng.integers(len(QOS_KINDS)))]
        case = {
            "power_model": models[int(rng.integers(len(models)))],
            "dns": dns,
            "space_kind": space_kind,
            "qos_kind": qos_kind,
            "step": 0.05 if short else (0.05, 0.02)[int(rng.integers(2))],
            "utilization": float(rng.uniform(0.02, 0.95)),
            "jobs_seed": int(rng.integers(1 << 30)),
            "num_jobs": 250 if short else 700,
        }
        try:
            stats = _assert_equivalent(**case)
        except AssertionError:
            mismatches += 1
            shown = {key: value for key, value in case.items() if key != "dns"}
            shown["power_model"] = case["power_model"].name
            print(f"mismatch on draw {index}: {shown}")
            continue
        pruned += stats.pruned_columns
        infeasible += stats.infeasible_columns
        proven += stats.proven_cells
        evaluated += stats.candidates_evaluated
        seen += stats.candidates_seen
    rising = 0
    for index in range(RISING_DRAWS):
        rng = np.random.default_rng(zlib.crc32(f"search-fuzz/rising/{index}".encode()))
        power_model = models[int(rng.integers(len(models)))]
        step = (0.05, 0.02)[int(rng.integers(2))]
        mean_demand = (0.005, 0.05)[int(rng.integers(2))]
        utilization = float(rng.uniform(0.02, 0.9))
        jobs_seed = int(rng.integers(1 << 30))
        space = single_state_space(power_model, C6_S3, frequency_step=step)
        jobs = _exponential_trace(jobs_seed, mean_demand, utilization, num_jobs=700)
        budgets = _rising_step_budgets(space, jobs, utilization)
        if not budgets:
            continue
        rising += 1
        budget = budgets[int(rng.integers(len(budgets)))]
        qos = MeanResponseTimeConstraint(budget)
        try:
            stats = _assert_selects_like_full(power_model, space, qos, jobs, utilization)
        except AssertionError:
            mismatches += 1
            shown = {
                "power_model": power_model.name,
                "step": step,
                "mean_demand": mean_demand,
                "utilization": utilization,
                "jobs_seed": jobs_seed,
                "budget": budget,
            }
            print(f"mismatch on rising-step draw {index}: {shown}")
            continue
        pruned += stats.pruned_columns
        infeasible += stats.infeasible_columns
        proven += stats.proven_cells
        evaluated += stats.candidates_evaluated
        seen += stats.candidates_seen
    print(
        f"draws: {DRAWS + RISING_DRAWS}  mismatches: {mismatches}"
        f"  columns pruned: {pruned}  infeasible columns: {infeasible}"
        f"  proven cells: {proven}  cells evaluated: {evaluated} of {seen}"
        f"  rising-step draws: {rising} of {RISING_DRAWS}"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
