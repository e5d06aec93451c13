"""Frontier-vs-full search fuzz: 1,200 seeded draws, 0 mismatches allowed.

Each draw is one case of ``tests/core/test_search.py::_assert_equivalent``:
a policy-space shape, a QoS type, a simulation backend, a platform preset, a
frequency step, a utilisation and a job stream, all drawn from a generator
seeded with ``zlib.crc32`` of the draw's name (never ``hash()``, which
changes with ``PYTHONHASHSEED``), so every run draws the same cases.  The
frontier and the full-grid oracle must select the same policy with the same
feasibility and power.

Prints the number of draws and mismatches, the sleep-state columns the
frontier skipped on their proven power floors, and the grid cells it
evaluated out of those it saw (the probe cost of the bound), and exits 1 on
any mismatch.  Run from
the repository root (no arguments; about 15 s on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/search_fuzz.py
"""

from __future__ import annotations

import sys
import zlib
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.power.platform import atom_power_model, xeon_power_model  # noqa: E402
from repro.workloads import dns_workload  # noqa: E402
from tests.core.test_search import _assert_equivalent  # noqa: E402

DRAWS = 1_200
SPACE_KINDS = ("full", "single", "dvfs")
QOS_KINDS = ("mean", "percentile")
#: One draw in this many runs the per-job reference backend (on a shorter
#: stream, as in the tier-1 fuzz); the rest run the vectorized kernel.
REFERENCE_EVERY = 8


def main() -> int:
    models = (xeon_power_model(), atom_power_model())
    dns = dns_workload(empirical=False)
    mismatches = pruned = evaluated = seen = 0
    for index in range(DRAWS):
        rng = np.random.default_rng(zlib.crc32(f"search-fuzz/{index}".encode()))
        reference = index % REFERENCE_EVERY == 0
        space_kind = SPACE_KINDS[int(rng.integers(len(SPACE_KINDS)))]
        qos_kind = QOS_KINDS[int(rng.integers(len(QOS_KINDS)))]
        case = {
            "power_model": models[int(rng.integers(len(models)))],
            "dns": dns,
            "backend": "reference" if reference else "vectorized",
            "space_kind": space_kind,
            "qos_kind": qos_kind,
            "step": 0.05 if reference else (0.05, 0.02)[int(rng.integers(2))],
            "utilization": float(rng.uniform(0.02, 0.95)),
            "jobs_seed": int(rng.integers(1 << 30)),
            "num_jobs": 250 if reference else 700,
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
        evaluated += stats.candidates_evaluated
        seen += stats.candidates_seen
    print(
        f"draws: {DRAWS}  mismatches: {mismatches}  columns pruned: {pruned}"
        f"  cells evaluated: {evaluated} of {seen}"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
