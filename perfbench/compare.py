"""Attribution diff: where a change's time went, per workload and per layer.

Save the standard output of traced runs (``run.py --trace 1``) of the parent
commit into one file and those of the change into another (any number of
runs and workloads per file; repeated runs of a workload are reduced to
their per-metric median), then run::

    python3 perfbench/compare.py parent.out change.out

For every workload present in both files it prints each layer's self and
inclusive seconds per pass and each count, parent against change, with the
delta.  Layers whose self time grew by more than :data:`FLAG_SHARE` (and by
at least :data:`FLAG_FLOOR_S`) are flagged ``REGRESSED``; counts that moved
are flagged ``CHANGED``, because a pure speed-up repeats every count exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import RECORD_SCHEMA, unit_of

FLAG_SHARE = 0.10
FLAG_FLOOR_S = 0.005


def traced_layers(path: Path) -> dict[str, tuple[dict[str, float], list[int]]]:
    """Per workload: the median of every layer metric over the file's traced
    runs, and the seeds of those runs."""
    runs: defaultdict[str, list[dict[str, float]]] = defaultdict(list)
    seeds: defaultdict[str, list[int]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if not line.startswith("{"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("schema") == RECORD_SCHEMA and record.get("trace") == 1:
            runs[record["workload"]].append(record["layers"])
            seeds[record["workload"]].append(record["seed"])
    return {
        workload: (
            {
                name: statistics.median(layers[name] for layers in records)
                for name in records[0]
            },
            sorted(seeds[workload]),
        )
        for workload, records in runs.items()
    }


def compare(parent: dict[str, float], change: dict[str, float]) -> list[str]:
    """Table rows for one workload: every metric, parent -> change, with flags."""
    rows = [f"  {'metric':34} {'parent':>14} {'change':>14} {'delta':>14} {'delta%':>8}"]
    for name in parent:
        if name not in change:
            rows.append(f"  {name:34} missing from the change")
            continue
        before, after = parent[name], change[name]
        delta = after - before
        share = f"{100 * delta / before:+7.1f}%" if before else "       -"
        flag = ""
        if unit_of(name) == "count" and delta:
            flag = "  CHANGED"
        elif (
            unit_of(name) == "s"
            and delta > FLAG_FLOOR_S
            and delta > FLAG_SHARE * before
        ):
            flag = "  REGRESSED"
        rows.append(
            f"  {name:34} {before:14.6g} {after:14.6g} {delta:+14.6g} {share}{flag}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="traced-run output of the parent")
    parser.add_argument("change", type=Path, help="traced-run output of the change")
    args = parser.parse_args(argv)
    parent, change = traced_layers(args.parent), traced_layers(args.change)
    common = [workload for workload in parent if workload in change]
    if not common:
        print("compare: no workload has traced runs in both files", file=sys.stderr)
        return 1
    for workload in common:
        (before, parent_seeds), (after, change_seeds) = parent[workload], change[workload]
        print(f"{workload}: parent seeds {parent_seeds}, change seeds {change_seeds}")
        print("\n".join(compare(before, after)))
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload}: traced in only one of the two files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
