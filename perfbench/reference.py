"""Record the reference fingerprints that ``run.py`` checks every pass against.

Run from the root of a checkout, on a commit whose simulated results are
known good::

    python3 perfbench/reference.py --seeds 0-15

For every workload and seed it runs one pass and writes the fingerprint to
``perfbench/reference.json``.  A change that only speeds the simulator up
must reproduce these; re-record only with a change that is meant to alter
simulated results, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    references: dict[str, dict[str, dict]] = {}
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name, workload in WORKLOADS.items():
            references[name] = {}
            for seed in seeds:
                record = run.run_pass(workload, seed, work_dir, tracer=None)
                if record.fingerprint is None or record.failed:
                    print(f"{name} seed {seed}: pass failed", file=sys.stderr)
                    return 1
                references[name][str(seed)] = record.fingerprint
                print(f"{name} seed {seed}: {record.fingerprint}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
