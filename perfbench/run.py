"""The repository's benchmark: one reference workload, end to end or by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search-farm --seed 1 --seconds 30 --trace 0

A run repeats *passes* until ``--seconds`` have elapsed (at least
:data:`MIN_PASSES`).  A pass sets the workload up from the seed (timed as
``setup_s``), calls its run entry (timed as ``run_s`` wall and ``cpu_s``
user+sys of this process and its reaped workers) and checks the outputs:
report schema, job conservation and a fingerprint of the simulated results,
which must be identical in every pass and equal the one recorded in
``reference.json`` for that seed, if there is one.

Before every pass and after the last, ``calibrate.py`` times a fixed
reference computation :data:`calibrate.SAMPLES_PER_GAP` times.

``--trace 0`` prints the end-to-end metrics: ``run_s``, ``cpu_s`` and
``setup_s`` are the medians over the run's passes (set-ups), each times
:func:`calibrate.host_scale` of the run's calibration samples, that is, host
seconds at the reference host speed; plus ``peak_rss_mb``.  A shared host's
speed drifts by half or more over minutes and slows the passes and the
calibration together, so the scaled medians spread and drift less than the
raw ones (README.md has the figures).  The record line keeps every raw sample
with its median and quartiles, and the scale.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (per pass: self and inclusive seconds, counts,
ratios; see ``tracer.py``) plus the tracing overhead, the traced minus the
untraced median ``run_s`` (raw host seconds, like every layer metric).

The second-to-last line of standard output is the full result record
(schema ``perfbench.record/v1``: samples, quartiles, fingerprints,
provenance); ``compare.py`` diffs the records of two commits.  The last line
is the summary object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
RECORD_SCHEMA = "perfbench.record/v1"


@dataclass
class Pass:
    """What one pass measured and what its output check found."""

    traced: bool
    setup_s: list[float] = field(default_factory=list)
    run_s: float | None = None
    cpu_s: float | None = None
    operations: int = 0
    failed: int = 0
    fingerprint: dict[str, Any] | None = None
    tracer: Any = None


def cpu_seconds() -> float:
    """User+sys CPU of this process plus every reaped child process."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(workload: Any, seed: int, work_dir: Path, tracer: Any | None) -> Pass:
    """Set up, run and check once; *tracer* (if any) records spans throughout."""
    record = Pass(traced=tracer is not None, operations=workload.operations, tracer=tracer)
    try:
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            for _ in range(workload.setup_repeats):
                start = time.perf_counter()
                state = workload.setup(seed)
                record.setup_s.append(time.perf_counter() - start)
            gc.collect()
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            outcome = workload.run(state, work_dir)
            run_s = time.perf_counter() - start
            cpu_s = cpu_seconds() - cpu_start
        finally:
            if tracer is not None:
                tracer.uninstall()
        check = workload.check(state, outcome)
    except Exception:
        traceback.print_exc()
        record.failed = workload.operations
        return record
    for problem in check.problems:
        print(f"perfbench: {workload.name} seed {seed}: {problem}", file=sys.stderr)
    if tracer is not None:
        hits, lookups = workload.cache_stats(state, outcome)
        tracer.counts["search.cache_hits"] += hits
        tracer.counts["search.cache_lookups"] += lookups
    record.run_s, record.cpu_s = run_s, cpu_s
    record.failed = check.failed
    record.fingerprint = check.fingerprint
    return record


def summary(values: list[float]) -> dict[str, float | int]:
    """Median, quartiles and sample count of one metric's samples."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else [values[0]] * 3
    )
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "min": min(values)}


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_ratio") or metric.endswith("_per_select"):
        return "ratio"
    if metric.endswith(".passes") or metric.endswith("_samples"):
        return "samples"
    return "count"


def parse_args(argv: list[str] | None, workload_names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no src/repro under {ROOT}; run it from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from calibrate import SAMPLES_PER_GAP, calibrate, host_scale
    from tracer import Tracer, combine
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    references = json.loads((HERE / "reference.json").read_text())
    expected = references.get(workload.name, {}).get(str(args.seed))
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    passes: list[Pass] = []
    calibration: list[float] = []
    try:
        started = time.perf_counter()
        while len(passes) < MIN_PASSES + args.trace or (
            time.perf_counter() - started < args.seconds
        ):
            calibration.extend(calibrate() for _ in range(SAMPLES_PER_GAP))
            trace_this = bool(args.trace) and len(passes) % 2 == 1
            passes.append(
                run_pass(workload, args.seed, work_dir, Tracer() if trace_this else None)
            )
        calibration.extend(calibrate() for _ in range(SAMPLES_PER_GAP))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    fingerprints = [p.fingerprint for p in passes if p.fingerprint is not None]
    if not fingerprints:
        print("perfbench: every pass failed", file=sys.stderr)
        return 1
    # Every pass must reproduce the recorded reference or, for a seed without
    # one, the first pass: a mismatching pass counts all its operations failed.
    want = expected if expected is not None else fingerprints[0]
    for record in passes:
        if record.fingerprint is not None and record.fingerprint != want:
            print(
                f"perfbench: fingerprint {record.fingerprint} != expected {want}",
                file=sys.stderr,
            )
            record.failed = record.operations
    attempted = sum(p.operations for p in passes)
    failed = sum(p.failed for p in passes)

    measured = [p for p in passes if p.run_s is not None]
    untraced = [p for p in measured if not p.traced]
    traced = [p for p in measured if p.traced]
    if not untraced or (args.trace and not traced):
        print("perfbench: no measured pass of every kind", file=sys.stderr)
        return 1
    samples = {
        "setup_s": [s for p in untraced for s in p.setup_s],
        "run_s": [p.run_s for p in untraced],
        "cpu_s": [p.cpu_s for p in untraced],
        "calibration_s": calibration,
    }
    scale = host_scale(calibration)
    end_to_end = {
        name: statistics.median(samples[name]) * scale
        for name in ("run_s", "cpu_s", "setup_s")
    }
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    layers: dict[str, float] = {}
    if args.trace:
        layers = combine([p.tracer for p in traced])
        traced_run = statistics.median(p.run_s for p in traced)
        layers["unattributed.s"] = statistics.median(
            sum(p.setup_s) + p.run_s - sum(p.tracer.self_s.values()) for p in traced
        )
        layers["trace.run_s"] = traced_run
        layers["trace.overhead_s"] = traced_run - statistics.median(samples["run_s"])
        layers["trace.passes"] = float(len(traced))
        samples["traced_run_s"] = [p.run_s for p in traced]

    shown = layers if args.trace else end_to_end
    record = {
        "schema": RECORD_SCHEMA,
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "end_to_end": end_to_end,
        "scale": scale,
        "samples": samples,
        "summary": {name: summary(values) for name, values in samples.items()},
        "layers": layers,
        "unmeasured": (
            "layer time inside process-executor workers (only the parent's "
            "executor.map span is seen)"
        ),
        "fingerprint": fingerprints[0],
        "reference_fingerprint": expected,
        "workload_params": workload.params(args.seed),
        "provenance": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_sha": git_sha(ROOT),
        },
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in shown.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
