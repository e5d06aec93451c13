"""Farm-scale dispatch benchmark: 1M jobs over 16 mixed Xeon/Atom servers.

Measures the dispatch-engine contract end to end:

* ``LeastLoadedDispatcher`` on the ``"heap"`` engine vs. the retained
  per-job ``"loop"`` oracle, asserting **byte-identical assignments** and
  reporting the speedups across traffic regimes (the farm-scale regime —
  heavy aggregate traffic spread over 16 servers — is the headline);
* a chunked (streaming) ``ServerFarm.run`` behind a ``PowerAwareDispatcher``
  vs. the one-shot path on a reduced trace, asserting equivalence within
  ``rtol <= 1e-9``.

Run directly (sizes shrink for CI smoke)::

    PYTHONPATH=src python benchmarks/bench_dispatch.py \
        --jobs 1000000 --farm-jobs 200000 --output BENCH_pr3.json

Not a pytest module on purpose: the measurements need fixed large sizes and
a JSON artifact, not statistical repetition.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from datetime import date

import numpy as np

from repro.cluster.dispatch import (
    ENGINE_HEAP,
    ENGINE_LOOP,
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
)
from repro.cluster.farm import ServerFarm, ServerSpec
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import FixedPolicyStrategy
from repro.policies.policy import race_to_halt_policy
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import C6_S0I
from repro.prediction.naive import NaivePreviousPredictor
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import google_workload

MEAN_SERVICE = 0.0042  # Google-like (Table 5) job size, seconds
NUM_XEON = 8
NUM_ATOM = 8
ATOM_CEILING = 0.7  # dispatch-visible DVFS ceiling for the Atom half


def synthetic_jobs(num_jobs: int, utilization: float, seed: int) -> JobTrace:
    """Poisson arrivals at *utilization* of one full-frequency server."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(MEAN_SERVICE / utilization, num_jobs)
    return JobTrace(np.cumsum(gaps), rng.exponential(MEAN_SERVICE, num_jobs))


def time_assign(dispatcher, jobs, num_servers, server_speeds):
    start = time.perf_counter()
    assignment = dispatcher.assign(jobs, num_servers, server_speeds=server_speeds)
    return time.perf_counter() - start, assignment


def bench_dispatchers(num_jobs: int, seed: int) -> dict:
    """Least-loaded heap vs. loop on every (regime, speed model) case."""
    num_servers = NUM_XEON + NUM_ATOM
    het_speeds = [1.0] * NUM_XEON + [ATOM_CEILING] * NUM_ATOM
    cases = {
        # The farm-scale regime: aggregate traffic of ~0.9 of one server
        # spread over 16 servers (per-server load ~6%), homogeneous speeds.
        "least_loaded_farm_scale": (0.9, None),
        # Same regime, the mixed Xeon/Atom speed model (the heap engine
        # takes the same per-job step on mixed and uniform speeds).
        "least_loaded_heterogeneous": (0.9, het_speeds),
        # Aggregate load near half the farm's capacity.
        "least_loaded_heavy": (8.0, None),
    }
    results = {}
    for name, (utilization, speeds) in cases.items():
        jobs = synthetic_jobs(num_jobs, utilization, seed)
        heap_seconds, heap_assignment = time_assign(
            LeastLoadedDispatcher(ENGINE_HEAP), jobs, num_servers, speeds
        )
        loop_seconds, loop_assignment = time_assign(
            LeastLoadedDispatcher(ENGINE_LOOP), jobs, num_servers, speeds
        )
        identical = bool(np.array_equal(heap_assignment, loop_assignment))
        if not identical:
            raise SystemExit(
                f"FATAL: {name}: heap and loop assignments differ "
                "(the dispatch-engine contract is broken)"
            )
        results[name] = {
            "jobs": num_jobs,
            "servers": num_servers,
            "offered_load_of_one_server": utilization,
            "speed_model": "heterogeneous" if speeds else "homogeneous",
            "heap_ms": round(heap_seconds * 1e3, 1),
            "loop_ms": round(loop_seconds * 1e3, 1),
            "speedup": round(loop_seconds / heap_seconds, 1),
            "byte_identical": identical,
        }
        print(
            f"{name:32s} heap {heap_seconds*1e3:8.1f} ms   "
            f"loop {loop_seconds*1e3:8.1f} ms   "
            f"speedup {loop_seconds/heap_seconds:5.1f}x   identical={identical}"
        )
    return results


@dataclasses.dataclass(frozen=True)
class _FixedPolicyStrategyFactory:
    """Picklable factory so the benchmark farm stays process-ready (REP002)."""

    power_model: object

    def __call__(self) -> FixedPolicyStrategy:
        return FixedPolicyStrategy(race_to_halt_policy(self.power_model, C6_S0I))


@dataclasses.dataclass(frozen=True)
class _NaivePredictorFactory:
    def __call__(self) -> NaivePreviousPredictor:
        return NaivePreviousPredictor()


def _fixed_policy_server(name, power_model, max_frequency=1.0) -> ServerSpec:
    return ServerSpec(
        name=name,
        power_model=power_model,
        strategy_factory=_FixedPolicyStrategyFactory(power_model),
        predictor_factory=_NaivePredictorFactory(),
        config=RuntimeConfig(epoch_minutes=5.0, rho_b=0.8, over_provisioning=0.0),
        max_frequency=max_frequency,
    )


def bench_chunked_farm(num_jobs: int, chunk_jobs: int, seed: int) -> dict:
    """Streaming vs. one-shot farm run on the 16-server mixed fleet."""
    xeon, atom = xeon_power_model(), atom_power_model()
    servers = tuple(
        [_fixed_policy_server(f"xeon-{i}", xeon) for i in range(NUM_XEON)]
        + [
            _fixed_policy_server(f"atom-{i}", atom, max_frequency=ATOM_CEILING)
            for i in range(NUM_ATOM)
        ]
    )
    spec = google_workload()
    jobs = synthetic_jobs(num_jobs, 0.9, seed)
    dispatcher = PowerAwareDispatcher.from_power_models(
        [server.power_model for server in servers]
    )

    def build():
        return ServerFarm(servers=servers, spec=spec, dispatcher=dispatcher)

    start = time.perf_counter()
    one_shot = build().run(jobs)
    one_shot_seconds = time.perf_counter() - start
    start = time.perf_counter()
    chunked = build().run(jobs, chunk_jobs=chunk_jobs)
    chunked_seconds = time.perf_counter() - start

    energy_error = abs(chunked.total_energy - one_shot.total_energy) / max(
        one_shot.total_energy, 1e-300
    )
    latency_error = abs(
        chunked.mean_response_time - one_shot.mean_response_time
    ) / max(one_shot.mean_response_time, 1e-300)
    if energy_error > 1e-9 or latency_error > 1e-9:
        raise SystemExit(
            "FATAL: chunked farm run diverged from one-shot "
            f"(energy rel err {energy_error:.3e}, latency rel err {latency_error:.3e})"
        )
    print(
        f"{'farm_run (16 servers)':32s} one-shot {one_shot_seconds:6.2f} s   "
        f"chunked {chunked_seconds:6.2f} s   "
        f"energy rel err {energy_error:.1e}   latency rel err {latency_error:.1e}"
    )
    return {
        "jobs": num_jobs,
        "servers": len(servers),
        "chunk_jobs": chunk_jobs,
        "one_shot_s": round(one_shot_seconds, 2),
        "chunked_s": round(chunked_seconds, 2),
        "energy_rel_error": energy_error,
        "latency_rel_error": latency_error,
        "rtol_target": 1e-9,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1_000_000)
    parser.add_argument("--farm-jobs", type=int, default=200_000)
    parser.add_argument("--chunk-jobs", type=int, default=32_768)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=str, default=None, metavar="FILE")
    arguments = parser.parse_args(argv)

    dispatch_results = bench_dispatchers(arguments.jobs, arguments.seed)
    farm_results = bench_chunked_farm(
        arguments.farm_jobs, arguments.chunk_jobs, arguments.seed
    )
    headline = dispatch_results["least_loaded_farm_scale"]["speedup"]
    report = {
        "pr": 3,
        "title": (
            "Farm-scale dispatch engine: speed-aware heap dispatchers + "
            "streaming farm runs"
        ),
        # repro: ignore[REP001] -- report metadata stamp, not simulation input.
        "date": date.today().isoformat(),
        "benchmark_file": "benchmarks/bench_dispatch.py",
        "workload": (
            "synthetic Google-like jobs (mean 4.2 ms), Poisson arrivals, "
            "16 servers (8 Xeon + 8 Atom at 0.7 dispatch ceiling)"
        ),
        "dispatch": dispatch_results,
        "chunked_farm_run": farm_results,
        "acceptance": {
            "target_speedup_1M_jobs_16_servers": 10.0,
            "measured_headline_speedup": headline,
            "byte_identical_assignments": True,
            "chunked_rtol": 1e-9,
            "equivalence_suite": "tests/cluster/test_dispatch_engine.py, "
            "tests/cluster/test_farm_streaming.py",
        },
    }
    if arguments.output:
        with open(arguments.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {arguments.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
