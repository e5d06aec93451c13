#!/usr/bin/env python3
"""Scale out: a farm of servers, each running its own SleepScale instance.

The paper's conclusion sketches multi-server operation with SleepScale
"performed on each core or server independently".  This example builds a
small farm behind a round-robin dispatcher, sizes the farm for a Google-like
workload, and compares three farm-wide strategies:

* every server runs SleepScale (joint frequency + sleep-state search),
* every server runs race-to-halt with C6S0(i),
* every server runs DVFS-only.

It also shows what happens when the farm is over-provisioned (more servers
than the load needs): per-server utilisation drops and SleepScale's advantage
grows, the energy-proportionality argument of the paper's introduction.

Usage::

    python examples/server_farm.py                 # 3 servers, 30 minutes
    python examples/server_farm.py --servers 5 --minutes 60
"""

from __future__ import annotations

import argparse

from repro import (
    LmsCusumPredictor,
    RoundRobinDispatcher,
    RuntimeConfig,
    ServerFarm,
    dns_workload,
    dvfs_only_strategy,
    generate_trace_driven_jobs,
    mean_qos_from_baseline,
    race_to_halt_c6,
    sleepscale_strategy,
    xeon_power_model,
)
from repro.experiments.base import format_rows
from repro.workloads import constant_trace


def make_predictor(index: int) -> LmsCusumPredictor:
    """Per-server predictor factory — module-level so it stays picklable."""
    return LmsCusumPredictor(history=10)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=3)
    parser.add_argument("--minutes", type=int, default=30)
    parser.add_argument("--farm-utilization", type=float, default=0.9,
                        help="offered load of the whole farm, relative to ONE server")
    parser.add_argument("--rho-b", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main() -> None:
    arguments = parse_args()
    power_model = xeon_power_model()
    spec = dns_workload()
    qos = mean_qos_from_baseline(arguments.rho_b)

    # One arrival stream for the whole farm; per-server load is roughly
    # farm_utilization / servers once the dispatcher splits it.
    trace = constant_trace(
        min(arguments.farm_utilization, 0.95), num_samples=arguments.minutes
    )
    workload = generate_trace_driven_jobs(
        spec, trace, seed=arguments.seed + 1, max_utilization=0.95
    )
    print(
        f"Farm of {arguments.servers} servers, {len(workload.jobs)} jobs over "
        f"{arguments.minutes} minutes; per-server load ≈ "
        f"{workload.jobs.offered_load / arguments.servers:.2f}"
    )

    config = RuntimeConfig(epoch_minutes=5.0, rho_b=arguments.rho_b, over_provisioning=0.35)

    def make_cluster(strategy_factory):
        return ServerFarm.homogeneous(
            arguments.servers,
            power_model,
            spec,
            strategy_factory,
            make_predictor,
            config=config,
            dispatcher=RoundRobinDispatcher(),
        )

    farms = {
        "SleepScale": make_cluster(
            lambda index: sleepscale_strategy(
                power_model, qos, characterization_jobs=1000, seed=arguments.seed + index
            )
        ),
        "Race-to-halt (C6)": make_cluster(lambda index: race_to_halt_c6(power_model)),
        "DVFS-only": make_cluster(
            lambda index: dvfs_only_strategy(
                power_model, qos, characterization_jobs=1000, seed=arguments.seed + index
            )
        ),
    }

    rows = []
    sleepscale_farm = None
    for label, cluster in farms.items():
        farm = cluster.run(workload.jobs)
        if label == "SleepScale":
            sleepscale_farm = farm
        rows.append(
            {
                "farm strategy": label,
                "normalized E[R]": farm.normalized_mean_response_time,
                "meets budget": farm.meets_budget,
                "farm power (W)": farm.total_average_power,
                "per-server power (W)": farm.average_power_per_server,
            }
        )
    print("\nFarm-wide comparison:")
    print(format_rows(rows))

    assert sleepscale_farm is not None
    print("\nPer-server breakdown of the SleepScale farm:")
    per_server_rows = []
    for index, result in enumerate(sleepscale_farm.per_server):
        if result is None:
            per_server_rows.append({"server": index, "jobs": 0})
            continue
        per_server_rows.append(
            {
                "server": index,
                "jobs": result.num_jobs,
                "normalized E[R]": result.normalized_mean_response_time,
                "power (W)": result.average_power,
                "mean frequency": result.mean_selected_frequency(),
            }
        )
    print(format_rows(per_server_rows))
    print("\nStates selected across the farm:", sleepscale_farm.state_selection_fractions())


if __name__ == "__main__":
    main()
