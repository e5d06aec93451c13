"""Wall-clock gates: process-executor speedup and per-tenant dispatch overhead.

Two bounds that only a timed run on a real machine can check:

* **Process-executor speedup.** The ``mega-farm`` fleet (16 Xeon + 16 Atom
  servers, 24 min, 2-minute epochs, full-grid search) runs once on the
  serial executor and once on the process executor with one worker per CPU.
  The two ``FarmResult``\\ s must be bit-identical.  The process run must be
  at least 2x faster; that bound is enforced only with 4 or more CPUs, and
  below that the gate prints "skipped" next to the measured speedup.
* **Per-tenant dispatch overhead.** ``mega-farm`` at 8 + 8 servers and
  10 min: a per-tenant run (4 equal-weight tenants, weighted-fair dispatch,
  per-tenant budgets) may cost at most 10% more wall time than the
  single-budget run of the same fleet, best of 20 for each arm.  The arms
  take about 0.13 s each on 2 vCPUs; at best of 3, ten back-to-back runs
  of one commit read from -19% to +2% (and up to +36% on a busier host),
  at best of 20 from -6% to -2%.

The deterministic gates of the same features are tier-1 tests: serial vs
process parity on every scenario in ``tests/cluster/test_executor_parity.py``,
the tenant isolation flip in ``tests/cluster/test_tenancy.py`` and
strictest/per-tenant parity in ``tests/cluster/test_tenancy_parity.py``.

Run from the repository root (no arguments: the sizes and bounds below are
the gates)::

    PYTHONPATH=src python benchmarks/wallclock_gates.py
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time

import numpy as np

from repro.cluster.tenancy import FarmQos, TenantSpec, WeightedFairDispatcher
from repro.core.qos import mean_qos_from_baseline
from repro.scenarios import get_scenario

#: Process-executor gate: fleet, bound, and the CPU count that enforces it.
#: The full-grid search keeps the per-server loops as heavy as when the
#: bound was set; frontier search runs them ~4x faster.
EXECUTOR_SIZES = dict(
    seed=0,
    search="full",
    duration_minutes=24,
    xeon_servers=16,
    atom_servers=16,
    epoch_minutes=2.0,
)
MIN_SPEEDUP = 2.0
MIN_CPUS = 4

#: Per-tenant overhead gate: fleet, tenants, repeats and bound.
TENANCY_SIZES = dict(seed=9, duration_minutes=10, xeon_servers=8, atom_servers=8)
NUM_TENANTS = 4
REPEATS = 20
MAX_OVERHEAD = 0.10


def _epoch_signature(result):
    return [
        (epoch.policy_label, epoch.sleep_state, epoch.selected_frequency)
        for epoch in result.epochs
    ]


def _assert_identical(label: str, oracle, candidate) -> None:
    # repro: ignore[REP004] -- parity gate: both runs are bit-identical by
    # contract, so exact equality is the point; a tolerance would mask drift.
    if candidate.total_energy != oracle.total_energy:
        raise SystemExit(
            f"FATAL: {label} diverged (energy {candidate.total_energy!r} != "
            f"{oracle.total_energy!r})"
        )
    for index, (one, other) in enumerate(
        zip(oracle.per_server, candidate.per_server, strict=True)
    ):
        if (one is None) != (other is None):
            raise SystemExit(f"FATAL: {label} changed server {index}'s activity")
        if one is None:
            continue
        if not np.array_equal(one.response_times, other.response_times):
            raise SystemExit(
                f"FATAL: {label} changed server {index}'s response times"
            )
        if _epoch_signature(one) != _epoch_signature(other):
            raise SystemExit(
                f"FATAL: {label} changed server {index}'s per-epoch selections"
            )


def _timed(farm, jobs):
    started = time.perf_counter()
    result = farm.run(jobs)
    return time.perf_counter() - started, result


def executor_gate() -> None:
    cpus = os.cpu_count() or 1
    built = get_scenario("mega-farm").build(**EXECUTOR_SIZES)
    print(
        f"mega-farm: {built.farm.num_servers} servers, {built.num_jobs} jobs, "
        f"{EXECUTOR_SIZES['duration_minutes']} min, {cpus} workers on {cpus} CPUs"
    )
    serial_s, serial = _timed(
        dataclasses.replace(built.farm, executor="serial"), built.jobs
    )
    process_s, process = _timed(
        dataclasses.replace(built.farm, executor="process", max_workers=cpus),
        built.jobs,
    )
    _assert_identical("process executor", serial, process)
    speedup = serial_s / process_s
    print(
        f"  serial {serial_s:.2f} s, process {process_s:.2f} s: "
        f"speedup {speedup:.2f}x, parity ok"
    )
    if cpus < MIN_CPUS:
        print(f"gate: speedup skipped ({cpus} CPUs < {MIN_CPUS})")
        return
    if speedup < MIN_SPEEDUP:
        raise SystemExit(
            f"FATAL: process-executor speedup {speedup:.2f}x is below the "
            f"required {MIN_SPEEDUP}x on {cpus} CPUs"
        )
    print(f"gate: speedup {speedup:.2f}x >= {MIN_SPEEDUP}x")


def tenancy_gate() -> None:
    scenario = get_scenario("mega-farm")
    tenants = tuple(
        TenantSpec(name=f"tenant-{index}", qos=mean_qos_from_baseline(0.8))
        for index in range(NUM_TENANTS)
    )

    def single_budget():
        built = scenario.build(qos=FarmQos.strictest(), **TENANCY_SIZES)
        return built.farm, built.jobs

    def per_tenant():
        built = scenario.build(**TENANCY_SIZES)
        labels = np.arange(len(built.jobs), dtype=np.int64) % NUM_TENANTS
        farm = dataclasses.replace(
            built.farm,
            dispatcher=WeightedFairDispatcher(tenants),
            qos=FarmQos.per_tenant(*tenants),
        )
        return farm, built.jobs.with_tenant_ids(labels)

    print(
        f"mega-farm: {2 * TENANCY_SIZES['xeon_servers']} servers, "
        f"{TENANCY_SIZES['duration_minutes']} min, {NUM_TENANTS} tenants, "
        f"best of {REPEATS}"
    )
    # Both arms are rebuilt for every repeat and alternate, so ambient
    # machine noise hits both.
    best = {"single": float("inf"), "per-tenant": float("inf")}
    for _ in range(REPEATS):
        for arm, build in (("single", single_budget), ("per-tenant", per_tenant)):
            seconds, _result = _timed(*build())
            best[arm] = min(best[arm], seconds)
    overhead = best["per-tenant"] / best["single"] - 1.0
    print(
        f"  single-budget {best['single']:.2f} s, per-tenant "
        f"{best['per-tenant']:.2f} s: overhead {overhead:+.1%}"
    )
    if overhead > MAX_OVERHEAD:
        raise SystemExit(
            f"FATAL: per-tenant dispatch cost {overhead:+.1%} vs single-budget, "
            f"above the allowed {MAX_OVERHEAD:.0%}"
        )
    print(f"gate: per-tenant overhead {overhead:+.1%} <= {MAX_OVERHEAD:.0%}")


def main() -> int:
    # Tenancy first: its sub-second timings should not share the machine
    # with the process pool's teardown.
    tenancy_gate()
    executor_gate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
