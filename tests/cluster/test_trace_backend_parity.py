"""Trace storage backends must be result-invisible (and leak-free).

The analogue of the executor contract: wherever the trace's arrays live —
in-process memory or a memory-mapped file — a farm produces
**bit-identical** ``FarmResult``s.  This suite pins that across every
registered scenario (serial/memory oracle vs zero-copy process sharding
over mmap, process sharding of in-memory slices, and the serial mmap-spill
path), and proves the arena's files are deleted on every exit path (normal,
pickling failure, worker crash).
"""

from __future__ import annotations

import dataclasses
import glob
import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.cluster.dispatch import RoundRobinDispatcher, group_by_server
from repro.cluster.farm import (
    ServerFarm,
    ServerShardTask,
    ServerSpec,
    run_server_shard,
)
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import race_to_halt_c3
from repro.exceptions import ExecutorError
from repro.power.platform import xeon_power_model
from repro.prediction.naive import NaivePreviousPredictor
from repro.scenarios import available_scenarios, get_scenario
from repro.workloads.jobs import JobTrace
from repro.workloads.storage import SharedTraceArena

from tests.cluster.test_executor_parity import (
    _tiny_overrides,
    assert_farm_results_identical,
)


def arena_dirs() -> set[str]:
    """The farm's arena and trace-spill directories in the temp directory."""
    return {
        path
        for prefix in ("repro_arena_", "repro_trace_")
        for path in glob.glob(os.path.join(tempfile.gettempdir(), f"{prefix}*"))
    }


@pytest.fixture(autouse=True)
def no_leaked_arenas():
    before = arena_dirs()
    yield
    leaked = arena_dirs() - before
    assert not leaked, f"leaked arena directories: {sorted(leaked)}"


#: (executor, trace_backend) pairs compared against the serial/memory oracle.
#: The process/mmap run exercises the zero-copy descriptor sharding, the
#: process/memory run the pickled grouped slices; the serial mmap run
#: exercises the spill-to-file path without an arena.
BACKEND_MATRIX = (
    ("process", "memory"),
    ("process", "mmap"),
    ("serial", "mmap"),
)


class TestEveryScenarioBackendParity:
    """The tentpole's equivalence claim, across all registered scenarios."""

    @pytest.fixture(params=sorted(available_scenarios()))
    def name(self, request):
        return request.param

    def test_backends_match_the_memory_oracle(self, name):
        overrides = _tiny_overrides(name)
        oracle = get_scenario(name).build(
            seed=9, executor="serial", **overrides
        ).run()
        for executor, backend in BACKEND_MATRIX:
            built = get_scenario(name).build(
                seed=9, executor=executor, trace_backend=backend, **overrides
            )
            built.farm.max_workers = 2 if executor == "process" else None
            assert_farm_results_identical(oracle, built.run())


# ---------------------------------------------------------------------------
# Cleanup on the unhappy paths
# ---------------------------------------------------------------------------


def _fresh_strategy():
    return race_to_halt_c3(xeon_power_model())


def _fresh_predictor():
    return NaivePreviousPredictor()


def _crashing_strategy():
    # Hard worker death (no exception, no cleanup handlers in the worker):
    # the pool reports a BrokenProcessPool and the parent's arena context
    # must still delete every file.
    os._exit(17)


def _small_farm(strategy_factory, *, trace_backend: str = "mmap") -> ServerFarm:
    from repro.workloads.spec import dns_workload

    servers = tuple(
        ServerSpec(
            name=f"server-{index}",
            power_model=xeon_power_model(),
            strategy_factory=strategy_factory,
            predictor_factory=_fresh_predictor,
            config=RuntimeConfig(epoch_minutes=1.0, rho_b=0.8),
        )
        for index in range(2)
    )
    return ServerFarm(
        servers=servers,
        spec=dns_workload(),
        dispatcher=RoundRobinDispatcher(),
        executor="process",
        max_workers=2,
        trace_backend=trace_backend,
    )


def _small_jobs() -> JobTrace:
    from repro.workloads.generator import generate_jobs
    from repro.workloads.spec import dns_workload

    return generate_jobs(dns_workload(), num_jobs=400, utilization=0.4, seed=3)


class TestArenaCleanup:
    def test_no_arena_survives_a_normal_run(self):
        before = arena_dirs()
        result = _small_farm(_fresh_strategy).run(_small_jobs())
        assert result.num_jobs == 400
        assert arena_dirs() == before

    def test_no_arena_survives_an_executor_error(self):
        # A lambda factory cannot be pickled into the shard task: the
        # executor raises ExecutorError after the arena published the trace,
        # and the arena's __exit__ must still delete everything.
        before = arena_dirs()
        farm = _small_farm(lambda: _fresh_strategy())
        with pytest.raises(ExecutorError, match="pickl"):
            farm.run(_small_jobs())
        assert arena_dirs() == before

    def test_no_arena_survives_a_worker_crash(self):
        from concurrent.futures.process import BrokenProcessPool

        before = arena_dirs()
        farm = _small_farm(_crashing_strategy)
        with pytest.raises(BrokenProcessPool):
            farm.run(_small_jobs())
        assert arena_dirs() == before


class TestShardTask:
    """The process work unit itself, run in-process."""

    def _task(self, arrivals, demands) -> ServerShardTask:
        farm = _small_farm(_fresh_strategy)
        return ServerShardTask(
            server=farm.servers[0],
            spec=farm.spec,
            arrivals=arrivals,
            demands=demands,
        )

    def test_descriptor_task_matches_array_task(self):
        jobs = _small_jobs()
        direct = run_server_shard(
            self._task(jobs.arrival_times, jobs.service_demands)
        )
        with SharedTraceArena() as arena:
            published = run_server_shard(
                self._task(
                    arena.publish(jobs.arrival_times, "arrivals"),
                    arena.publish(jobs.service_demands, "demands"),
                )
            )
        assert np.array_equal(direct.response_times, published.response_times)
        assert direct.total_energy == published.total_energy

    def test_descriptor_task_size_is_independent_of_the_trace(self):
        # The reason the mmap backend exists: a shard task pickles to
        # (almost) the same size whether the server's range holds ten jobs
        # or the whole trace — only the integer widths of offset/length
        # differ — while an array task grows by 16 bytes per job.
        jobs = _small_jobs()
        extra_jobs = len(jobs) - 10
        with SharedTraceArena() as arena:
            arrivals = arena.publish(jobs.arrival_times, "arrivals")
            demands = arena.publish(jobs.service_demands, "demands")
            small = self._task(arrivals.narrow(0, 10), demands.narrow(0, 10))
            full = self._task(arrivals, demands)
            growth = len(pickle.dumps(full)) - len(pickle.dumps(small))
            assert 0 <= growth < 16
        few = self._task(jobs.arrival_times[:10], jobs.service_demands[:10])
        many = self._task(jobs.arrival_times, jobs.service_demands)
        growth = len(pickle.dumps(many)) - len(pickle.dumps(few))
        assert growth >= 16 * extra_jobs


class _PickledBytes:
    """Executor stand-in: records each shard task's pickled size, runs none."""

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def map(self, fn, tasks):
        self.sizes = [len(pickle.dumps(task)) for task in tasks]
        return []


def _shipped_bytes(farm: ServerFarm, jobs: JobTrace, backend: str) -> int:
    """Total pickled bytes of the shard tasks the process path would ship."""
    farm = dataclasses.replace(farm, trace_backend=backend)
    assignment = farm.dispatcher.validated_assignment(
        jobs, farm.num_servers, server_speeds=farm.dispatch_speeds
    )
    grouped, ranges = group_by_server(
        assignment, farm.num_servers, jobs.arrival_times, jobs.service_demands
    )
    active = [index for index, bounds in enumerate(ranges) if bounds is not None]
    recorder = _PickledBytes()
    farm._run_shards(recorder, grouped, ranges, active)
    assert len(recorder.sizes) == len(active)
    return sum(recorder.sizes)


class TestShardBytesGate:
    def test_mmap_shards_pickle_at_least_90_percent_smaller(self):
        # The mmap backend's reason to exist, at the mega-farm size the
        # process executor is gated on: descriptors instead of array slices
        # cut the bytes crossing the process boundary by >= 90% (measured
        # 98.4%).  Pickled sizes are deterministic, so this holds anywhere.
        built = get_scenario("mega-farm").build(
            seed=0,
            duration_minutes=24,
            epoch_minutes=10,
            xeon_servers=16,
            atom_servers=16,
        )
        memory = _shipped_bytes(built.farm, built.jobs, "memory")
        mapped = _shipped_bytes(built.farm, built.jobs, "mmap")
        assert 1.0 - mapped / memory >= 0.90


# ---------------------------------------------------------------------------
# The mmap backend at farm level: an in-memory trace spills to disk
# ---------------------------------------------------------------------------


class TestOutOfCoreMmapRun:
    def test_mmap_backend_spills_and_matches_memory(self):
        # The ServerFarm-level knob: an in-memory trace run under the mmap
        # backend spills to a temporary file, and the spilled run is
        # bit-identical to the in-memory one.
        jobs = _small_jobs()
        farm = _small_farm(_fresh_strategy, trace_backend="memory")
        serial = dataclasses.replace(farm, executor="serial", max_workers=None)
        oracle = serial.run(jobs)
        spilled = dataclasses.replace(serial, trace_backend="mmap").run(jobs)
        assert_farm_results_identical(oracle, spilled)
