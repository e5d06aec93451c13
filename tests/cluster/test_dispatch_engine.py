"""The work-tracking dispatchers against reference scans: least-loaded heap
vs. scan equivalence, power-aware golden assignments and speed-aware backlog.

``LeastLoadedDispatcher``'s heap step, and its one-comparison step on two
servers, must produce **byte-identical** assignments to
``reference_least_loaded_scan``, a per-job scan written on
``WorkTracker.charge``, across traffic regimes, farm sizes, speed models,
burst boundaries, chunked assignment and crafted tie cases.  ``PowerAwareDispatcher``'s
assignments on the same grid are pinned to recorded SHA-256 digests
(``power_aware_golden.json``), and on a wide mixed fleet to
``reference_power_aware_scan``, also written on ``WorkTracker.charge``;
one-shot assignment of either dispatcher peaks at a bounded number of bytes
per job.  Every work-tracking assigner rejects arrivals out of order, and
the adaptive power-aware threshold follows the demands each assigner is
handed.  The heterogeneity-blind backlog bug and the RandomDispatcher
determinism bug are pinned by dedicated regression tests.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro.cluster
import repro.cluster.dispatch
from repro.cluster.dispatch import (
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
    RandomDispatcher,
    WorkTracker,
    _BURST as BURST,
    merge_streams,
)
from repro.cluster.tenancy import (
    PriorityDispatcher,
    TenantSpec,
    WeightedFairDispatcher,
    make_tenant_dispatcher,
)
from repro.core.qos import mean_qos_from_baseline
from repro.exceptions import ConfigurationError, TraceError
from repro.power.platform import atom_power_model, xeon_power_model
from repro.workloads.jobs import JobTrace

MEAN_SERVICE = 0.0042  # Google-like job size, seconds


def poisson_jobs(num_jobs: int, utilization: float, seed: int = 0) -> JobTrace:
    """Poisson arrivals at *utilization* of one full-frequency server."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(MEAN_SERVICE / utilization, num_jobs)
    return JobTrace(np.cumsum(gaps), rng.exponential(MEAN_SERVICE, num_jobs))


#: (num_servers, server_speeds) cases: homogeneous, mixed fleet, odd sizes.
SPEED_CASES = [
    (3, None),
    (16, None),
    (16, [1.0] * 8 + [0.7] * 8),
    (5, [1.0, 0.5, 0.9, 0.7, 1.0]),
    # Power-of-two speeds: estimated finish times tie exactly across speeds.
    (4, [1.0, 0.5, 1.0, 0.25]),
    (1, None),
    # Two servers take the least-loaded one-comparison step; power-of-two
    # speeds force exact cross-speed ties there too.
    (2, None),
    (2, [1.0, 0.5]),
]

#: The cases the power-aware digests in ``power_aware_golden.json`` were
#: recorded on; the later cases are checked against the reference scan.
GOLDEN_SPEED_CASES = SPEED_CASES[:6]

#: The mixed-speed fleets, where estimated finish times can tie exactly
#: across servers of different speeds.
MIXED_SPEED_CASES = [case for case in SPEED_CASES if case[1] is not None]

#: Wide fleets for the burst-boundary parity cases.  The homogeneous 16- and
#: 64-server fleets at load 0.3 are the shapes where a vectorised merge tier
#: used to replace the per-job heap step; the two-server fleet crosses the
#: bursts of the one-comparison step.
WIDE_FLEET_CASES = [
    (16, None),
    (64, None),
    (16, [1.0] * 8 + [0.7] * 8),
    (2, [1.0, 0.5]),
]

#: Chunk boundaries straddling the per-job assigners' bursts: one assigner
#: handed these slices in turn must equal one-shot assignment.
CHUNK_BOUNDS = [0, BURST - 1, BURST + 1, 2 * BURST, 2 * BURST + 7, 10_000]


def fleet_capacity(num_servers: int, speeds: list[float] | None) -> float:
    """Service capacity in full-frequency servers."""
    return float(num_servers if speeds is None else sum(speeds))


#: Traffic regimes relative to one full-frequency server: idle-dominated,
#: nominal, and far beyond single-server saturation.
UTILIZATIONS = [0.1, 0.9, 3.0, 14.0]

#: Crafted traces with exact value ties (simultaneous arrivals, identical
#: demands, zero demands) — the cases where tie-breaking must not deviate.
TIE_TRACES = [
    JobTrace(np.zeros(60), np.ones(60)),
    JobTrace(np.repeat(np.arange(30.0), 2), np.tile([1.0, 2.0], 30)),
    JobTrace(np.arange(60.0), np.zeros(60)),
    JobTrace(np.arange(60.0), np.full(60, 0.5)),
]

#: SHA-256 of ``assignment.tobytes()`` for every power-aware golden cell.
#: The digests were recorded while a second, run-batching engine still
#: existed and agreed on every cell, so they are independently checked.
GOLDEN = json.loads(Path(__file__).with_name("power_aware_golden.json").read_text())


def digest(assignment: np.ndarray) -> str:
    assert assignment.dtype == np.int64
    return hashlib.sha256(assignment.tobytes()).hexdigest()


def coarse_decimal_jobs(seed: int) -> JobTrace:
    """Coarse decimal values maximise exact float coincidences — the
    hostile case for vectorised fast paths."""
    rng = np.random.default_rng(seed)
    count = 400
    return JobTrace(
        np.round(np.cumsum(rng.exponential(0.1, count)), 1),
        np.round(rng.exponential(0.1, count), 1) + 0.05,
    )


def reference_least_loaded_scan(jobs, num_servers, speeds=None) -> np.ndarray:
    """The per-job least-loaded scan, written on ``WorkTracker.charge``."""
    tracker = WorkTracker(num_servers, server_speeds=speeds)
    assignment = np.empty(len(jobs), dtype=np.int64)
    for index, (arrival, demand) in enumerate(
        zip(jobs.arrival_times.tolist(), jobs.service_demands.tolist())
    ):
        server = tracker.busy_until.index(min(tracker.busy_until))
        assignment[index] = server
        tracker.charge(server, arrival, demand)
    return assignment


def least_loaded(jobs, num_servers, speeds=None) -> np.ndarray:
    return LeastLoadedDispatcher().assign(jobs, num_servers, server_speeds=speeds)


class TestEngineEquivalence:
    @pytest.mark.parametrize("utilization", UTILIZATIONS)
    @pytest.mark.parametrize("num_servers,speeds", SPEED_CASES)
    def test_least_loaded_byte_identical(self, utilization, num_servers, speeds):
        jobs = poisson_jobs(3000, utilization, seed=int(utilization * 10))
        np.testing.assert_array_equal(
            least_loaded(jobs, num_servers, speeds),
            reference_least_loaded_scan(jobs, num_servers, speeds),
        )

    @pytest.mark.parametrize("load", [0.3, 0.7])
    @pytest.mark.parametrize("num_servers,speeds", WIDE_FLEET_CASES)
    def test_least_loaded_across_bursts_byte_identical(self, load, num_servers, speeds):
        # 10,000 jobs cross two heap-step burst boundaries (4096 jobs each).
        jobs = poisson_jobs(10_000, load * fleet_capacity(num_servers, speeds), seed=5)
        np.testing.assert_array_equal(
            least_loaded(jobs, num_servers, speeds),
            reference_least_loaded_scan(jobs, num_servers, speeds),
        )

    @pytest.mark.parametrize("load", [0.3, 0.7])
    @pytest.mark.parametrize("num_servers,speeds", WIDE_FLEET_CASES + [(3, None)])
    def test_chunks_straddling_bursts_equal_one_shot(self, load, num_servers, speeds):
        # The step state (heap or two floats) carries across assign_chunk
        # calls, so slicing the trace anywhere leaves the assignment intact.
        jobs = poisson_jobs(10_000, load * fleet_capacity(num_servers, speeds), seed=6)
        assigner = LeastLoadedDispatcher().assigner(num_servers, server_speeds=speeds)
        chunked = np.concatenate(
            [
                assigner.assign_chunk(
                    jobs.arrival_times[lo:hi], jobs.service_demands[lo:hi]
                )
                for lo, hi in zip(CHUNK_BOUNDS, CHUNK_BOUNDS[1:])
            ]
        )
        np.testing.assert_array_equal(
            chunked, reference_least_loaded_scan(jobs, num_servers, speeds)
        )

    @pytest.mark.parametrize("trace_index", range(len(TIE_TRACES)))
    @pytest.mark.parametrize("num_servers", [2, 4])
    def test_exact_ties_byte_identical(self, trace_index, num_servers):
        jobs = TIE_TRACES[trace_index]
        np.testing.assert_array_equal(
            least_loaded(jobs, num_servers),
            reference_least_loaded_scan(jobs, num_servers),
        )

    @pytest.mark.parametrize("trace_index", range(len(TIE_TRACES)))
    @pytest.mark.parametrize("num_servers,speeds", MIXED_SPEED_CASES)
    def test_exact_ties_mixed_speeds_byte_identical(
        self, trace_index, num_servers, speeds
    ):
        jobs = TIE_TRACES[trace_index]
        np.testing.assert_array_equal(
            least_loaded(jobs, num_servers, speeds),
            reference_least_loaded_scan(jobs, num_servers, speeds),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_coarse_decimal_traces_stay_identical(self, seed):
        jobs = coarse_decimal_jobs(seed)
        for num_servers in (2, 5):
            np.testing.assert_array_equal(
                least_loaded(jobs, num_servers),
                reference_least_loaded_scan(jobs, num_servers),
            )

    def test_engine_knob_is_gone(self):
        # One least-loaded assigner: no engine selector on any dispatcher,
        # and no engine names left to import.
        tenants = _single_tenant()
        with pytest.raises(TypeError):
            LeastLoadedDispatcher(engine="loop")
        with pytest.raises(TypeError):
            WeightedFairDispatcher(tenants, engine="loop")
        with pytest.raises(TypeError):
            make_tenant_dispatcher("least-loaded", tenants, engine="loop")
        with pytest.raises(TypeError):
            PowerAwareDispatcher([1.0], engine="loop")
        assert not hasattr(WeightedFairDispatcher(tenants), "engine")
        for name in ("DISPATCH_ENGINES", "ENGINE_HEAP", "ENGINE_LOOP", "validate_engine"):
            assert not hasattr(repro.cluster, name)
            assert not hasattr(repro.cluster.dispatch, name)

    def test_dispatch_is_still_lossless(self):
        jobs = poisson_jobs(2000, 3.0, seed=7)
        for dispatcher in (
            LeastLoadedDispatcher(),
            PowerAwareDispatcher(list(np.linspace(4, 20, 4))),
        ):
            streams = dispatcher.dispatch(jobs, 4)
            assert merge_streams(streams) == jobs


def reference_power_aware_scan(jobs, ranking, threshold, speeds) -> np.ndarray:
    """The ranked power-aware scan, written on ``WorkTracker.charge``."""
    tracker = WorkTracker(len(ranking), server_speeds=speeds)
    assignment = np.empty(len(jobs), dtype=np.int64)
    for index, (arrival, demand) in enumerate(
        zip(jobs.arrival_times.tolist(), jobs.service_demands.tolist())
    ):
        for candidate in ranking:
            if tracker.busy_until[candidate] <= arrival + threshold:
                server = candidate
                break
        else:
            server = tracker.busy_until.index(min(tracker.busy_until))
        assignment[index] = server
        tracker.charge(server, arrival, demand)
    return assignment


class TestPowerAwareGolden:
    """The ranked per-job scan, pinned cell by cell to recorded digests."""

    @pytest.mark.parametrize("utilization", UTILIZATIONS)
    @pytest.mark.parametrize("num_servers,speeds", GOLDEN_SPEED_CASES)
    @pytest.mark.parametrize("max_backlog", [None, 0.05, 1.0])
    def test_power_aware_golden(self, utilization, num_servers, speeds, max_backlog):
        jobs = poisson_jobs(3000, utilization, seed=int(utilization * 10) + 1)
        idle_powers = list(np.linspace(4.0, 20.0, num_servers))
        assignment = PowerAwareDispatcher(idle_powers, max_backlog=max_backlog).assign(
            jobs, num_servers, server_speeds=speeds
        )
        case = SPEED_CASES.index((num_servers, speeds))
        key = f"util={utilization}/case={case}/backlog={max_backlog}"
        assert digest(assignment) == GOLDEN["cells"][key]

    @pytest.mark.parametrize("utilization", UTILIZATIONS)
    @pytest.mark.parametrize("num_servers,speeds", SPEED_CASES[len(GOLDEN_SPEED_CASES):])
    @pytest.mark.parametrize("max_backlog", [None, 0.05, 1.0])
    def test_power_aware_later_cases_match_reference_scan(
        self, utilization, num_servers, speeds, max_backlog
    ):
        jobs = poisson_jobs(3000, utilization, seed=int(utilization * 10) + 1)
        idle_powers = list(np.linspace(4.0, 20.0, num_servers))
        assignment = PowerAwareDispatcher(idle_powers, max_backlog=max_backlog).assign(
            jobs, num_servers, server_speeds=speeds
        )
        threshold = 4.0 * jobs.mean_service_demand if max_backlog is None else max_backlog
        expected = reference_power_aware_scan(
            jobs, list(range(num_servers)), threshold, speeds
        )
        assert digest(assignment) == digest(expected)

    @pytest.mark.parametrize("trace_index", range(len(TIE_TRACES)))
    @pytest.mark.parametrize("num_servers", [2, 4])
    def test_exact_ties_golden(self, trace_index, num_servers):
        idle_powers = list(range(1, num_servers + 1))
        assignment = PowerAwareDispatcher(idle_powers).assign(
            TIE_TRACES[trace_index], num_servers
        )
        key = f"trace={trace_index}/servers={num_servers}"
        assert digest(assignment) == GOLDEN["ties"][key]

    @pytest.mark.parametrize("seed", range(8))
    def test_coarse_decimal_traces_golden(self, seed):
        jobs = coarse_decimal_jobs(seed)
        for num_servers in (2, 5):
            idle_powers = list(np.linspace(1.0, 3.0, num_servers))
            for max_backlog in (0.3, None):
                assignment = PowerAwareDispatcher(
                    idle_powers, max_backlog=max_backlog
                ).assign(jobs, num_servers)
                key = f"seed={seed}/servers={num_servers}/backlog={max_backlog}"
                assert digest(assignment) == GOLDEN["coarse"][key], key

    @pytest.mark.parametrize("utilization,max_backlog", [(0.7, None), (10.0, 0.001)])
    def test_matches_reference_scan_on_mixed_fleet(self, utilization, max_backlog):
        # Stream-farm's shape: 8 Xeon + 8 Atom (0.7 ceiling) servers, the
        # trace at 0.7 of one full-frequency server.  The near-saturated
        # case with a tight backlog drives the least-loaded fallback.
        speeds = [1.0] * 8 + [0.7] * 8
        models = [xeon_power_model()] * 8 + [atom_power_model()] * 8
        dispatcher = PowerAwareDispatcher.from_power_models(models, max_backlog=max_backlog)
        jobs = poisson_jobs(20_000, utilization, seed=12)
        threshold = 4.0 * jobs.mean_service_demand if max_backlog is None else max_backlog
        ranking = np.argsort([m.idle_power(1.0) for m in models], kind="stable").tolist()
        expected = reference_power_aware_scan(jobs, ranking, threshold, speeds)
        one_shot = dispatcher.assign(jobs, 16, server_speeds=speeds)
        assert digest(one_shot) == digest(expected)
        empty = dispatcher.assigner(16, server_speeds=speeds)
        assigned = empty.assign_chunk(np.empty(0), np.empty(0))
        assert assigned.dtype == np.int64 and assigned.shape == (0,)

    def test_rounding_boundary_run_blocks_stay_identical(self):
        """Regression: a threshold comparison that lands on a last-ulp
        boundary is decided by the sequential per-job additions.  The first
        two jobs take server 0 to (0.1+0.2)+0.3 = 0.6000000000000001, one
        ulp past the third job's cutoff 0.1+0.5 = 0.6, so the third spills
        (the reassociated (0.2+0.3)+0.1 = 0.6 would have kept it)."""
        jobs = JobTrace([0.1, 0.1, 0.1], [0.2, 0.3, 0.05])
        assignment = PowerAwareDispatcher([1.0, 2.0], max_backlog=0.5).assign(jobs, 2)
        assert list(assignment) == [0, 0, 1]


    @pytest.mark.parametrize("num_jobs", [BURST - 1, BURST, BURST + 1, 3 * BURST + 17])
    def test_burst_boundaries_match_reference_scan(self, num_jobs):
        # Traces ending just before, on and just after a burst boundary,
        # and one crossing three boundaries: the busy-until state carried
        # from burst to burst must leave the scan unchanged.
        speeds = [1.0, 0.7, 1.0, 0.5]
        dispatcher = PowerAwareDispatcher([2.0, 1.0, 3.0, 0.5], max_backlog=0.01)
        jobs = poisson_jobs(num_jobs, 2.0, seed=num_jobs)
        expected = reference_power_aware_scan(jobs, [3, 1, 0, 2], 0.01, speeds)
        one_shot = dispatcher.assign(jobs, 4, server_speeds=speeds)
        assert digest(one_shot) == digest(expected)

    def test_adaptive_threshold_follows_the_demands_handed_in(self):
        # A regime slice gets 4 x its own mean demand, exactly as if that
        # slice were dispatched as a whole trace.
        speeds = [1.0, 0.7, 1.0, 0.5]
        idle_powers = [2.0, 1.0, 3.0, 0.5]
        jobs = poisson_jobs(6000, 2.0, seed=21)
        part = jobs.head(2500)
        assigned = PowerAwareDispatcher(idle_powers).assigner(
            4, server_speeds=speeds
        ).assign_chunk(part.arrival_times, part.service_demands)
        threshold = 4.0 * float(np.mean(part.service_demands))
        expected = reference_power_aware_scan(part, [3, 1, 0, 2], threshold, speeds)
        assert digest(assigned) == digest(expected)
        # Zero-demand jobs fall back to a one-second threshold.
        zeros = JobTrace(np.arange(5.0), np.zeros(5))
        assert list(PowerAwareDispatcher(idle_powers).assign(zeros, 4)) == [3] * 5


def peak_bytes_per_job(dispatcher, jobs, num_servers, speeds) -> float:
    """Peak traced bytes per job of one one-shot :meth:`assign` call."""
    tracemalloc.start()
    try:
        assignment = dispatcher.assign(jobs, num_servers, server_speeds=speeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert assignment.shape == (len(jobs),)
    return peak / len(jobs)


class TestPowerAwareMemory:
    def test_one_shot_assign_peaks_under_16_bytes_per_job(self):
        # Farm runs dispatch the whole trace in one call, so the scan must
        # not turn it into Python lists: a whole-trace ``.tolist()`` peaks
        # at ~80 B/job, burst stepping at the int64 assignment plus the
        # arrival-order check (~9 B/job).
        num_jobs = 200_000
        models = [xeon_power_model()] * 8 + [atom_power_model()] * 8
        speeds = [1.0] * 8 + [0.7] * 8
        dispatcher = PowerAwareDispatcher.from_power_models(models)
        jobs = poisson_jobs(num_jobs, 0.7, seed=4)
        per_job = peak_bytes_per_job(dispatcher, jobs, 16, speeds)
        assert per_job <= 16, f"{per_job:.1f} B/job"

    def test_least_loaded_heap_assign_peaks_under_16_bytes_per_job(self):
        # The heap assigner steps in the same bursts, so it holds the same
        # bound on the same one-shot call.
        speeds = [1.0] * 8 + [0.7] * 8
        jobs = poisson_jobs(200_000, 0.7 * 15.6, seed=4)
        per_job = peak_bytes_per_job(LeastLoadedDispatcher(), jobs, 16, speeds)
        assert per_job <= 16, f"{per_job:.1f} B/job"


def _single_tenant() -> tuple[TenantSpec, ...]:
    return (TenantSpec(name="only", qos=mean_qos_from_baseline(0.8)),)


#: Every work-tracking dispatcher.
WORK_TRACKING_DISPATCHERS = {
    "least-loaded-heap": lambda: LeastLoadedDispatcher(),
    "power-aware": lambda: PowerAwareDispatcher([1.0, 2.0], max_backlog=1.0),
    "priority": lambda: PriorityDispatcher(_single_tenant()),
    "weighted-fair": lambda: WeightedFairDispatcher(_single_tenant()),
}


class TestArrivalOrder:
    @pytest.mark.parametrize("name", sorted(WORK_TRACKING_DISPATCHERS))
    def test_unordered_arrivals_rejected(self, name):
        assigner = WORK_TRACKING_DISPATCHERS[name]().assigner(2)
        with pytest.raises(TraceError, match="arrival-ordered"):
            assigner.assign_chunk(np.array([1.0, 3.0, 2.0]), np.ones(3))
        # Simultaneous arrivals are in order.
        fresh = WORK_TRACKING_DISPATCHERS[name]().assigner(2)
        assert fresh.assign_chunk(np.array([1.0, 1.0, 2.0]), np.ones(3)).shape == (3,)


class TestWorkTracker:
    def test_charge_is_speed_aware(self):
        tracker = WorkTracker(2, server_speeds=[1.0, 0.5])
        assert tracker.charge(0, arrival=1.0, demand=2.0) == 3.0
        assert tracker.charge(1, arrival=1.0, demand=2.0) == 5.0  # half speed
        assert tracker.backlog(1, now=2.0) == 3.0
        assert tracker.backlog(0, now=10.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkTracker(0)
        with pytest.raises(ConfigurationError):
            WorkTracker(2, server_speeds=[1.0])
        with pytest.raises(ConfigurationError):
            WorkTracker(2, server_speeds=[1.0, 0.0])
        with pytest.raises(ConfigurationError):
            WorkTracker(2, server_speeds=[1.0, -2.0])


class TestSpeedAwareBacklogRegression:
    """The heterogeneity-blind backlog bug: charging raw full-frequency
    demand regardless of platform speed provably mis-routes on a mixed farm.
    """

    def true_finish_times(self, jobs, assignment, speeds):
        """Replay an assignment against the servers' *actual* speeds."""
        tracker = WorkTracker(len(speeds), server_speeds=speeds)
        finishes = np.empty(len(jobs))
        for index, (arrival, demand) in enumerate(
            zip(jobs.arrival_times, jobs.service_demands)
        ):
            finishes[index] = tracker.charge(int(assignment[index]), arrival, demand)
        return finishes

    def test_least_loaded_misroute(self):
        # Server 1 runs at half speed.  The blind estimate believes it has
        # the smaller backlog at job 2 and routes there; the speed-aware
        # estimate sends the job to the faster server, finishing earlier.
        speeds = [1.0, 0.5]
        jobs = JobTrace([0.0, 0.0, 0.0], [0.8, 0.7, 0.7])
        blind = least_loaded(jobs, 2)
        aware = least_loaded(jobs, 2, speeds)
        assert list(blind) == [0, 1, 1]
        assert list(aware) == [0, 1, 0]
        assert list(reference_least_loaded_scan(jobs, 2)) == [0, 1, 1]
        assert list(reference_least_loaded_scan(jobs, 2, speeds)) == [0, 1, 0]
        blind_finishes = self.true_finish_times(jobs, blind, speeds)
        aware_finishes = self.true_finish_times(jobs, aware, speeds)
        assert aware_finishes.max() < blind_finishes.max()

    def test_power_aware_overloads_slow_server_when_blind(self):
        # The efficient server (rank 0) is an Atom-class box at half speed.
        # Blind backlog keeps packing it past its true threshold; the
        # speed-aware estimate spills one job earlier.
        speeds = [0.5, 1.0]
        jobs = JobTrace(np.zeros(4), np.full(4, 0.4))
        dispatcher = PowerAwareDispatcher([1.0, 2.0], max_backlog=1.0)
        blind = dispatcher.assign(jobs, 2)
        aware = dispatcher.assign(jobs, 2, server_speeds=speeds)
        assert list(blind) == [0, 0, 0, 1]
        assert list(aware) == [0, 0, 1, 1]
        # At job 2 the slow server's true backlog (2 x 0.4 / 0.5 = 1.6 s)
        # already exceeded the 1-second threshold — the blind route was a
        # genuine mis-route, not a tie.
        tracker = WorkTracker(2, server_speeds=speeds)
        tracker.charge(0, 0.0, 0.4)
        tracker.charge(0, 0.0, 0.4)
        assert tracker.backlog(0, now=0.0) > 1.0

    def test_speeds_equal_one_reproduce_blind_estimate(self):
        jobs = poisson_jobs(2000, 3.0, seed=3)
        for assign in (least_loaded, reference_least_loaded_scan):
            np.testing.assert_array_equal(
                assign(jobs, 3), assign(jobs, 3, [1.0, 1.0, 1.0])
            )

    def test_no_idle_server_starvation_under_heterogeneity(self):
        speeds = [1.0, 0.5, 0.7]
        jobs = poisson_jobs(3000, 2.0, seed=9)
        assignment = LeastLoadedDispatcher().assign(jobs, 3, server_speeds=speeds)
        tracker = WorkTracker(3, server_speeds=speeds)
        for index, (arrival, demand) in enumerate(
            zip(jobs.arrival_times, jobs.service_demands)
        ):
            backlogs = [tracker.backlog(s, arrival) for s in range(3)]
            chosen = int(assignment[index])
            if backlogs[chosen] > 0:
                assert not any(b == 0.0 for b in backlogs), (
                    f"job {index} sent to a busy server while another was idle"
                )
            tracker.charge(chosen, arrival, demand)

    def test_power_aware_packs_most_efficient_under_heterogeneity(self):
        # Widely spaced small jobs: the efficient (slow) server never
        # saturates even at half speed, so everything still lands on it.
        jobs = JobTrace(np.arange(50, dtype=float), np.full(50, 0.01))
        assignment = PowerAwareDispatcher([30.0, 10.0, 20.0]).assign(
            jobs, 3, server_speeds=[1.0, 0.5, 1.0]
        )
        assert np.all(assignment == 1)


class TestRandomDispatcherDeterminism:
    """Determinism contract: the dispatcher must hold no advancing RNG
    state — every ``assign`` derives a fresh generator from (seed, trace
    length), so repeated identical farm runs split identically while
    different traces decorrelate.  Pinned so a future refactor cannot
    reintroduce a shared advancing generator."""

    def test_same_instance_assigns_identically_twice(self):
        jobs = poisson_jobs(2000, 3.0, seed=1)
        dispatcher = RandomDispatcher(seed=9)
        first = dispatcher.assign(jobs, 3)
        second = dispatcher.assign(jobs, 3)
        np.testing.assert_array_equal(first, second)

    def test_farm_level_determinism(self):
        jobs = poisson_jobs(1000, 2.0, seed=2)
        dispatcher = RandomDispatcher(seed=4)
        first = dispatcher.dispatch(jobs, 3)
        second = dispatcher.dispatch(jobs, 3)
        for a, b in zip(first, second):
            assert (a is None and b is None) or a == b

    def test_trace_length_folds_into_the_seed(self):
        long_jobs = poisson_jobs(1000, 2.0, seed=2)
        short_jobs = long_jobs.head(500)
        dispatcher = RandomDispatcher(seed=4)
        long_assignment = dispatcher.assign(long_jobs, 3)
        short_assignment = dispatcher.assign(short_jobs, 3)
        # Different trace lengths decorrelate (a shared prefix would mean
        # the fold is ignored).
        assert not np.array_equal(long_assignment[:500], short_assignment)

    def test_unseeded_dispatcher_still_randomises(self):
        jobs = poisson_jobs(500, 2.0, seed=2)
        assignment = RandomDispatcher(seed=None).assign(jobs, 4)
        assert set(np.unique(assignment)) <= {0, 1, 2, 3}
