"""Tests for Job and JobTrace containers."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TraceError
from repro.workloads.jobs import Job, JobTrace


class TestJob:
    def test_valid_job(self):
        job = Job(0, 1.0, 0.2)
        assert job.arrival_time == 1.0
        assert job.service_demand == 0.2

    def test_rejects_negative_arrival(self):
        with pytest.raises(TraceError):
            Job(0, -1.0, 0.2)

    def test_rejects_negative_demand(self):
        with pytest.raises(TraceError):
            Job(0, 1.0, -0.2)


class TestJobTraceConstruction:
    def test_basic_construction(self, simple_trace):
        assert len(simple_trace) == 3
        assert simple_trace.start_time == 0.0
        assert simple_trace.end_time == 10.0

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            JobTrace([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(TraceError):
            JobTrace([0.0, 1.0], [0.5])

    def test_rejects_decreasing_arrivals(self):
        with pytest.raises(TraceError):
            JobTrace([1.0, 0.5], [0.1, 0.1])

    def test_rejects_negative_values(self):
        with pytest.raises(TraceError):
            JobTrace([-1.0, 0.0], [0.1, 0.1])
        with pytest.raises(TraceError):
            JobTrace([0.0, 1.0], [0.1, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(TraceError):
            JobTrace([0.0, np.inf], [0.1, 0.1])

    def test_from_interarrivals(self):
        trace = JobTrace.from_interarrivals([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        assert list(trace.arrival_times) == [1.0, 3.0, 6.0]

    def test_from_interarrivals_with_start_time(self):
        trace = JobTrace.from_interarrivals([1.0], [0.1], start_time=5.0)
        assert trace.arrival_times[0] == 6.0

    def test_from_jobs(self):
        jobs = [Job(0, 0.0, 0.5), Job(1, 1.0, 0.5)]
        trace = JobTrace.from_jobs(jobs)
        assert len(trace) == 2

    def test_from_jobs_rejects_empty(self):
        with pytest.raises(TraceError):
            JobTrace.from_jobs([])


class TestJobTraceAccessors:
    def test_iteration_yields_jobs(self, simple_trace):
        jobs = list(simple_trace)
        assert [j.index for j in jobs] == [0, 1, 2]
        assert jobs[2].arrival_time == 10.0

    def test_indexing(self, simple_trace):
        assert simple_trace[1].arrival_time == 1.0
        assert simple_trace[-1].arrival_time == 10.0

    def test_index_out_of_range(self, simple_trace):
        with pytest.raises(IndexError):
            simple_trace[3]

    def test_interarrival_times(self, simple_trace):
        assert list(simple_trace.interarrival_times) == [0.0, 1.0, 9.0]

    def test_mean_statistics(self, simple_trace):
        assert simple_trace.mean_service_demand == pytest.approx(2.0 / 3.0)
        assert simple_trace.mean_interarrival_time == pytest.approx(5.0)

    def test_offered_load(self, simple_trace):
        # Total demand 2.0 over a 10-second span.
        assert simple_trace.offered_load == pytest.approx(0.2)

    def test_arrays_are_read_only(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.arrival_times[0] = 99.0

    def test_equality(self):
        a = JobTrace([0.0, 1.0], [0.1, 0.2])
        b = JobTrace([0.0, 1.0], [0.1, 0.2])
        c = JobTrace([0.0, 2.0], [0.1, 0.2])
        assert a == b
        assert a != c


class TestJobTraceTransformations:
    def test_shifted(self, simple_trace):
        shifted = simple_trace.shifted(5.0)
        assert shifted.start_time == 5.0
        assert shifted.mean_service_demand == simple_trace.mean_service_demand

    def test_shift_cannot_go_negative(self, simple_trace):
        with pytest.raises(TraceError):
            simple_trace.shifted(-1.0)

    def test_scaled_interarrivals_changes_load(self, simple_trace):
        stretched = simple_trace.scaled_interarrivals(2.0)
        assert stretched.offered_load == pytest.approx(simple_trace.offered_load / 2.0)

    def test_scaled_to_utilization(self, simple_trace):
        target = 0.5
        rescaled = simple_trace.scaled_to_utilization(target)
        assert rescaled.offered_load == pytest.approx(target, rel=1e-6)

    def test_scaled_to_utilization_rejects_out_of_range(self, simple_trace):
        with pytest.raises(TraceError):
            simple_trace.scaled_to_utilization(1.5)

    def test_scaled_interarrivals_rejects_non_positive(self, simple_trace):
        with pytest.raises(TraceError):
            simple_trace.scaled_interarrivals(0.0)

    def test_slice_by_time(self, simple_trace):
        window = simple_trace.slice_by_time(0.5, 5.0)
        assert window is not None
        assert len(window) == 1
        assert window.arrival_times[0] == pytest.approx(0.5)  # re-based

    def test_slice_by_time_empty_returns_none(self, simple_trace):
        assert simple_trace.slice_by_time(2.0, 3.0) is None

    def test_slice_by_time_rejects_bad_window(self, simple_trace):
        with pytest.raises(TraceError):
            simple_trace.slice_by_time(5.0, 5.0)

    def test_head(self, simple_trace):
        head = simple_trace.head(2)
        assert len(head) == 2
        assert head.end_time == 1.0

    def test_head_longer_than_trace(self, simple_trace):
        assert len(simple_trace.head(100)) == 3

    def test_head_rejects_zero(self, simple_trace):
        with pytest.raises(TraceError):
            simple_trace.head(0)

    def test_tail_keeps_most_recent_jobs_rebased(self):
        trace = JobTrace([0.0, 10.0, 20.0, 30.0], [1.0, 2.0, 3.0, 4.0])
        tail = trace.tail(2)
        assert len(tail) == 2
        assert list(tail.service_demands) == [3.0, 4.0]
        # Re-based to start at zero: without it the mid-trace absolute
        # arrival would enter offered_load as a giant leading gap.
        assert tail.start_time == 0.0
        assert tail.end_time == pytest.approx(10.0)

    def test_tail_offered_load_matches_slice_not_whole_trace(self):
        # A sparse old half and a dense recent half: the tail's offered
        # load must reflect the dense half only.
        arrivals = np.concatenate([np.arange(10) * 10.0, 100.0 + np.arange(10) * 1.0])
        demands = np.full(20, 0.5)
        tail = JobTrace(arrivals, demands).tail(10)
        assert tail.offered_load == pytest.approx(0.5 * 10 / 9.0)

    def test_tail_longer_than_trace(self, simple_trace):
        tail = simple_trace.tail(100)
        assert len(tail) == 3
        assert tail.start_time == 0.0

    def test_tail_rejects_zero(self, simple_trace):
        with pytest.raises(TraceError):
            simple_trace.tail(0)

    def test_concatenated(self, simple_trace):
        combined = simple_trace.concatenated(simple_trace, gap=5.0)
        assert len(combined) == 6
        assert combined.arrival_times[3] == pytest.approx(15.0)

    def test_concatenated_rejects_negative_gap(self, simple_trace):
        with pytest.raises(TraceError):
            simple_trace.concatenated(simple_trace, gap=-1.0)


class TestJobTraceCsv:
    def test_round_trip(self, simple_trace, tmp_path):
        path = tmp_path / "jobs.csv"
        simple_trace.to_csv(path)
        loaded = JobTrace.from_csv(path)
        assert len(loaded) == len(simple_trace)
        assert np.allclose(loaded.arrival_times, simple_trace.arrival_times)
        assert np.allclose(loaded.service_demands, simple_trace.service_demands)

    def test_from_csv_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("arrival_s,service_demand_s\n")
        with pytest.raises(TraceError):
            JobTrace.from_csv(path)

    def test_round_trip_preserves_offered_load(self, small_dns_trace, tmp_path):
        path = tmp_path / "dns.csv"
        small_dns_trace.to_csv(path)
        loaded = JobTrace.from_csv(path)
        assert loaded.offered_load == pytest.approx(small_dns_trace.offered_load, rel=1e-6)


def make_trace(n: int = 64, seed: int = 0) -> JobTrace:
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.uniform(0.001, 0.1, size=n))
    demands = rng.uniform(0.0001, 0.05, size=n)
    return JobTrace(arrivals, demands)


#: Sorted non-negative finite float arrays — a valid arrival process.
arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
).map(sorted)

#: A 3-job trace file byte for byte as ``to_file`` has always written it: a
#: version-1.0 ``.npy`` header for a ``(2, 3)`` little-endian float64 array,
#: then row 0 (arrival times) and row 1 (service demands).
SAVED_TRACE_BYTES = (
    b"\x93NUMPY\x01\x00v\x00"
    + b"{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), }".ljust(117)
    + b"\n"
    + np.asarray([[0.0, 0.5, 1.25], [0.1, 0.2, 0.3]], dtype="<f8").tobytes()
)


def _save_npz(path):
    with path.open("wb") as handle:
        np.savez(handle, trace=np.zeros((2, 3)))


#: Files ``from_file`` must reject as "not a trace file", naming the path:
#: case → writer of the file at the given path.
NOT_TRACE_FILES = {
    "csv-text": lambda path: path.write_text("arrival,demand\n0.0,0.1\n"),
    "pickled-objects": lambda path: np.save(
        path, np.array([{"arrival": 0.0}], dtype=object), allow_pickle=True
    ),
    "npz-archive": _save_npz,
    "truncated-data": lambda path: path.write_bytes(SAVED_TRACE_BYTES[:-8]),
    "header-only": lambda path: path.write_bytes(SAVED_TRACE_BYTES[:128]),
    "truncated-magic": lambda path: path.write_bytes(SAVED_TRACE_BYTES[:5]),
    "directory": lambda path: path.mkdir(),
    "one-row": lambda path: np.save(path, np.arange(3.0)),
    "three-dimensional": lambda path: np.save(path, np.zeros((2, 3, 1))),
    "transposed": lambda path: np.save(path, np.zeros((4, 2))),
    "float32": lambda path: np.save(path, np.zeros((2, 3), dtype=np.float32)),
    "complex": lambda path: np.save(path, np.zeros((2, 3), dtype=complex)),
}


class TestJobTraceFile:
    def test_roundtrip_exact(self, tmp_path):
        trace = make_trace(300, seed=7)
        path = tmp_path / "trace.npy"
        trace.to_file(path)
        loaded = JobTrace.from_file(path)
        assert np.array_equal(loaded.arrival_times, trace.arrival_times)
        assert np.array_equal(loaded.service_demands, trace.service_demands)

    @given(arrivals=arrival_lists)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_bitwise_lossless(self, arrivals, tmp_path_factory):
        # to_csv rounds to nanoseconds; the binary file must not lose a ulp.
        demands = [1e-9 * (index + 1) for index in range(len(arrivals))]
        trace = JobTrace(arrivals, demands)
        path = tmp_path_factory.mktemp("traces") / "roundtrip.npy"
        trace.to_file(path)
        loaded = JobTrace.from_file(path)
        assert np.array_equal(loaded.arrival_times, trace.arrival_times)
        assert np.array_equal(loaded.service_demands, trace.service_demands)

    def test_labelled_roundtrip(self, tmp_path):
        trace = make_trace(50, seed=3).with_tenant_ids(np.arange(50) % 3)
        path = tmp_path / "labelled.npy"
        trace.to_file(path)
        assert np.load(path).shape == (3, 50)
        loaded = JobTrace.from_file(path)
        assert loaded == trace
        assert np.array_equal(loaded.tenant_ids, trace.tenant_ids)
        assert loaded.tenant_ids.dtype == np.int64

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0.0, 1.5, 1.0], "integers"),
            ([0.0, np.nan, 1.0], "integers"),
            ([0.0, -1.0, 1.0], "non-negative"),
        ],
    )
    def test_bad_label_row_rejected(self, labels, message, tmp_path):
        path = tmp_path / "labelled.npy"
        np.save(path, np.asarray([[0.0, 0.5, 1.25], [0.1, 0.2, 0.3], labels]))
        with pytest.raises(TraceError, match=message) as caught:
            JobTrace.from_file(path)
        assert str(path) in str(caught.value)

    def test_saved_format_loads_and_is_unchanged(self, tmp_path):
        saved = tmp_path / "saved.npy"
        saved.write_bytes(SAVED_TRACE_BYTES)
        trace = JobTrace([0.0, 0.5, 1.25], [0.1, 0.2, 0.3])
        assert JobTrace.from_file(saved) == trace
        # The writer keeps producing exactly these bytes, at exactly the
        # given path (no ``.npy`` suffix appended).
        written = tmp_path / "written.trace"
        trace.to_file(written)
        assert written.read_bytes() == SAVED_TRACE_BYTES

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            JobTrace.from_file(tmp_path / "nope.npy")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.npy"
        np.save(path, np.empty((2, 0)))
        with pytest.raises(TraceError, match="no jobs"):
            JobTrace.from_file(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.arange(12.0).reshape(4, 3))
        with pytest.raises(TraceError, match="not a trace file"):
            JobTrace.from_file(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        path = tmp_path / "ints.npy"
        np.save(path, np.arange(6, dtype=np.int64).reshape(2, 3))
        with pytest.raises(TraceError, match="not a trace file"):
            JobTrace.from_file(path)

    def test_validation_on_load_catches_corruption(self, tmp_path):
        path = tmp_path / "corrupt.npy"
        np.save(path, np.asarray([[0.0, 2.0, 1.0], [0.1, 0.1, 0.1]]))
        with pytest.raises(TraceError, match="non-decreasing"):
            JobTrace.from_file(path)

    def test_mmap_parameter_is_gone(self, tmp_path):
        path = tmp_path / "trace.npy"
        make_trace(5).to_file(path)
        with pytest.raises(TypeError, match="mmap"):
            JobTrace.from_file(path, mmap=True)

    def test_validate_parameter_is_gone(self, tmp_path):
        path = tmp_path / "trace.npy"
        make_trace(5).to_file(path)
        with pytest.raises(TypeError, match="validate"):
            JobTrace.from_file(path, validate=False)

    @pytest.mark.parametrize("case", sorted(NOT_TRACE_FILES))
    def test_not_a_trace_file_is_named(self, case, tmp_path):
        path = tmp_path / "trace.npy"
        NOT_TRACE_FILES[case](path)
        with pytest.raises(TraceError, match="not a trace file") as caught:
            JobTrace.from_file(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize(
        "arrivals, demands, message",
        [
            ([0.0, np.nan], [0.1, 0.1], "finite"),
            ([0.0, 1.0], [0.1, np.inf], "finite"),
            ([0.0, 1.0], [0.1, -0.1], "non-negative"),
            ([-1.0, 1.0], [0.1, 0.1], "non-negative"),
        ],
    )
    def test_rejects_like_the_constructor(self, arrivals, demands, message, tmp_path):
        path = tmp_path / "corrupt.npy"
        np.save(path, np.asarray([arrivals, demands], dtype=np.float64))
        with pytest.raises(TraceError, match=message) as caught:
            JobTrace.from_file(path)
        assert str(path) in str(caught.value)


class TestTrustedConstructor:
    def test_skips_the_scans(self):
        # Documented trust: invariant-violating arrays pass through, because
        # the constructor is only for arrays derived from validated traces.
        trace = JobTrace.from_validated_arrays(
            np.asarray([2.0, 1.0]), np.asarray([0.1, 0.1])
        )
        assert len(trace) == 2

    def test_still_checks_shape_agreement(self):
        with pytest.raises(TraceError, match="service demands"):
            JobTrace.from_validated_arrays(np.arange(3.0), np.arange(2.0))
        with pytest.raises(TraceError, match="1-D"):
            JobTrace.from_validated_arrays(
                np.arange(4.0).reshape(2, 2), np.arange(4.0).reshape(2, 2)
            )

    def test_derived_traces_match_the_validating_path(self):
        trace = make_trace(50)
        head = trace.head(10)
        tail = trace.tail(10)
        window = trace.slice_by_time(trace.start_time, trace.end_time)
        assert head == JobTrace(trace.arrival_times[:10], trace.service_demands[:10])
        assert len(tail) == 10
        assert window is not None
        # Every derived trace still satisfies the invariants it skipped
        # re-checking (they are preserved by construction).
        for derived in (head, tail, window):
            JobTrace(derived.arrival_times, derived.service_demands)


class TestEmptyTrace:
    def test_empty_constructor(self):
        trace = JobTrace.empty()
        assert len(trace) == 0
        assert list(trace) == []
        assert trace.arrival_times.size == 0
        assert trace.service_demands.size == 0

    def test_plain_constructor_still_rejects_empty(self):
        with pytest.raises(TraceError):
            JobTrace([], [])

    def test_repr_does_not_crash(self):
        assert "empty" in repr(JobTrace.empty())


class TestEmptyTraceContract:
    def test_time_span_accessors_raise_trace_error(self):
        trace = JobTrace.empty()
        with pytest.raises(TraceError):
            trace.start_time
        with pytest.raises(TraceError):
            trace.end_time
        with pytest.raises(TraceError):
            trace.duration

    def test_means_are_quiet_nan(self):
        import warnings

        trace = JobTrace.empty()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(trace.mean_service_demand)
            assert np.isnan(trace.mean_interarrival_time)


def test_trace_storage_module_is_gone():
    import repro.workloads

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.workloads.storage")
    for name in (
        "TRACE_BACKENDS",
        "validate_trace_backend",
        "validate_trace_arrays",
        "is_mmap_backed",
        "ArrayDescriptor",
        "SharedTraceArena",
        "TraceBuffer",
    ):
        assert not hasattr(repro.workloads, name), name
