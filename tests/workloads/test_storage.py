"""Trace storage backends: descriptors, the arena, file round trips.

The contracts pinned here:

* the array a descriptor loads is byte-identical to the published range
  (the substrate of the farm-level parity suite);
* arena files never leak — normal exit, exceptions, idempotent close;
* the ``.npy`` trace file round trip is exact (unlike the CSV interchange
  format, which rounds), and validation of memory-mapped files runs in
  bounded chunks with the same error surface as the trusting-nothing
  :class:`JobTrace` constructor.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import ProcessExecutor
from repro.exceptions import ConfigurationError, TraceError
from repro.workloads.jobs import JobTrace
from repro.workloads.storage import (
    TRACE_BACKENDS,
    ArrayDescriptor,
    SharedTraceArena,
    TraceBuffer,
    is_mmap_backed,
    validate_trace_arrays,
    validate_trace_backend,
)


def load_descriptor(descriptor: ArrayDescriptor) -> np.ndarray:
    """Module-level (hence picklable) worker: resolve one descriptor."""
    return descriptor.load()


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


class TestBackendNames:
    def test_registry(self):
        assert TRACE_BACKENDS == ("memory", "mmap")
        for backend in TRACE_BACKENDS:
            assert validate_trace_backend(backend) == backend

    @pytest.mark.parametrize("name", ["tape", "shm"])
    def test_unknown_rejected(self, name):
        with pytest.raises(ConfigurationError, match="unknown trace backend"):
            validate_trace_backend(name)


class TestArrayDescriptor:
    def test_narrow_sub_range(self):
        descriptor = ArrayDescriptor("seg.npy", 0, 100)
        narrowed = descriptor.narrow(10, 25)
        assert narrowed.offset == 10
        assert narrowed.length == 25
        assert narrowed.location == "seg.npy"
        # Narrowing composes: offsets accumulate.
        assert narrowed.narrow(5, 5).offset == 15

    def test_narrow_out_of_range(self):
        descriptor = ArrayDescriptor("seg.npy", 0, 10)
        with pytest.raises(ConfigurationError, match="narrow"):
            descriptor.narrow(5, 6)
        with pytest.raises(ConfigurationError, match="narrow"):
            descriptor.narrow(-1, 2)

    def test_invalid_ranges(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ArrayDescriptor("x.npy", -1, 1)

    def test_picklable_and_tiny(self):
        descriptor = ArrayDescriptor("seg.npy", 0, 10**9)
        blob = pickle.dumps(descriptor)
        assert pickle.loads(blob) == descriptor
        # The whole point: constant-size regardless of the array it names.
        assert len(blob) < 200


class TestChunkedValidation:
    def test_accepts_valid_arrays(self):
        trace = make_trace(500)
        validate_trace_arrays(trace.arrival_times, trace.service_demands)

    @pytest.mark.parametrize(
        "arrivals, demands, message",
        [
            ([0.0, 1.0], [0.1], "service demands"),
            ([0.0, np.nan], [0.1, 0.1], "finite"),
            ([0.0, 1.0], [0.1, -0.1], "non-negative"),
            ([1.0, 0.5], [0.1, 0.1], "non-decreasing"),
        ],
    )
    def test_rejects_like_the_constructor(self, arrivals, demands, message):
        with pytest.raises(TraceError, match=message):
            validate_trace_arrays(np.asarray(arrivals, dtype=float), np.asarray(demands, dtype=float))

    def test_cross_chunk_ordering_violation_detected(self):
        # The regression a chunked scan can miss: each chunk sorted, but the
        # boundary between chunks goes backwards.
        arrivals = np.asarray([0.0, 1.0, 2.0, 1.5, 1.6, 1.7])
        demands = np.full(6, 0.1)
        with pytest.raises(TraceError, match="non-decreasing"):
            validate_trace_arrays(arrivals, demands, chunk=3)

    def test_chunking_is_result_invisible(self):
        trace = make_trace(100)
        for chunk in (1, 7, 100, 1000):
            validate_trace_arrays(
                trace.arrival_times, trace.service_demands, chunk=chunk
            )


class TestSharedTraceArena:
    def test_publish_load_roundtrip(self):
        trace = make_trace(200)
        with SharedTraceArena() as arena:
            arrivals = arena.publish(trace.arrival_times, "arrivals")
            demands = arena.publish(trace.service_demands, "demands")
            assert np.array_equal(arrivals.load(), trace.arrival_times)
            assert np.array_equal(demands.load(), trace.service_demands)

    def test_narrowed_loads_are_the_slices(self):
        data = np.arange(100, dtype=np.int64)
        with SharedTraceArena() as arena:
            descriptor = arena.publish(data, "indices")
            loaded = descriptor.narrow(40, 10).load()
            assert loaded.dtype == np.int64
            assert np.array_equal(loaded, np.arange(40, 50))

    def test_load_is_a_private_copy(self):
        with SharedTraceArena() as arena:
            loaded = arena.publish(np.arange(8.0), "a").load()
        # The copy outlives the arena's files and is writable.
        loaded[0] = 1.0
        assert not is_mmap_backed(loaded)

    def test_files_deleted_on_normal_exit(self):
        with SharedTraceArena() as arena:
            arena.publish(np.arange(10.0), "a")
            directory = arena.directory
            assert list(directory.iterdir())
        assert not directory.exists()

    def test_files_deleted_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SharedTraceArena() as arena:
                arena.publish(np.arange(10.0), "a")
                directory = arena.directory
                raise RuntimeError("boom")
        assert not directory.exists()

    def test_close_is_idempotent(self):
        arena = SharedTraceArena()
        arena.publish(np.arange(4.0), "a")
        arena.close()
        arena.close()
        assert not arena.directory.exists()

    def test_publish_after_close_rejected(self):
        arena = SharedTraceArena()
        arena.close()
        with pytest.raises(ConfigurationError, match="closed"):
            arena.publish(np.arange(3.0), "late")

    def test_only_1d_arrays_publish(self):
        with SharedTraceArena() as arena:
            with pytest.raises(ConfigurationError, match="1-D"):
                arena.publish(np.zeros((2, 2)), "matrix")

    def test_empty_array_roundtrip(self):
        with SharedTraceArena() as arena:
            descriptor = arena.publish(np.empty(0), "empty")
            assert descriptor.length == 0
            assert descriptor.load().size == 0

    def test_loads_never_delete(self):
        with SharedTraceArena() as arena:
            descriptor = arena.publish(np.arange(8.0), "a")
            descriptor.load()
            # The file must survive any number of loads: deletion is the
            # arena's alone, on close.
            assert descriptor.load().size == 8
            assert list(arena.directory.iterdir())

    def test_descriptors_resolve_in_a_worker_process(self):
        with SharedTraceArena() as arena:
            descriptor = arena.publish(np.arange(16.0), "a")
            (loaded,) = ProcessExecutor(max_workers=1).map(
                load_descriptor, [descriptor.narrow(4, 4)]
            )
        assert np.array_equal(loaded, np.arange(4.0, 8.0))


class TestTraceBufferFile:
    def test_roundtrip_exact(self, tmp_path):
        trace = make_trace(300, seed=7)
        path = tmp_path / "trace.npy"
        trace.to_file(path)
        for mmap in (True, False):
            loaded = JobTrace.from_file(path, mmap=mmap)
            assert np.array_equal(loaded.arrival_times, trace.arrival_times)
            assert np.array_equal(loaded.service_demands, trace.service_demands)
            assert is_mmap_backed(loaded.arrival_times) == mmap

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

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            JobTrace.from_file(tmp_path / "nope.npy")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.npy"
        TraceBuffer.write_file(path, np.empty(0), np.empty(0))
        with pytest.raises(TraceError, match="no jobs"):
            JobTrace.from_file(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.arange(12.0).reshape(3, 4))
        with pytest.raises(TraceError, match="not a trace file"):
            JobTrace.from_file(path)

    def test_validation_on_load_catches_corruption(self, tmp_path):
        path = tmp_path / "corrupt.npy"
        arrivals = np.asarray([0.0, 2.0, 1.0])
        TraceBuffer.write_file(path, arrivals, np.full(3, 0.1))
        with pytest.raises(TraceError, match="non-decreasing"):
            JobTrace.from_file(path)
        # validate=False is the trusted fast path for files we just wrote.
        assert len(JobTrace.from_file(path, validate=False)) == 3

    def test_mismatched_arrays_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="matching 1-D"):
            TraceBuffer.write_file(tmp_path / "x.npy", np.arange(3.0), np.arange(2.0))


class TestTraceBufferBackends:
    @given(arrivals=arrival_lists)
    @settings(max_examples=25, deadline=None)
    def test_all_backends_expose_identical_arrays(self, arrivals, tmp_path_factory):
        demands = [0.001] * len(arrivals)
        trace = JobTrace(arrivals, demands)
        memory = TraceBuffer(trace.arrival_times, trace.service_demands)
        path = tmp_path_factory.mktemp("buffers") / "trace.npy"
        TraceBuffer.write_file(path, trace.arrival_times, trace.service_demands)
        mmap = TraceBuffer.from_file(path, mmap=True)
        for buffer in (memory, mmap):
            assert len(buffer) == len(trace)
            assert buffer.validate() is buffer
            assert buffer.as_trace() == trace
        assert is_mmap_backed(mmap.as_trace().arrival_times)
        assert not is_mmap_backed(memory.as_trace().arrival_times)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(TraceError, match="matching 1-D"):
            TraceBuffer(np.arange(3.0), np.arange(2.0))
        with pytest.raises(TraceError, match="matching 1-D"):
            TraceBuffer(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_is_mmap_backed_follows_view_bases(self, tmp_path):
        path = tmp_path / "trace.npy"
        TraceBuffer.write_file(path, np.arange(6.0), np.full(6, 0.1))
        mapped = np.load(path, mmap_mode="r")
        # Row and slice views of the map are still backed by it; a copy
        # is not.
        assert is_mmap_backed(mapped[0][2:4])
        assert not is_mmap_backed(np.array(mapped[0]))


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
            validate_trace_arrays(derived.arrival_times, derived.service_demands)
