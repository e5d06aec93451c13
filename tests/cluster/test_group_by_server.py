"""The one per-server split: a stable-argsort grouping.

:func:`~repro.cluster.dispatch.group_by_server` must hand every server exactly
the jobs a boolean mask would select, in the same order, bit for bit — and
``None`` for a server that received nothing.  ``JobDispatcher.dispatch`` and
the serial, controlled and process-sharded farm runs all split
through it, so this property is what keeps them bit-identical to each other.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dispatch import RandomDispatcher, group_by_server
from repro.workloads.jobs import JobTrace


@st.composite
def assignments(draw):
    """A farm size, an assignment over a subset of its servers, a chunk size."""
    num_servers = draw(st.integers(min_value=1, max_value=12))
    # Draw from a subset of the servers so zero-job servers are common.
    used = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_servers - 1),
            min_size=1,
            max_size=num_servers,
            unique=True,
        )
    )
    size = draw(st.integers(min_value=1, max_value=300))
    assignment = draw(st.lists(st.sampled_from(used), min_size=size, max_size=size))
    chunk = draw(st.integers(min_value=1, max_value=size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return num_servers, np.asarray(assignment, dtype=np.int64), chunk, seed


@given(case=assignments())
@settings(max_examples=200, deadline=None)
def test_ranges_equal_the_masked_arrays_bit_for_bit(case):
    num_servers, assignment, chunk, seed = case
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(size=assignment.size))
    demands = rng.standard_normal(assignment.size) * 1e-3
    labels = rng.integers(0, 5, size=assignment.size)
    # On consecutive slices of the assignment (the whole when chunk == size).
    for start in range(0, assignment.size, chunk):
        part = slice(start, start + chunk)
        sources = (arrivals[part], demands[part], labels[part])
        grouped, ranges = group_by_server(assignment[part], num_servers, *sources)
        assert len(grouped) == len(sources)
        assert len(ranges) == num_servers
        for server, bounds in enumerate(ranges):
            mask = assignment[part] == server
            if not mask.any():
                assert bounds is None
                continue
            assert bounds is not None
            for grouped_array, source in zip(grouped, sources, strict=True):
                expected = source[mask]
                actual = grouped_array[bounds]
                assert actual.dtype == expected.dtype
                assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("num_servers", [1, 2, 255, 256, 257, 65_536, 65_537])
def test_narrow_key_sort_keeps_the_int64_order(num_servers):
    # Up to 65,536 servers the indices are sorted as uint8/uint16 keys; the
    # stable order must be the int64 argsort's, up to the widest index.
    rng = np.random.default_rng(num_servers)
    assignment = rng.integers(0, num_servers, size=100_000)
    assignment[:2] = (0, num_servers - 1)
    positions = np.arange(assignment.size)
    (grouped,), ranges = group_by_server(assignment, num_servers, positions)
    assert grouped.tobytes() == np.argsort(assignment, kind="stable").tobytes()
    assert len(ranges) == num_servers


def test_empty_servers_come_back_as_none():
    assignment = np.asarray([2, 0, 2, 2, 0])
    (values,), ranges = group_by_server(assignment, 4, np.arange(5.0))
    assert ranges[1] is None and ranges[3] is None
    assert values[ranges[0]].tolist() == [1.0, 4.0]
    assert values[ranges[2]].tolist() == [0.0, 2.0, 3.0]


def test_ranges_tile_the_grouped_arrays_in_server_order():
    assignment = np.asarray([3, 1, 3, 0, 1, 3])
    (values,), ranges = group_by_server(assignment, 5, np.arange(6.0))
    filled = [bounds for bounds in ranges if bounds is not None]
    assert filled[0].start == 0
    assert filled[-1].stop == values.size
    for before, after in zip(filled, filled[1:]):
        assert before.stop == after.start
    assert ranges[2] is None and ranges[4] is None


def test_no_jobs_gives_no_ranges():
    assignment = np.empty(0, dtype=np.int64)
    (values,), ranges = group_by_server(assignment, 3, np.empty(0))
    assert values.size == 0
    assert ranges == [None, None, None]


def test_sources_are_left_untouched():
    assignment = np.asarray([1, 0, 1, 0])
    source = np.asarray([10.0, 20.0, 30.0, 40.0])
    (values,), _ = group_by_server(assignment, 2, source)
    values[:] = -1.0
    assert source.tolist() == [10.0, 20.0, 30.0, 40.0]


def test_dispatch_streams_are_the_masked_sub_traces():
    rng = np.random.default_rng(3)
    jobs = JobTrace(
        np.cumsum(rng.exponential(size=500)),
        rng.exponential(size=500),
        tenant_ids=rng.integers(0, 3, size=500),
    )
    dispatcher = RandomDispatcher(seed=1, weights=[1.0, 0.0, 2.0, 1.0])
    assignment = dispatcher.assign(jobs, 4)
    streams = dispatcher.dispatch(jobs, 4)
    assert streams[1] is None
    for server in (0, 2, 3):
        mask = assignment == server
        assert streams[server] == JobTrace(
            jobs.arrival_times[mask],
            jobs.service_demands[mask],
            tenant_ids=jobs.tenant_ids[mask],
        )
