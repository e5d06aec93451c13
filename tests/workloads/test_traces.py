"""Tests for utilisation traces (Figure 7 substitutes and CSV round-trips)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.units import minutes
from repro.workloads.traces import (
    UtilizationTrace,
    constant_trace,
    step_trace,
    synthetic_email_store_trace,
    synthetic_file_server_trace,
)


class TestUtilizationTraceBasics:
    def test_construction(self):
        trace = UtilizationTrace([0.1, 0.2, 0.3], interval=60.0)
        assert len(trace) == 3
        assert trace.duration == 180.0
        assert trace.end_time == 180.0

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            UtilizationTrace([])

    def test_rejects_out_of_range_values(self):
        with pytest.raises(TraceError):
            UtilizationTrace([0.5, 1.5])
        with pytest.raises(TraceError):
            UtilizationTrace([-0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(TraceError):
            UtilizationTrace([0.1, np.nan])

    def test_rejects_bad_interval(self):
        with pytest.raises(TraceError):
            UtilizationTrace([0.1], interval=0.0)

    def test_value_at(self):
        trace = UtilizationTrace([0.1, 0.2, 0.3], interval=60.0)
        assert trace.value_at(0.0) == 0.1
        assert trace.value_at(65.0) == 0.2
        assert trace.value_at(179.9) == 0.3

    def test_value_at_outside_span(self):
        trace = UtilizationTrace([0.1], interval=60.0)
        with pytest.raises(TraceError):
            trace.value_at(61.0)

    def test_times(self):
        trace = UtilizationTrace([0.1, 0.2], interval=30.0, start_time=10.0)
        assert list(trace.times) == [10.0, 40.0]

    def test_summary(self):
        summary = UtilizationTrace([0.1, 0.3], interval=3600.0).summary()
        assert summary.mean == pytest.approx(0.2)
        assert summary.minimum == 0.1
        assert summary.maximum == 0.3
        assert summary.duration_hours == pytest.approx(2.0)

    def test_equality(self):
        assert UtilizationTrace([0.1, 0.2]) == UtilizationTrace([0.1, 0.2])
        assert UtilizationTrace([0.1, 0.2]) != UtilizationTrace([0.1, 0.3])

    def test_values_read_only(self):
        trace = UtilizationTrace([0.1, 0.2])
        with pytest.raises(ValueError):
            trace.values[0] = 0.9


class TestTraceTransformations:
    def test_slice_hours(self):
        trace = constant_trace(0.2, num_samples=24 * 60)
        window = trace.slice_hours(2.0, 20.0)
        assert len(window) == 18 * 60

    def test_slice_hours_rejects_bad_window(self):
        trace = constant_trace(0.2, num_samples=60)
        with pytest.raises(TraceError):
            trace.slice_hours(20.0, 2.0)

    def test_slice_index(self):
        trace = UtilizationTrace([0.1, 0.2, 0.3, 0.4])
        window = trace.slice_index(1, 3)
        assert list(window.values) == [0.2, 0.3]
        assert window.start_time == pytest.approx(60.0)

    def test_slice_index_rejects_bad_window(self):
        trace = UtilizationTrace([0.1, 0.2])
        with pytest.raises(TraceError):
            trace.slice_index(1, 1)

    def test_clipped(self):
        trace = UtilizationTrace([0.1, 0.9]).clipped(0.2, 0.8)
        assert list(trace.values) == [0.2, 0.8]

    def test_scaled_clips_to_one(self):
        trace = UtilizationTrace([0.5, 0.9]).scaled(2.0)
        assert list(trace.values) == [1.0, 1.0]

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(TraceError):
            UtilizationTrace([0.5]).scaled(0.0)

    def test_resampled_averages_groups(self):
        trace = UtilizationTrace([0.1, 0.3, 0.5, 0.7], interval=60.0)
        coarse = trace.resampled(120.0)
        assert list(coarse.values) == pytest.approx([0.2, 0.6])
        assert coarse.interval == 120.0

    def test_resampled_rejects_finer_interval(self):
        trace = UtilizationTrace([0.1, 0.3], interval=60.0)
        with pytest.raises(TraceError):
            trace.resampled(30.0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        trace = UtilizationTrace([0.1, 0.25, 0.4], interval=minutes(1), name="demo")
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = UtilizationTrace.from_csv(path)
        assert loaded == trace

    def test_from_csv_rejects_irregular_sampling(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,utilization\n0,0.1\n60,0.2\n200,0.3\n")
        with pytest.raises(TraceError):
            UtilizationTrace.from_csv(path)

    def test_from_csv_rejects_too_few_samples(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("time_s,utilization\n0,0.1\n")
        with pytest.raises(TraceError):
            UtilizationTrace.from_csv(path)

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (None, "cannot read trace"),
            ("time_s,utilization\n0,0.1\n60,abc\n", "line 3"),
            ("time_s,utilization\n0,0.1\n60\n", "line 3"),
            ("time_s,utilization\n0,0.1\n60,1.5\n", "must lie in"),
        ],
        ids=["missing-file", "non-numeric-cell", "short-row", "out-of-range"],
    )
    def test_from_csv_names_the_path_of_bad_input(self, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        if content is not None:
            path.write_text(content)
        with pytest.raises(TraceError, match=message) as error:
            UtilizationTrace.from_csv(path)
        assert str(path) in str(error.value)


class TestSyntheticTraces:
    def test_email_store_range_matches_paper(self):
        trace = synthetic_email_store_trace(days=1, seed=1)
        summary = trace.summary()
        assert summary.minimum >= 0.05
        assert summary.maximum <= 0.95
        assert summary.maximum > 0.7  # reaches high load at the daily peak
        assert summary.minimum < 0.2  # quiet at night

    def test_file_server_stays_at_low_utilization(self):
        trace = synthetic_file_server_trace(days=1, seed=1)
        assert trace.summary().maximum <= 0.2

    def test_minute_granularity_and_duration(self):
        trace = synthetic_email_store_trace(days=2, seed=0)
        assert trace.interval == pytest.approx(60.0)
        assert len(trace) == 2 * 24 * 60

    def test_deterministic_given_seed(self):
        assert synthetic_email_store_trace(days=1, seed=3) == synthetic_email_store_trace(
            days=1, seed=3
        )
        assert synthetic_email_store_trace(days=1, seed=3) != synthetic_email_store_trace(
            days=1, seed=4
        )

    def test_email_store_has_diurnal_pattern(self):
        trace = synthetic_email_store_trace(days=1, seed=2)
        afternoon = trace.slice_hours(13.0, 16.0).summary().mean
        early_morning = trace.slice_hours(3.0, 6.0).summary().mean
        assert afternoon > early_morning + 0.2

    def test_rejects_zero_days(self):
        with pytest.raises(TraceError):
            synthetic_email_store_trace(days=0)
        with pytest.raises(TraceError):
            synthetic_file_server_trace(days=0)

    def test_step_and_constant_helpers(self):
        step = step_trace(0.1, 0.7, num_samples=10)
        assert step.values[0] == 0.1
        assert step.values[-1] == 0.7
        flat = constant_trace(0.42, num_samples=5)
        assert np.all(flat.values == 0.42)

    def test_helper_validation(self):
        with pytest.raises(TraceError):
            constant_trace(1.5)
        with pytest.raises(TraceError):
            step_trace(0.2, 1.2)
        with pytest.raises(TraceError):
            constant_trace(0.5, num_samples=0)
