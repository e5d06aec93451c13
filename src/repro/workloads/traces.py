"""Utilisation traces: the Figure 7 substrate.

The paper evaluates SleepScale by replaying minute-granularity utilisation
traces collected from academic departmental servers (a *file server* and an
*email store*, Figure 7) on top of BigHouse workload statistics.  Those
traces are not publicly available, so this module provides:

* :class:`UtilizationTrace` — a minute-granularity utilisation time series
  with slicing, resampling and summary helpers, plus CSV round-tripping so
  real traces can be dropped in;
* synthetic generators :func:`synthetic_file_server_trace` and
  :func:`synthetic_email_store_trace` that reproduce the qualitative features
  the paper describes and relies on:

  - the **file server** trace stays at low utilisation (roughly 0.02–0.2)
    with small, noisy fluctuations;
  - the **email store** trace spans roughly 0.1–0.9 across the day with a
    clear diurnal pattern and abrupt surges towards the end of each day
    caused by maintenance and back-up jobs (the paper evaluates SleepScale
    from 2 AM to 8 PM to exclude that window).

The synthetic traces are deterministic given a seed, three days long by
default, and start at midnight like the originals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import TraceError
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR, minutes


@dataclass(frozen=True)
class TraceSummary:
    """Summary statistics of a utilisation trace."""

    mean: float
    minimum: float
    maximum: float
    std: float
    duration_hours: float


class UtilizationTrace:
    """A regularly sampled utilisation time series.

    ``values[i]`` is the average utilisation over
    ``[start_time + i * interval, start_time + (i+1) * interval)``.
    All utilisations must lie in ``[0, 1]``.
    """

    def __init__(
        self,
        values: Sequence[float] | np.ndarray,
        interval: float = minutes(1),
        start_time: float = 0.0,
        name: str = "trace",
    ):
        data = np.asarray(values, dtype=float)
        if data.ndim != 1 or data.size == 0:
            raise TraceError("a utilisation trace must be a non-empty 1-D series")
        if not np.all(np.isfinite(data)):
            raise TraceError("utilisation values must be finite")
        if np.any(data < 0.0) or np.any(data > 1.0):
            raise TraceError("utilisation values must lie in [0, 1]")
        if interval <= 0:
            raise TraceError(f"interval must be positive, got {interval}")
        if start_time < 0:
            raise TraceError(f"start_time must be non-negative, got {start_time}")
        self._values = data
        self._interval = float(interval)
        self._start_time = float(start_time)
        self._name = name

    # -- basic accessors -------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The utilisation samples (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def interval(self) -> float:
        """Sampling interval in seconds."""
        return self._interval

    @property
    def start_time(self) -> float:
        """Absolute start time of the first interval, seconds."""
        return self._start_time

    @property
    def name(self) -> str:
        """Human-readable trace name."""
        return self._name

    @property
    def duration(self) -> float:
        """Total covered time span, seconds."""
        return self._interval * len(self)

    @property
    def end_time(self) -> float:
        """Absolute end time of the last interval, seconds."""
        return self._start_time + self.duration

    @property
    def times(self) -> np.ndarray:
        """Absolute start times of every interval."""
        return self._start_time + self._interval * np.arange(len(self))

    def __len__(self) -> int:
        return int(self._values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UtilizationTrace):
            return NotImplemented
        return (
            np.array_equal(self._values, other._values)
            and self._interval == other._interval
            and self._start_time == other._start_time
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UtilizationTrace({self._name!r}, n={len(self)}, "
            f"interval={self._interval:.0f}s, mean={float(np.mean(self._values)):.3f})"
        )

    # -- queries ----------------------------------------------------------------

    def value_at(self, time: float) -> float:
        """Utilisation of the interval containing absolute *time*."""
        if not self._start_time <= time < self.end_time:
            raise TraceError(
                f"time {time} outside trace span "
                f"[{self._start_time}, {self.end_time})"
            )
        index = int((time - self._start_time) // self._interval)
        index = min(index, len(self) - 1)
        return float(self._values[index])

    def summary(self) -> TraceSummary:
        """Mean, min, max, standard deviation and duration of the trace."""
        return TraceSummary(
            mean=float(np.mean(self._values)),
            minimum=float(np.min(self._values)),
            maximum=float(np.max(self._values)),
            std=float(np.std(self._values)),
            duration_hours=self.duration / SECONDS_PER_HOUR,
        )

    # -- transformations ----------------------------------------------------------

    def slice_hours(self, start_hour: float, end_hour: float) -> "UtilizationTrace":
        """Restrict the trace to the daily window ``[start_hour, end_hour)``.

        Hours are measured from the trace's start (assumed to be midnight,
        as in Figure 7) modulo 24, so ``slice_hours(2, 20)`` keeps 2 AM–8 PM
        of every day — the evaluation window of Section 6.1.
        """
        if not 0.0 <= start_hour < end_hour <= 24.0:
            raise TraceError(
                f"invalid daily window [{start_hour}, {end_hour})"
            )
        hour_of_day = (
            (self.times - self._start_time) % SECONDS_PER_DAY
        ) / SECONDS_PER_HOUR
        mask = (hour_of_day >= start_hour) & (hour_of_day < end_hour)
        if not np.any(mask):
            raise TraceError("daily window selects no samples")
        return UtilizationTrace(
            self._values[mask],
            interval=self._interval,
            start_time=self._start_time,
            name=f"{self._name}[{start_hour:g}h-{end_hour:g}h]",
        )

    def slice_index(self, start: int, stop: int) -> "UtilizationTrace":
        """Samples ``start`` (inclusive) to ``stop`` (exclusive)."""
        if not 0 <= start < stop <= len(self):
            raise TraceError(f"invalid index window [{start}, {stop})")
        return UtilizationTrace(
            self._values[start:stop],
            interval=self._interval,
            start_time=self._start_time + start * self._interval,
            name=self._name,
        )

    def clipped(self, low: float, high: float) -> "UtilizationTrace":
        """Clamp every sample into ``[low, high]``."""
        if not 0.0 <= low <= high <= 1.0:
            raise TraceError(f"invalid clip range [{low}, {high}]")
        return UtilizationTrace(
            np.clip(self._values, low, high),
            interval=self._interval,
            start_time=self._start_time,
            name=self._name,
        )

    def scaled(self, factor: float) -> "UtilizationTrace":
        """Multiply every sample by *factor* (result clipped to [0, 1])."""
        if factor <= 0:
            raise TraceError(f"scale factor must be positive, got {factor}")
        return UtilizationTrace(
            np.clip(self._values * factor, 0.0, 1.0),
            interval=self._interval,
            start_time=self._start_time,
            name=self._name,
        )

    def resampled(self, interval: float) -> "UtilizationTrace":
        """Aggregate the trace to a coarser sampling *interval* by averaging."""
        if interval < self._interval:
            raise TraceError(
                "resampling only supports coarsening; requested interval "
                f"{interval} < current {self._interval}"
            )
        group = max(1, int(round(interval / self._interval)))
        usable = (len(self) // group) * group
        if usable == 0:
            raise TraceError("trace too short for the requested interval")
        grouped = self._values[:usable].reshape(-1, group).mean(axis=1)
        return UtilizationTrace(
            grouped,
            interval=self._interval * group,
            start_time=self._start_time,
            name=self._name,
        )

    # -- persistence ----------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write the trace to a two-column CSV (``time_s, utilization``)."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_s", "utilization"])
            for time, value in zip(self.times, self._values, strict=True):
                writer.writerow([f"{time:.6f}", f"{value:.6f}"])

    @classmethod
    def from_csv(
        cls, path: str | Path, name: str | None = None
    ) -> "UtilizationTrace":
        """Load a trace written by :meth:`to_csv` (or any compatible CSV).

        An unreadable file, a row without two numeric columns or a value
        outside ``[0, 1]`` raises :class:`TraceError` naming the path.
        """
        path = Path(path)
        times: list[float] = []
        values: list[float] = []
        try:
            with path.open(newline="") as handle:
                reader = csv.reader(handle)
                header = next(reader, None)
                if header is None:
                    raise TraceError(f"{path} is empty")
                for row in reader:
                    if not row:
                        continue
                    try:
                        times.append(float(row[0]))
                        values.append(float(row[1]))
                    except (IndexError, ValueError) as error:
                        raise TraceError(
                            f"{path} line {reader.line_num}: expected two "
                            f"numeric columns, got {row}"
                        ) from error
        except (OSError, UnicodeDecodeError, csv.Error) as error:
            # An OSError's strerror leaves out the path the message names.
            reason = getattr(error, "strerror", None) or error
            raise TraceError(f"cannot read trace {path}: {reason}") from error
        if len(values) < 2:
            raise TraceError(f"{path} contains fewer than two samples")
        intervals = np.diff(times)
        if np.any(intervals <= 0) or not np.allclose(intervals, intervals[0]):
            raise TraceError(f"{path} is not regularly sampled")
        try:
            return cls(
                values,
                interval=float(intervals[0]),
                start_time=float(times[0]),
                name=name or path.stem,
            )
        except TraceError as error:
            raise TraceError(f"{path}: {error}") from error

    @classmethod
    def from_values(
        cls,
        values: Iterable[float],
        interval: float = minutes(1),
        name: str = "trace",
    ) -> "UtilizationTrace":
        """Convenience constructor from any iterable of utilisations."""
        return cls(list(values), interval=interval, start_time=0.0, name=name)


# ---------------------------------------------------------------------------
# Synthetic Figure 7 traces
# ---------------------------------------------------------------------------


def _diurnal_profile(minutes_of_day: np.ndarray, peak_hour: float, width_hours: float) -> np.ndarray:
    """Smooth daily bump peaking at *peak_hour* with the given width."""
    hours = minutes_of_day / 60.0
    # Wrap-around distance to the peak hour.
    distance = np.minimum(np.abs(hours - peak_hour), 24.0 - np.abs(hours - peak_hour))
    return np.exp(-0.5 * (distance / width_hours) ** 2)


def synthetic_email_store_trace(
    days: int = 3,
    seed: int = 7,
    interval: float = minutes(1),
) -> UtilizationTrace:
    """Synthetic stand-in for the paper's *email store* utilisation trace.

    Qualitative features reproduced from Figure 7 and its discussion:

    * minute granularity, starting at midnight, *days* days long;
    * utilisation spanning roughly 0.1 at night to about 0.9 at the daily
      peak, with a smooth diurnal pattern peaking in the afternoon;
    * abrupt surges towards the end of each day (from about 8 PM to 2 AM)
      caused by back-up and maintenance operations;
    * small minute-to-minute noise so predictors have something to track.
    """
    if days < 1:
        raise TraceError(f"need at least one day, got {days}")
    rng = np.random.default_rng(seed)
    samples_per_day = int(round(SECONDS_PER_DAY / interval))
    minutes_of_day = np.arange(samples_per_day) * interval / 60.0

    base = 0.12 + 0.55 * _diurnal_profile(minutes_of_day, peak_hour=14.0, width_hours=4.5)
    base += 0.18 * _diurnal_profile(minutes_of_day, peak_hour=10.0, width_hours=2.5)

    values = []
    for _ in range(days):
        day = base.copy()
        # Nightly back-up/maintenance surges between 20:00 and 26:00 (2 AM).
        surge_mask = (minutes_of_day / 60.0 >= 20.0) | (minutes_of_day / 60.0 < 2.0)
        surge = np.zeros_like(day)
        surge_starts = rng.integers(0, samples_per_day, size=6)
        for start in surge_starts:
            hour = minutes_of_day[start] / 60.0
            if not (hour >= 20.0 or hour < 2.0):
                continue
            length = int(rng.integers(10, 40))
            end = min(start + length, samples_per_day)
            surge[start:end] = rng.uniform(0.5, 0.8)
        day = np.where(surge_mask, np.maximum(day, 0.2 + surge), day)
        # Minute-to-minute noise and a few random short spikes during the day.
        day += rng.normal(0.0, 0.025, size=samples_per_day)
        spike_positions = rng.integers(0, samples_per_day, size=8)
        day[spike_positions] += rng.uniform(0.05, 0.25, size=8)
        values.append(np.clip(day, 0.05, 0.92))
    return UtilizationTrace(
        np.concatenate(values),
        interval=interval,
        start_time=0.0,
        name="email-store",
    )


def synthetic_file_server_trace(
    days: int = 3,
    seed: int = 11,
    interval: float = minutes(1),
) -> UtilizationTrace:
    """Synthetic stand-in for the paper's *file server* utilisation trace.

    Figure 7's file-server trace stays at low utilisation (below roughly 0.2)
    with small fluctuations and a mild working-hours bump; this generator
    reproduces that envelope.
    """
    if days < 1:
        raise TraceError(f"need at least one day, got {days}")
    rng = np.random.default_rng(seed)
    samples_per_day = int(round(SECONDS_PER_DAY / interval))
    minutes_of_day = np.arange(samples_per_day) * interval / 60.0

    base = 0.03 + 0.09 * _diurnal_profile(minutes_of_day, peak_hour=15.0, width_hours=5.0)
    values = []
    for _ in range(days):
        day = base + rng.normal(0.0, 0.008, size=samples_per_day)
        spike_positions = rng.integers(0, samples_per_day, size=5)
        day[spike_positions] += rng.uniform(0.02, 0.08, size=5)
        values.append(np.clip(day, 0.01, 0.2))
    return UtilizationTrace(
        np.concatenate(values),
        interval=interval,
        start_time=0.0,
        name="file-server",
    )


def constant_trace(
    utilization: float,
    num_samples: int = 60,
    interval: float = minutes(1),
    name: str = "constant",
) -> UtilizationTrace:
    """A flat trace at a fixed utilisation — handy for tests and ablations."""
    if not 0.0 <= utilization <= 1.0:
        raise TraceError(f"utilization must lie in [0, 1], got {utilization}")
    if num_samples < 1:
        raise TraceError(f"num_samples must be >= 1, got {num_samples}")
    return UtilizationTrace(
        np.full(num_samples, utilization),
        interval=interval,
        start_time=0.0,
        name=name,
    )


def step_trace(
    low: float,
    high: float,
    num_samples: int = 120,
    interval: float = minutes(1),
    name: str = "step",
) -> UtilizationTrace:
    """A trace that jumps from *low* to *high* halfway — predictor stress test."""
    if not (0.0 <= low <= 1.0 and 0.0 <= high <= 1.0):
        raise TraceError("step levels must lie in [0, 1]")
    if num_samples < 2:
        raise TraceError(f"num_samples must be >= 2, got {num_samples}")
    half = num_samples // 2
    values = np.concatenate(
        [np.full(half, low), np.full(num_samples - half, high)]
    )
    return UtilizationTrace(values, interval=interval, start_time=0.0, name=name)
