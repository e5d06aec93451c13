"""Host-speed calibration: a fixed reference computation timed between passes.

A shared host's speed drifts by half or more over minutes, and every pass of
a run slows with it.  :func:`calibrate` times a computation that never
changes: many NumPy calls on small arrays, the call pattern of the
simulator's per-epoch inner loops, whose drift on the reference host tracked
the serial workloads' drift closest of the candidates tried (array sorts,
dictionary loops, builtin calls, random gathers from a large array).  The
median of its samples over a run, against :data:`REFERENCE_S`, says how fast
the host ran during that run, and ``run.py`` scales its timings to the
reference speed with :func:`host_scale`.  The computation must stay exactly
as it is: any edit changes the scale of every timing.
"""

from __future__ import annotations

import statistics
import time

import numpy

#: Median of :func:`calibrate` on the reference host (2-vCPU virtual machine,
#: Python 3.11, NumPy 2) in a quiet period.  Scaled timings read as host
#: seconds at that speed.
REFERENCE_S = 0.0075
#: How far the workloads' timings follow the calibration's, in log terms.
#: When contention slows the calibration by a factor k, the workloads'
#: passes slowed by k to the power 0.5-0.8 on the reference host (ten-seed
#: sets of every workload); 0.6 gave the smallest worst-case spread.
SENSITIVITY = 0.6
#: Calibrations before each pass (and after the last).
SAMPLES_PER_GAP = 10
_CALLS = 1500


def host_scale(samples: list[float]) -> float:
    """Factor that takes a run's timings to the reference host speed."""
    return (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY


def calibrate() -> float:
    """Seconds :data:`_CALLS` rounds of small-array NumPy calls take now."""
    values = numpy.linspace(0.0, 1.0, 64)
    total = 0.0
    start = time.perf_counter()
    for _ in range(_CALLS):
        scaled = numpy.maximum(values * 1.5, 0.2)
        total += float(numpy.sum(scaled)) + float(scaled[numpy.argmin(scaled)])
    return time.perf_counter() - start
