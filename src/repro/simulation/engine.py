"""The queueing simulator — the paper's Algorithm 1, generalised.

A single FCFS server processes a stream of jobs.  The server runs at a fixed
DVFS scaling factor ``f`` while it has work; whenever its queue empties it
walks an ordered sequence of low-power states (entering state ``i`` after the
queue has been empty ``tau_i`` seconds).  A job arriving to a sleeping server
triggers a wake-up of latency ``w_i`` during which no work is done; wake-up
time is charged at active power (the paper's conservative assumption).

The simulator reports per-job response times, an energy breakdown, state
residency and the derived metrics (:class:`~repro.simulation.metrics.SimulationResult`).

Two entry points are provided:

* :func:`simulate_trace` — run one policy against an explicit
  :class:`~repro.workloads.jobs.JobTrace` (what the SleepScale policy manager
  does with logged epochs);
* :func:`simulate_workload` — generate a stationary stream from a
  :class:`~repro.workloads.spec.WorkloadSpec` at a target utilisation and run
  one policy against it (Algorithm 1 as written, used by all Section 4
  figures).

Both run the one simulator, the NumPy busy-period kernel in
:mod:`repro.simulation.kernel`.  The per-job loop it replaced lives on in
the tests (``tests/simulation/reference_loop.py``) as the oracle the
equivalence suite pins the kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, StabilityError
from repro.power.platform import ServerPowerModel
from repro.power.sleep import SleepSequence
from repro.simulation.kernel import TraceKernel
from repro.simulation.metrics import SimulationResult
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.workloads.generator import generate_jobs
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import WorkloadSpec

#: Effective-load cutoff shared by every stability decision in the package.
#: Operating points at or above this load are treated as unstable: the queue
#: would be so close to saturation that finite-trace simulation results stop
#: meaning anything (the paper restricts its sweeps to frequencies strictly
#: above ``rho`` for the same reason).  ``sweep_frequencies`` skips such
#: points and :func:`check_stability` rejects them — both through this one
#: constant, so they can never disagree again.
MAX_STABLE_UTILIZATION = 0.999


@dataclass(frozen=True)
class ServerConfiguration:
    """Static description of the simulated server.

    Bundles the power model with the service-time scaling rule so experiment
    code can pass a single object around.  ``scaling`` may be omitted (or
    passed as ``None``) and defaults to CPU-bound.
    """

    power_model: ServerPowerModel
    scaling: ServiceScaling | None = None

    def __post_init__(self) -> None:
        if self.scaling is None:
            object.__setattr__(self, "scaling", cpu_bound())


def is_stable(
    utilization: float, frequency: float, scaling: ServiceScaling
) -> bool:
    """Whether the operating point keeps the queue (meaningfully) stable.

    The effective utilisation at scaling factor ``f`` is ``rho / f**beta``;
    the point is accepted only below :data:`MAX_STABLE_UTILIZATION`.
    """
    return utilization * scaling.time_factor(frequency) < MAX_STABLE_UTILIZATION


def check_stability(
    utilization: float, frequency: float, scaling: ServiceScaling
) -> None:
    """Raise :class:`StabilityError` if the operating point is unstable.

    Uses the same :data:`MAX_STABLE_UTILIZATION` cutoff as the sweep helpers.
    """
    if not is_stable(utilization, frequency, scaling):
        effective = utilization * scaling.time_factor(frequency)
        raise StabilityError(
            f"utilization {utilization:.3f} at frequency {frequency:.3f} gives "
            f"effective load {effective:.3f} >= {MAX_STABLE_UTILIZATION}; "
            "the queue is unstable"
        )


def simulate_trace(
    jobs: JobTrace,
    frequency: float,
    sleep: SleepSequence,
    power_model: ServerPowerModel,
    scaling: ServiceScaling | None = None,
    start_time: float | None = None,
    busy_until: float | None = None,
) -> SimulationResult:
    """Simulate one policy (``frequency`` + ``sleep``) against a job trace.

    Parameters
    ----------
    jobs:
        The arrival/service-demand stream.  Service demands are *nominal*
        (full-frequency) and are stretched by the service-scaling rule.  A
        zero-job trace (see :meth:`~repro.workloads.jobs.JobTrace.empty`)
        yields a well-defined zero-job result instead of an error.
    frequency:
        DVFS scaling factor held for the whole trace.
    sleep:
        The low-power state sequence entered whenever the queue empties.
    power_model:
        Server power model used for active, idle and sleep power.
    scaling:
        Service-time/frequency dependence; defaults to CPU-bound.
    start_time:
        The instant the observation window opens (the server is assumed to
        have just gone idle at this time).  Defaults to the trace's first
        arrival, which excludes any artificial initial idle period.
    busy_until:
        If given, the server is still working off earlier backlog until this
        absolute time; jobs arriving before it queue behind that backlog.
        Used by the runtime controller so delays can propagate from one
        epoch into the next, as the paper describes.

    This is one :meth:`~repro.simulation.kernel.TraceKernel.evaluate`; build
    the kernel directly to evaluate many policies against one trace.
    """
    return TraceKernel(
        jobs,
        power_model,
        scaling=scaling,
        start_time=start_time,
        busy_until=busy_until,
    ).evaluate(frequency, sleep)


def simulate_workload(
    spec: WorkloadSpec,
    frequency: float,
    sleep: SleepSequence,
    power_model: ServerPowerModel,
    utilization: float | None = None,
    num_jobs: int = 10_000,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    scaling: ServiceScaling | None = None,
    enforce_stability: bool = True,
) -> SimulationResult:
    """Algorithm 1: generate a stationary job stream and simulate one policy.

    The stream has *num_jobs* jobs sampled from *spec* (re-targeted to
    *utilization* if given), and the server runs at *frequency* with the
    given *sleep* sequence.  ``enforce_stability`` raises
    :class:`~repro.exceptions.StabilityError` for operating points where the
    queue would grow without bound, matching the paper's restriction to
    frequencies above ``rho``.
    """
    scaling = scaling or ServiceScaling(beta=spec.cpu_boundedness)
    rho = utilization if utilization is not None else spec.utilization
    if enforce_stability:
        check_stability(rho, frequency, scaling)
    jobs = generate_jobs(
        spec, num_jobs=num_jobs, utilization=utilization, rng=rng, seed=seed
    )
    return simulate_trace(
        jobs=jobs,
        frequency=frequency,
        sleep=sleep,
        power_model=power_model,
        scaling=scaling,
    )


def warm_up_truncated(result: SimulationResult, fraction: float = 0.05) -> np.ndarray:
    """Response times with the initial warm-up fraction of jobs removed.

    The paper's evaluation simply averages all jobs; this helper supports
    sensitivity checks on transient bias.
    """
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError(f"fraction must lie in [0, 1), got {fraction}")
    skip = int(math.floor(result.num_jobs * fraction))
    return result.response_times[skip:]
