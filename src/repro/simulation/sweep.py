"""Frequency/state sweeps: the power-performance trade-off curves.

Each curve in the paper's Figures 1–5 is produced by fixing a workload,
utilisation and low-power state, sweeping the DVFS frequency from the lowest
stable setting up to 1, and recording average power versus (normalised) mean
response time at each setting.  This module implements those sweeps on top of
the simulation engine and provides small helpers to locate the optimum
(minimum-power) point of a curve, optionally under a response-time budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.concurrency import Executor, fan_out
from repro.exceptions import ConfigurationError
from repro.power.dvfs import frequency_grid
from repro.power.platform import ServerPowerModel
from repro.power.sleep import SleepSequence
from repro.power.states import SystemState
from repro.simulation.engine import is_stable, simulate_trace, simulate_workload
from repro.simulation.kernel import BACKEND_VECTORIZED, TraceKernel, validate_backend
from repro.simulation.service_scaling import ServiceScaling
from repro.workloads.generator import generate_jobs, make_rng
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class TradeoffPoint:
    """One operating point on a power/performance trade-off curve."""

    frequency: float
    mean_response_time: float
    normalized_mean_response_time: float
    p95_response_time: float
    average_power: float
    sleep_state: str

    def meets_mean_budget(self, normalized_budget: float) -> bool:
        """Whether the point meets a normalised mean response-time budget."""
        return self.normalized_mean_response_time <= normalized_budget

    def meets_percentile_budget(self, deadline: float) -> bool:
        """Whether the point's 95th-percentile response time meets *deadline*."""
        return self.p95_response_time <= deadline


@dataclass(frozen=True)
class TradeoffCurve:
    """A full frequency sweep for one (workload, utilisation, sleep state)."""

    sleep_state: str
    utilization: float
    points: tuple[TradeoffPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError("a trade-off curve needs at least one point")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def frequencies(self) -> np.ndarray:
        """The swept frequencies, ascending."""
        return np.array([p.frequency for p in self.points])

    @property
    def powers(self) -> np.ndarray:
        """Average power at each swept frequency."""
        return np.array([p.average_power for p in self.points])

    @property
    def normalized_response_times(self) -> np.ndarray:
        """Normalised mean response time at each swept frequency."""
        return np.array([p.normalized_mean_response_time for p in self.points])

    def minimum_power_point(self) -> TradeoffPoint:
        """The unconstrained global optimum — the bottom of the "bowl"."""
        return min(self.points, key=lambda p: p.average_power)

    def best_under_mean_budget(self, normalized_budget: float) -> TradeoffPoint | None:
        """Cheapest point meeting a normalised mean response-time budget.

        Returns ``None`` when no swept frequency meets the budget.
        """
        feasible = [p for p in self.points if p.meets_mean_budget(normalized_budget)]
        if not feasible:
            return None
        return min(feasible, key=lambda p: p.average_power)

    def best_under_percentile_budget(self, deadline: float) -> TradeoffPoint | None:
        """Cheapest point whose 95th-percentile response time meets *deadline*."""
        feasible = [p for p in self.points if p.meets_percentile_budget(deadline)]
        if not feasible:
            return None
        return min(feasible, key=lambda p: p.average_power)

    def race_to_halt_point(self) -> TradeoffPoint:
        """The ``f = 1`` end of the curve (the race-to-halt operating point)."""
        return max(self.points, key=lambda p: p.frequency)


def _point_from_result(result, sleep_state: str) -> TradeoffPoint:
    return TradeoffPoint(
        frequency=result.frequency,
        mean_response_time=result.mean_response_time,
        normalized_mean_response_time=result.normalized_mean_response_time,
        p95_response_time=result.response_time_percentile(95.0),
        average_power=result.average_power,
        sleep_state=sleep_state,
    )


#: Accepted ways of specifying the sleep behaviour of a sweep: a fixed
#: sequence, a single state (rebuilt per frequency, so that the power of the
#: shallow C0(i)/C1 states tracks the DVFS setting), or an explicit factory.
SleepLike = SleepSequence | SystemState | Callable[[float], SleepSequence]


def resolve_sleep(
    sleep: SleepLike, power_model: ServerPowerModel
) -> Callable[[float], SleepSequence]:
    """Turn any accepted sleep specification into a per-frequency factory.

    The power drawn in the operating-idle (``C0(i)``) and halt (``C1``)
    states depends on the DVFS setting left in place when the server idles,
    so sweeps must rebuild those sleep sequences at every swept frequency.
    Passing a plain :class:`SystemState` (or a factory) does that; passing an
    explicit :class:`SleepSequence` keeps it fixed across the sweep, which is
    only appropriate for the frequency-independent deep states.
    """
    if isinstance(sleep, SleepSequence):
        return lambda frequency: sleep
    if isinstance(sleep, SystemState):
        return lambda frequency: power_model.immediate_sleep_sequence(
            sleep, frequency
        )
    if callable(sleep):
        return sleep
    raise ConfigurationError(
        f"unsupported sleep specification of type {type(sleep).__name__}"
    )


def sweep_frequencies(
    spec: WorkloadSpec,
    sleep: SleepLike,
    power_model: ServerPowerModel,
    utilization: float,
    frequencies: Sequence[float] | np.ndarray | None = None,
    num_jobs: int = 10_000,
    seed: int | None = 0,
    scaling: ServiceScaling | None = None,
    frequency_step: float = 0.01,
    reuse_jobs: bool = True,
    backend: str = BACKEND_VECTORIZED,
) -> TradeoffCurve:
    """Sweep the DVFS frequency for one sleep behaviour at one utilisation.

    ``sleep`` may be a fixed :class:`SleepSequence`, a single
    :class:`SystemState` (the usual case — the sequence is rebuilt at every
    frequency so shallow-state power tracks the DVFS setting), or a callable
    ``frequency -> SleepSequence``.

    By default the frequencies follow the paper's grid (``rho + 0.01`` up to
    1 in steps of 0.01) and the *same* generated job stream is re-evaluated
    at every frequency (``reuse_jobs=True``), which removes sampling noise
    between adjacent frequencies and matches how the policy manager replays
    one logged epoch under every candidate policy.  With the default
    vectorized ``backend`` the shared stream is evaluated through one
    :class:`~repro.simulation.kernel.TraceKernel`, so the per-trace set-up
    work is paid once for the whole sweep.

    Swept points whose effective load reaches the shared stability cutoff
    (:data:`~repro.simulation.engine.MAX_STABLE_UTILIZATION`) are skipped.
    """
    validate_backend(backend)
    if frequencies is None:
        frequencies = frequency_grid(utilization, step=frequency_step)
    frequencies = np.sort(np.asarray(frequencies, dtype=float))
    if frequencies.size == 0:
        raise ConfigurationError("frequency sweep needs at least one frequency")

    sleep_factory = resolve_sleep(sleep, power_model)
    scaling = scaling or ServiceScaling(beta=spec.cpu_boundedness)
    rng = make_rng(seed)
    shared_jobs: JobTrace | None = None
    kernel: TraceKernel | None = None
    if reuse_jobs:
        shared_jobs = generate_jobs(
            spec, num_jobs=num_jobs, utilization=utilization, rng=rng
        )
        if backend == BACKEND_VECTORIZED:
            kernel = TraceKernel(shared_jobs, power_model, scaling=scaling)

    points: list[TradeoffPoint] = []
    label: str | None = None
    for frequency in frequencies:
        frequency = float(frequency)
        if not is_stable(utilization, frequency, scaling):
            continue
        sequence = sleep_factory(frequency)
        label = sequence.name if label is None else label
        if kernel is not None:
            result = kernel.evaluate(frequency, sequence)
        elif shared_jobs is not None:
            result = simulate_trace(
                jobs=shared_jobs,
                frequency=frequency,
                sleep=sequence,
                power_model=power_model,
                scaling=scaling,
                backend=backend,
            )
        else:
            result = simulate_workload(
                spec,
                frequency=frequency,
                sleep=sequence,
                power_model=power_model,
                utilization=utilization,
                num_jobs=num_jobs,
                rng=rng,
                scaling=scaling,
                backend=backend,
            )
        points.append(_point_from_result(result, sequence.name))
    if not points:
        raise ConfigurationError(
            f"no stable frequency found for utilization {utilization}"
        )
    return TradeoffCurve(
        sleep_state=label or "sleep",
        utilization=utilization,
        points=tuple(points),
    )


def sweep_states(
    spec: WorkloadSpec,
    sleeps: Mapping[str, SleepLike] | Sequence[SleepLike],
    power_model: ServerPowerModel,
    utilization: float,
    max_workers: int | None = None,
    executor: Executor | str | None = None,
    **kwargs,
) -> dict[str, TradeoffCurve]:
    """Sweep frequencies for several sleep behaviours (one curve each).

    ``sleeps`` may be a mapping ``label -> sleep specification`` or a plain
    sequence of specifications (system states and sleep sequences are
    labelled by their own names).  Remaining keyword arguments are passed
    through to :func:`sweep_frequencies`.

    ``max_workers`` > 1 fans the per-state curves out over a process pool;
    ``executor`` selects explicitly (``"serial"``/``"process"`` or an
    :class:`~repro.concurrency.Executor`) — the process executor requires
    picklable sleep specifications (states and sequences are; ad-hoc
    callables are not).  Each curve draws its job stream from an independent
    generator seeded the same way as the serial path, so results are
    identical whichever executor runs them.
    """
    if isinstance(sleeps, Mapping):
        labelled = dict(sleeps)
    else:
        labelled = {}
        for sleep in sleeps:
            if isinstance(sleep, (SleepSequence, SystemState)):
                labelled[sleep.name] = sleep
            else:
                raise ConfigurationError(
                    "callable sleep factories must be passed in a mapping "
                    "with an explicit label"
                )
    if not labelled:
        raise ConfigurationError("sweep_states needs at least one sleep sequence")
    # A partial of the module-level sweep keeps the work function picklable
    # for the process executor (a closure would not be).
    sweep_one = functools.partial(
        sweep_frequencies,
        spec,
        power_model=power_model,
        utilization=utilization,
        **kwargs,
    )
    curves = fan_out(list(labelled.values()), sweep_one, max_workers, executor)
    return dict(zip(labelled.keys(), curves, strict=True))


def best_policy_across_states(
    curves: Mapping[str, TradeoffCurve],
    normalized_budget: float | None = None,
    percentile_deadline: float | None = None,
) -> tuple[str, TradeoffPoint]:
    """The (state, operating point) with minimum power across several curves.

    Exactly one of *normalized_budget* (normalised mean response time) and
    *percentile_deadline* (seconds, on the 95th percentile) may be given; with
    neither, the unconstrained global optimum is returned.
    """
    if normalized_budget is not None and percentile_deadline is not None:
        raise ConfigurationError(
            "specify at most one of normalized_budget and percentile_deadline"
        )
    best_label: str | None = None
    best_point: TradeoffPoint | None = None
    for label, curve in curves.items():
        if normalized_budget is not None:
            candidate = curve.best_under_mean_budget(normalized_budget)
        elif percentile_deadline is not None:
            candidate = curve.best_under_percentile_budget(percentile_deadline)
        else:
            candidate = curve.minimum_power_point()
        if candidate is None:
            continue
        if best_point is None or candidate.average_power < best_point.average_power:
            best_label, best_point = label, candidate
    if best_point is None or best_label is None:
        raise ConfigurationError(
            "no curve contains a point satisfying the requested constraint"
        )
    return best_label, best_point
