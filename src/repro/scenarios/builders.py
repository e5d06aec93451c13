"""The built-in scenario library.

Fourteen scenarios ship with the reproduction, each stressing a different
axis of the joint speed-scaling + sleep-state problem:

========================  ====================================================
``diurnal``               smooth day/night utilisation cycle (the Figure 7
                          regime) on a small homogeneous farm
``flash-crowd``           long quiet baseline interrupted by a sudden burst —
                          the predictor/over-provisioning stress test
``heavy-tail``            Pareto-distributed service times at constant load —
                          the tail-sensitive regime of the Cv discussion
``correlated-arrivals``   two-state Markov-modulated load (sticky bursty/quiet
                          phases), producing autocorrelated arrivals
``multiclass``            DNS-like and Google-like job classes merged into one
                          stream served by a shared farm
``trace-replay``          replay of a stored utilisation trace (the synthetic
                          Figure 7 traces, or any CSV in the same format)
``heterogeneous-farm``    mixed Xeon + Atom fleet behind a power-aware
                          dispatcher — farm-level energy proportionality
``farm-scale``            million-job trace over 16 mixed Xeon/Atom servers,
                          dispatched power-aware in one pass
``mega-farm``             64 mixed Xeon/Atom servers with short epochs — the
                          multi-core regime the process executor targets
                          (``run-scenario mega-farm --executor process``)
``autoscale-diurnal``     farm-level right-sizing over a day/night cycle: a
                          ``FarmController`` parks shallow-sleep servers
                          through the trough and wakes them (paying setup
                          costs) as the day ramps up
``autoscale-surge``       right-sizing under a load step: quiet baseline,
                          sudden sustained surge, quiet again — scale-up
                          through the surge, park back down after
``noisy-neighbor``        two tenants on a shared farm: a low-priority flash
                          crowd against a latency-SLA victim — the isolation
                          showcase for the tenant-aware dispatchers
``tenant-surge``          weighted-fair capacity split while one tenant's
                          load surges through the middle third of the run
``priority-inversion``    square-wave batch tenant against a high-priority
                          interactive tenant — repeated predictor-lag
                          overloads that priority dispatch confines
========================  ====================================================

Each parameter is stated once, in its ``ScenarioParameter`` declaration,
with the range rule its values must meet; the rules across parameters sit in
the ``checks`` of the ``@scenario`` declaration, so a builder only ever sees
values that passed them.
:meth:`~repro.scenarios.base.Scenario.build` calls a builder with one
read-only :class:`~repro.scenarios.base.ScenarioArgs` namespace (the
resolved parameters plus ``seed`` and ``search``); the builder
returns spec, jobs, farm and only the parameters it normalised — whole
minutes and server counts, a crowd window clipped to the run, a trace
length clipped to the trace — and ``Scenario.build`` assembles the rest.
Every builder is deterministic given ``seed`` and sizes itself from
``duration_minutes`` so tests can shrink it to seconds.

Utilisation convention: trace utilisations are offered load relative to one
full-frequency server, so a farm of ``n`` servers behind a balanced
dispatcher sees roughly ``utilization / n`` per server.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.cluster.controller import (
    CONTROLLER_POLICIES,
    FarmController,
    SetupModel,
)
from repro.cluster.dispatch import (
    JobDispatcher,
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
    RoundRobinDispatcher,
    merge_streams,
)
from repro.cluster.farm import ServerFarm, ServerSpec
from repro.cluster.tenancy import (
    TENANT_DISPATCH_KINDS,
    TENANT_DISPATCH_PRIORITY,
    TENANT_DISPATCH_WEIGHTED_FAIR,
    FarmQos,
    TenantSpec,
    make_tenant_dispatcher,
)
from repro.core.qos import (
    QosConstraint,
    mean_qos_from_baseline,
    percentile_qos_from_baseline,
)
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import (
    PolicySearchStrategy,
    RaceToHaltStrategy,
    sleepscale_strategy,
)
from repro.exceptions import ConfigurationError, TraceError
from repro.power.platform import ServerPowerModel, atom_power_model, xeon_power_model
from repro.power.states import C1_S0I, SystemState
from repro.prediction.lms_cusum import LmsCusumPredictor
from repro.scenarios.base import (
    BuilderResult,
    ParameterCheck,
    ScenarioArgs,
    ScenarioCheck,
    ScenarioParameter,
    scenario,
)
from repro.units import minutes
from repro.workloads.distributions import Exponential, Pareto, from_mean_cv
from repro.workloads.generator import generate_trace_driven_jobs
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import (
    WorkloadSpec,
    dns_workload,
    google_workload,
    workload_by_name,
)
from repro.workloads.traces import (
    UtilizationTrace,
    synthetic_email_store_trace,
    synthetic_file_server_trace,
)

#: Peak design utilisation shared by all scenario servers (the paper's 0.8).
_RHO_B = 0.8
#: Per-epoch policy-search sample size; small enough that a scenario runs in
#: seconds, large enough that selections are stable.
_CHARACTERIZATION_JOBS = 600
#: Policy epoch of the autoscale servers and of their farm controller.
_AUTOSCALE_EPOCH_MINUTES = 1.0


@dataclass(frozen=True)
class SleepScaleStrategyFactory:
    """Picklable zero-argument factory for a fresh full-SleepScale strategy.

    Scenario servers used to close over their parameters in a ``lambda``;
    a frozen dataclass carrying the same parameters builds the identical
    strategy while surviving pickling, so every built-in scenario can run
    on the process executor (``ServerShardTask`` ships the whole
    :class:`~repro.cluster.farm.ServerSpec`, factories included, to the
    worker processes).
    """

    power_model: ServerPowerModel
    qos: QosConstraint
    characterization_jobs: int
    seed: int
    search: str

    def __call__(self) -> PolicySearchStrategy:
        return sleepscale_strategy(
            self.power_model,
            self.qos,
            characterization_jobs=self.characterization_jobs,
            seed=self.seed,
            search=self.search,
        )


@dataclass(frozen=True)
class LmsCusumPredictorFactory:
    """Picklable zero-argument factory for a fresh LMS+CUSUM predictor."""

    history: int = 10

    def __call__(self) -> LmsCusumPredictor:
        return LmsCusumPredictor(history=self.history)


def _sleepscale_server(
    args: ScenarioArgs,
    name: str,
    power_model: ServerPowerModel,
    *,
    seed_offset: int = 0,
    epoch_minutes: float = 5.0,
    max_frequency: float = 1.0,
    qos: QosConstraint | None = None,
) -> ServerSpec:
    """A server running full SleepScale with an LMS+CUSUM predictor.

    Its strategy is seeded ``args.seed + seed_offset``.  ``qos`` overrides
    the default baseline mean-response-time budget; the tenant scenarios
    pass the composite per-tenant constraint here so each server's policy
    search selects against the binding tenant budget.
    """
    if qos is None:
        qos = mean_qos_from_baseline(_RHO_B)
    config = RuntimeConfig(
        epoch_minutes=epoch_minutes, rho_b=_RHO_B, over_provisioning=0.35
    )
    return ServerSpec(
        name=name,
        power_model=power_model,
        strategy_factory=SleepScaleStrategyFactory(
            power_model=power_model,
            qos=qos,
            characterization_jobs=_CHARACTERIZATION_JOBS,
            seed=args.seed + seed_offset,
            search=args.search,
        ),
        predictor_factory=LmsCusumPredictorFactory(history=10),
        config=config,
        max_frequency=max_frequency,
    )


def _xeon_farm(
    args: ScenarioArgs,
    num_servers: int,
    spec: WorkloadSpec,
    *,
    dispatcher: JobDispatcher | None = None,
    qos: FarmQos | None = None,
    server_qos: QosConstraint | None = None,
) -> ServerFarm:
    """A homogeneous Xeon farm of SleepScale servers."""
    power_model = xeon_power_model()
    servers = tuple(
        _sleepscale_server(
            args, f"xeon-{index}", power_model, seed_offset=index, qos=server_qos
        )
        for index in range(num_servers)
    )
    return ServerFarm(
        servers=servers,
        spec=spec,
        dispatcher=dispatcher or RoundRobinDispatcher(),
        qos=qos,
    )


def _mixed_fleet(
    args: ScenarioArgs,
    *,
    epoch_minutes: float = 5.0,
    atom_frequency_ceiling: float = 1.0,
) -> tuple[tuple[ServerSpec, ...], dict[str, int]]:
    """``xeon_servers`` Xeon then ``atom_servers`` Atom SleepScale servers.

    Xeon *i* is seeded ``seed + i`` and Atom *i* ``seed + xeon_servers + i``.
    Returns the servers and the two counts as whole numbers.
    """
    counts = {label: int(getattr(args, label)) for label in ("xeon_servers", "atom_servers")}
    xeons, atoms = counts["xeon_servers"], counts["atom_servers"]
    xeon = xeon_power_model()
    atom = atom_power_model()
    servers = tuple(
        _sleepscale_server(
            args, f"xeon-{index}", xeon, seed_offset=index, epoch_minutes=epoch_minutes
        )
        for index in range(xeons)
    ) + tuple(
        _sleepscale_server(
            args,
            f"atom-{index}",
            atom,
            seed_offset=xeons + index,
            epoch_minutes=epoch_minutes,
            # The front end provisions against the Atom parts' lower DVFS
            # ceiling, so backlog estimates are speed-aware.
            max_frequency=atom_frequency_ceiling,
        )
        for index in range(atoms)
    )
    return servers, counts


# ---------------------------------------------------------------------------
# Range rules (``ScenarioParameter.check`` / ``Scenario.checks``)
# ---------------------------------------------------------------------------


def _at_least(low: float, *, whole: bool = False) -> ParameterCheck:
    """A value of at least *low*; with *whole*, a whole number too."""

    def check(name: str, value: Any) -> str | None:
        if whole and not float(value).is_integer():
            return f"{name} must be a whole number, got {value}"
        if not value >= low:
            return f"{name} must be at least {low}, got {value}"
        return None

    return check


def _rounds_to_at_least(low: int) -> ParameterCheck:
    """A value that rounds to a whole number of at least *low*."""

    def check(name: str, value: Any) -> str | None:
        if not (math.isfinite(value) and round(value) >= low):
            return f"{name} must be at least {low}, got {value}"
        return None

    return check


def _lies_in(low: float, high: float, brackets: str = "(]") -> ParameterCheck:
    """A value between *low* and *high*; *brackets* closes or opens each end."""

    def check(name: str, value: Any) -> str | None:
        above = value >= low if brackets[0] == "[" else value > low
        below = value <= high if brackets[1] == "]" else value < high
        if not (above and below):
            return (
                f"{name} must lie in {brackets[0]}{low}, {high}{brackets[1]}, "
                f"got {value}"
            )
        return None

    return check


def _positive(name: str, value: Any) -> str | None:
    if not value > 0:
        return f"{name} must be positive, got {value}"
    return None


def _one_of(choices: tuple[str, ...]) -> ParameterCheck:
    def check(name: str, value: Any) -> str | None:
        if value not in choices:
            return f"{name} must be one of {', '.join(choices)}, got {value!r}"
        return None

    return check


def _finite_variance(name: str, value: Any) -> str | None:
    if not value > 2.0:
        return f"{name} must exceed 2 (finite variance), got {value}"
    return None


def _workload(name: str, value: Any) -> str | None:
    """A Table 5 workload name."""
    try:
        workload_by_name(value)
    except ConfigurationError as error:
        return str(error)
    return None


#: The stored traces ``trace-replay`` knows by name; any other trace is a
#: CSV path.
_NAMED_TRACES = {
    "file-server": synthetic_file_server_trace,
    "email-store": synthetic_email_store_trace,
}


def _trace_name(name: str, value: Any) -> str | None:
    """A stored trace's name, or a trace CSV that loads."""
    if value in _NAMED_TRACES:
        return None
    if Path(value).suffix != ".csv":
        return (
            f"unknown trace {value!r}; expected 'file-server', 'email-store' "
            "or a path to a .csv file"
        )
    try:
        UtilizationTrace.from_csv(value)
    except TraceError as error:
        return str(error)
    return None


#: An offered load relative to one server.
_LOAD = _lies_in(0, 0.95)
_MINUTES = _at_least(1)
_SERVERS = _at_least(1, whole=True)


def _minutes(args: ScenarioArgs) -> int:
    """The run length in whole minutes."""
    return int(round(args.duration_minutes))


def _ordered(low_name: str, high_name: str) -> ScenarioCheck:
    """Two offered loads, the first at most the second."""

    def check(values: Mapping[str, Any]) -> str | None:
        low, high = values[low_name], values[high_name]
        if not low <= high:
            return f"need 0 < {low_name} <= {high_name} <= 0.95, got [{low}, {high}]"
        return None

    return check


def _some_server(values: Mapping[str, Any]) -> str | None:
    xeons, atoms = int(values["xeon_servers"]), int(values["atom_servers"])
    if xeons + atoms < 1:
        return (
            "need at least one server in total, got "
            f"xeon_servers={xeons}, atom_servers={atoms}"
        )
    return None


def _min_awake_fits(values: Mapping[str, Any]) -> str | None:
    min_awake, servers = values["min_awake"], int(values["servers"])
    if min_awake > servers:
        return (
            f"min_awake must be a whole number in [1, {servers}], got {min_awake}"
        )
    return None


def _diurnal_values(args: ScenarioArgs, num_samples: int) -> np.ndarray:
    """One raised-cosine day/night cycle spanning *num_samples* minutes."""
    trough, peak = args.trough_utilization, args.peak_utilization
    phase = 2.0 * math.pi * np.arange(num_samples) / num_samples
    return trough + (peak - trough) * 0.5 * (1.0 - np.cos(phase))


def _crowd_values(
    args: ScenarioArgs, num_samples: int, base_utilization: float
) -> tuple[np.ndarray, dict[str, int]]:
    """*base_utilization* with ``crowd_utilization`` through the crowd window.

    The window is clipped to the run so shrunken smoke runs keep their
    burst; the clipped start and length are returned with the values.
    """
    start = int(round(args.crowd_start_minute))
    length = int(round(args.crowd_minutes))
    start = min(start, max(0, num_samples - length))
    values = np.full(num_samples, base_utilization)
    values[start : min(start + length, num_samples)] = args.crowd_utilization
    return values, {"crowd_start_minute": start, "crowd_minutes": length}


def _middle_third(num_samples: int, base: float, surge: float) -> np.ndarray:
    """*base* load with *surge* through the middle third of the run."""
    values = np.full(num_samples, base)
    values[num_samples // 3 : max(2 * num_samples // 3, num_samples // 3 + 1)] = surge
    return values


def _trace_jobs(
    spec: WorkloadSpec, values: np.ndarray, name: str, seed: int
) -> JobTrace:
    """The job stream of *spec* driven by one utilisation sample per minute."""
    trace = UtilizationTrace(values, interval=minutes(1), name=name)
    return generate_trace_driven_jobs(spec, trace, seed=seed).jobs


def _labelled_tenant_jobs(
    args: ScenarioArgs, spec: WorkloadSpec, utilizations: list[np.ndarray], name: str
) -> JobTrace:
    """One labelled stream per tenant, merged into a single arrival order.

    Tenant *i*'s jobs are generated from ``utilizations[i]`` with an
    offset seed and labelled ``i``; ``merge_streams`` preserves the labels
    through the merge sort.
    """
    streams = []
    for index, values in enumerate(utilizations):
        stream = _trace_jobs(spec, values, f"{name}-tenant-{index}", args.seed + index)
        streams.append(
            stream.with_tenant_ids(np.full(len(stream), index, dtype=np.int64))
        )
    return merge_streams(streams)


def _tenant_farm(
    args: ScenarioArgs, num_servers: int, spec: WorkloadSpec, farm_qos: FarmQos
) -> ServerFarm:
    """A homogeneous Xeon farm honouring every tenant's budget.

    The per-server policy search runs against the composite per-tenant
    constraint (met iff every tenant's budget is met), so the binding
    tenant budget — not a collapsed farm-wide one — drives frequency and
    sleep-state selection.
    """
    return _xeon_farm(
        args,
        num_servers,
        spec,
        dispatcher=make_tenant_dispatcher(args.dispatcher, farm_qos.tenants),
        qos=farm_qos,
        server_qos=farm_qos.composite_constraint(),
    )


# ---------------------------------------------------------------------------
# diurnal
# ---------------------------------------------------------------------------


@scenario(
    name="diurnal",
    description=(
        "Smooth day/night utilisation cycle (one full day compressed into the "
        "run) served by a small homogeneous Xeon farm."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 40, "length of the run; one full day/night cycle is compressed into it", _MINUTES),
        ScenarioParameter("trough_utilization", 0.08, "night-time offered load (relative to one server)", _LOAD),
        ScenarioParameter("peak_utilization", 0.85, "mid-day offered load (relative to one server)", _LOAD),
        ScenarioParameter("servers", 2, "number of identical Xeon servers", _SERVERS),
        ScenarioParameter("workload", "dns", "Table 5 workload class: dns, google or mail", _workload),
    ),
    checks=(_ordered("trough_utilization", "peak_utilization"),),
)
def build_diurnal(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    spec = workload_by_name(args.workload)
    values = _diurnal_values(args, num_samples)
    jobs = _trace_jobs(spec, values, "diurnal", args.seed)
    farm = _xeon_farm(args, servers, spec)
    return spec, jobs, farm, {"duration_minutes": num_samples, "servers": servers}


# ---------------------------------------------------------------------------
# flash-crowd
# ---------------------------------------------------------------------------


@scenario(
    name="flash-crowd",
    description=(
        "Quiet baseline load interrupted by a sudden sustained burst — the "
        "predictor and over-provisioning stress test, served behind a "
        "least-loaded dispatcher."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 30, "length of the run", _MINUTES),
        ScenarioParameter("base_utilization", 0.1, "offered load outside the crowd window", _LOAD),
        ScenarioParameter("crowd_utilization", 0.9, "offered load during the crowd window", _LOAD),
        ScenarioParameter("crowd_start_minute", 12, "minute at which the crowd arrives", _rounds_to_at_least(0)),
        ScenarioParameter("crowd_minutes", 6, "how long the crowd persists", _rounds_to_at_least(1)),
        ScenarioParameter("servers", 3, "number of identical Xeon servers", _SERVERS),
        ScenarioParameter("workload", "google", "Table 5 workload class: dns, google or mail", _workload),
    ),
    checks=(_ordered("base_utilization", "crowd_utilization"),),
)
def build_flash_crowd(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    values, window = _crowd_values(args, num_samples, args.base_utilization)
    spec = workload_by_name(args.workload)
    jobs = _trace_jobs(spec, values, "flash-crowd", args.seed)
    farm = _xeon_farm(args, servers, spec, dispatcher=LeastLoadedDispatcher())
    return spec, jobs, farm, {
        "duration_minutes": num_samples,
        **window,
        "servers": servers,
    }


# ---------------------------------------------------------------------------
# heavy-tail
# ---------------------------------------------------------------------------


@scenario(
    name="heavy-tail",
    description=(
        "Pareto (Lomax) service times at constant offered load — the regime "
        "where rare huge jobs dominate the response-time tail and deep sleep "
        "states are risky."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 25, "length of the run", _MINUTES),
        ScenarioParameter("utilization", 0.5, "constant offered load (relative to one server)", _LOAD),
        ScenarioParameter("pareto_alpha", 2.5, "Pareto tail index (must exceed 2 for finite variance)", _finite_variance),
        ScenarioParameter("mean_service_ms", 92.0, "mean job size in milliseconds (the Mail workload's)", _positive),
        ScenarioParameter("servers", 2, "number of identical Xeon servers", _SERVERS),
    ),
)
def build_heavy_tail(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    mean_service = args.mean_service_ms / 1000.0
    spec = WorkloadSpec(
        name="heavy-tail",
        interarrival=Exponential(mean_service / args.utilization),
        service=Pareto(alpha=args.pareto_alpha, mean_value=mean_service),
    )
    values = np.full(num_samples, args.utilization)
    jobs = _trace_jobs(spec, values, "heavy-tail", args.seed)
    farm = _xeon_farm(args, servers, spec)
    return spec, jobs, farm, {"duration_minutes": num_samples, "servers": servers}


# ---------------------------------------------------------------------------
# correlated-arrivals
# ---------------------------------------------------------------------------


@scenario(
    name="correlated-arrivals",
    description=(
        "Two-state Markov-modulated load: sticky quiet/bursty phases produce "
        "minute-scale autocorrelation in the arrival process (an MMPP-style "
        "stream), defeating memoryless predictors."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 30, "length of the run", _MINUTES),
        ScenarioParameter("quiet_utilization", 0.12, "offered load in the quiet phase", _LOAD),
        ScenarioParameter("bursty_utilization", 0.7, "offered load in the bursty phase", _LOAD),
        ScenarioParameter("persistence", 0.85, "probability of staying in the current phase each minute", _lies_in(0, 1, "[)")),
        ScenarioParameter("servers", 2, "number of identical Xeon servers", _SERVERS),
        ScenarioParameter("workload", "dns", "Table 5 workload class: dns, google or mail", _workload),
    ),
    checks=(_ordered("quiet_utilization", "bursty_utilization"),),
)
def build_correlated_arrivals(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    spec = workload_by_name(args.workload)
    rng = np.random.default_rng(args.seed)
    levels = (args.quiet_utilization, args.bursty_utilization)
    state = 0
    values = np.empty(num_samples)
    for index in range(num_samples):
        values[index] = levels[state]
        if rng.random() > args.persistence:
            state = 1 - state
    jobs = _trace_jobs(spec, values, "correlated-arrivals", args.seed + 1)
    farm = _xeon_farm(args, servers, spec)
    return spec, jobs, farm, {"duration_minutes": num_samples, "servers": servers}


# ---------------------------------------------------------------------------
# multiclass
# ---------------------------------------------------------------------------


def _mixture_spec(
    specs_and_rates: list[tuple[WorkloadSpec, float]],
) -> WorkloadSpec:
    """Moment-matched spec of a superposition of independent job classes.

    Arrival processes superpose (rates add); the service distribution is the
    arrival-rate-weighted mixture, matched by mean and Cv through the library's
    standard :func:`from_mean_cv` substitution.
    """
    total_rate = sum(rate for _, rate in specs_and_rates)
    weights = [rate / total_rate for _, rate in specs_and_rates]
    mean = sum(
        weight * spec.service.mean
        for (spec, _), weight in zip(specs_and_rates, weights, strict=True)
    )
    second_moment = sum(
        weight * spec.service.second_moment
        for (spec, _), weight in zip(specs_and_rates, weights, strict=True)
    )
    variance = max(second_moment - mean**2, 0.0)
    cv = math.sqrt(variance) / mean
    return WorkloadSpec(
        name="multiclass",
        interarrival=Exponential(1.0 / total_rate),
        service=from_mean_cv(mean, cv),
    )


@scenario(
    name="multiclass",
    description=(
        "DNS-like (large, rare) and Google-like (small, frequent) job classes "
        "superposed into one stream and served by a shared Xeon farm."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 20, "length of the run", _MINUTES),
        ScenarioParameter("dns_utilization", 0.25, "offered load contributed by the DNS-like class", _LOAD),
        ScenarioParameter("google_utilization", 0.35, "offered load contributed by the Google-like class", _LOAD),
        ScenarioParameter("servers", 2, "number of identical Xeon servers", _SERVERS),
    ),
)
def build_multiclass(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    classes = (
        (dns_workload(), args.dns_utilization),
        (google_workload(), args.google_utilization),
    )
    streams = []
    tenants = []
    for offset, (class_spec, load) in enumerate(classes):
        values = np.full(num_samples, load)
        stream = _trace_jobs(
            class_spec, values, f"multiclass-{class_spec.name}", args.seed + offset
        )
        # Each job class is a tenant: labels survive the merge and the
        # dispatch, so FarmResult.tenant_rows() reports per-class latency
        # without changing the (tenant-blind, round-robin) farm numbers.
        streams.append(
            stream.with_tenant_ids(np.full(len(stream), offset, dtype=np.int64))
        )
        # Budget each class in absolute seconds against its *own* mean
        # service time: the farm-level mean constraint normalises by the
        # mixture mean, which would misjudge the individual classes.
        tenants.append(
            TenantSpec(
                name=class_spec.name,
                qos=percentile_qos_from_baseline(
                    _RHO_B, class_spec.mean_service_time
                ),
            )
        )
    jobs = merge_streams(streams)
    spec = _mixture_spec(
        [(class_spec, load / class_spec.mean_service_time) for class_spec, load in classes]
    )
    farm = _xeon_farm(args, servers, spec, qos=FarmQos.per_tenant(*tenants))
    return spec, jobs, farm, {"duration_minutes": num_samples, "servers": servers}


# ---------------------------------------------------------------------------
# trace-replay
# ---------------------------------------------------------------------------


@scenario(
    name="trace-replay",
    description=(
        "Replay a stored utilisation trace: the synthetic Figure 7 traces "
        "('file-server', 'email-store'), or any two-column CSV produced by "
        "UtilizationTrace.to_csv."
    ),
    parameters=(
        ScenarioParameter("trace", "file-server", "'file-server', 'email-store', or a path to a trace CSV", _trace_name),
        ScenarioParameter("duration_minutes", 45, "how many minutes of the trace to replay", _MINUTES),
        ScenarioParameter("scale", 1.0, "multiply the trace's utilisation by this factor (clipped to [0, 1])", _positive),
        ScenarioParameter("servers", 1, "number of identical Xeon servers", _SERVERS),
        ScenarioParameter("workload", "dns", "Table 5 workload class supplying job statistics", _workload),
    ),
)
def build_trace_replay(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    if args.trace in _NAMED_TRACES:
        utilization = _NAMED_TRACES[args.trace](days=1, seed=args.seed)
    else:
        utilization = UtilizationTrace.from_csv(args.trace)
    if args.scale != 1.0:
        utilization = utilization.scaled(args.scale)
    num_samples = min(num_samples, len(utilization))
    utilization = utilization.slice_index(0, num_samples)
    spec = workload_by_name(args.workload)
    jobs = generate_trace_driven_jobs(spec, utilization, seed=args.seed).jobs
    farm = _xeon_farm(args, servers, spec)
    return spec, jobs, farm, {"duration_minutes": num_samples, "servers": servers}


# ---------------------------------------------------------------------------
# heterogeneous-farm
# ---------------------------------------------------------------------------


@scenario(
    name="heterogeneous-farm",
    description=(
        "Mixed Xeon + Atom fleet behind a power-aware dispatcher: low-power "
        "platforms absorb the base load, the Xeons wake for the diurnal peak "
        "— farm-level energy proportionality."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 30, "length of the run; one day/night cycle is compressed into it", _MINUTES),
        ScenarioParameter("xeon_servers", 1, "number of Xeon-class servers", _at_least(0, whole=True)),
        ScenarioParameter("atom_servers", 2, "number of Atom-class servers", _at_least(0, whole=True)),
        ScenarioParameter("trough_utilization", 0.1, "night-time offered load (relative to one server)", _LOAD),
        ScenarioParameter("peak_utilization", 0.8, "mid-day offered load (relative to one server)", _LOAD),
        ScenarioParameter("workload", "google", "Table 5 workload class: dns, google or mail", _workload),
    ),
    checks=(_ordered("trough_utilization", "peak_utilization"), _some_server),
)
def build_heterogeneous_farm(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers, counts = _mixed_fleet(args)
    spec = workload_by_name(args.workload)
    values = _diurnal_values(args, num_samples)
    jobs = _trace_jobs(spec, values, "heterogeneous-farm", args.seed)
    dispatcher = PowerAwareDispatcher.from_power_models(
        [server.power_model for server in servers]
    )
    farm = ServerFarm(servers=servers, spec=spec, dispatcher=dispatcher)
    return spec, jobs, farm, {"duration_minutes": num_samples, **counts}


# ---------------------------------------------------------------------------
# farm-scale
# ---------------------------------------------------------------------------


@scenario(
    name="farm-scale",
    description=(
        "Constant heavy load over a 16-server mixed Xeon/Atom fleet: the "
        "speed-aware power-aware dispatcher packs ~1M jobs (at defaults) "
        "onto the most efficient servers, and every server runs its epoch "
        "loop over its share of the trace."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 80, "length of the run (~1M Google-like jobs at defaults)", _MINUTES),
        ScenarioParameter("utilization", 0.9, "constant offered load (relative to one full-frequency server)", _LOAD),
        ScenarioParameter("xeon_servers", 8, "number of Xeon-class servers", _at_least(0, whole=True)),
        ScenarioParameter("atom_servers", 8, "number of Atom-class servers", _at_least(0, whole=True)),
        ScenarioParameter("atom_frequency_ceiling", 0.7, "DVFS ceiling the dispatcher assumes for Atom-class servers", _lies_in(0, 1)),
        ScenarioParameter("workload", "google", "Table 5 workload class: dns, google or mail", _workload),
    ),
    checks=(_some_server,),
)
def build_farm_scale(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers, counts = _mixed_fleet(
        args, atom_frequency_ceiling=args.atom_frequency_ceiling
    )
    spec = workload_by_name(args.workload)
    values = np.full(num_samples, args.utilization)
    jobs = _trace_jobs(spec, values, "farm-scale", args.seed)
    dispatcher = PowerAwareDispatcher.from_power_models(
        [server.power_model for server in servers]
    )
    farm = ServerFarm(servers=servers, spec=spec, dispatcher=dispatcher)
    return spec, jobs, farm, {"duration_minutes": num_samples, **counts}


# ---------------------------------------------------------------------------
# mega-farm
# ---------------------------------------------------------------------------


@scenario(
    name="mega-farm",
    description=(
        "Fleet-scale executor stress: 64 mixed Xeon/Atom servers (at "
        "defaults) behind the speed-aware least-loaded dispatcher, with "
        "short epochs so per-server policy searches dominate — the "
        "multi-core regime where `--executor process` shards the fleet "
        "across worker processes."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 40, "length of the run", _MINUTES),
        ScenarioParameter("utilization", 0.85, "constant offered load (relative to one full-frequency server)", _LOAD),
        ScenarioParameter("xeon_servers", 32, "number of Xeon-class servers", _at_least(0, whole=True)),
        ScenarioParameter("atom_servers", 32, "number of Atom-class servers", _at_least(0, whole=True)),
        ScenarioParameter("atom_frequency_ceiling", 0.7, "DVFS ceiling the dispatcher assumes for Atom-class servers", _lies_in(0, 1)),
        ScenarioParameter("epoch_minutes", 2.0, "policy-update epoch length; short epochs mean many searches per server", _positive),
        ScenarioParameter("workload", "google", "Table 5 workload class: dns, google or mail", _workload),
    ),
    checks=(_some_server,),
)
def build_mega_farm(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers, counts = _mixed_fleet(
        args,
        epoch_minutes=args.epoch_minutes,
        atom_frequency_ceiling=args.atom_frequency_ceiling,
    )
    spec = workload_by_name(args.workload)
    values = np.full(num_samples, args.utilization)
    jobs = _trace_jobs(spec, values, "mega-farm", args.seed)
    # Least-loaded (not power-aware) on purpose: every server stays active,
    # so the run's cost is dominated by the 64 independent per-server epoch
    # loops — exactly the work the process executor shards across cores.
    farm = ServerFarm(servers=servers, spec=spec, dispatcher=LeastLoadedDispatcher())
    return spec, jobs, farm, {"duration_minutes": num_samples, **counts}


# ---------------------------------------------------------------------------
# autoscale-diurnal / autoscale-surge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaceToHaltStrategyFactory:
    """Picklable zero-argument factory for a race-to-halt strategy.

    The autoscale scenarios model a latency-sensitive fleet that keeps its
    servers in the shallow ``C1S0(i)`` sleep when idle (instant wake-up, no
    per-job latency risk) and leaves energy savings to the *farm* controller
    parking whole servers — the AutoScale premise, and the regime where
    farm-level right-sizing is the dominant knob.
    """

    power_model: ServerPowerModel
    state: SystemState = C1_S0I

    def __call__(self) -> RaceToHaltStrategy:
        return RaceToHaltStrategy(self.power_model, self.state)


def _autoscale_server(name: str, power_model: ServerPowerModel) -> ServerSpec:
    """A shallow-sleep race-to-halt server for the autoscale scenarios."""
    config = RuntimeConfig(
        epoch_minutes=_AUTOSCALE_EPOCH_MINUTES,
        rho_b=_RHO_B,
        over_provisioning=0.35,
    )
    return ServerSpec(
        name=name,
        power_model=power_model,
        strategy_factory=RaceToHaltStrategyFactory(power_model=power_model),
        predictor_factory=LmsCusumPredictorFactory(history=10),
        config=config,
    )


def _autoscale_farm(
    args: ScenarioArgs, servers: int, spec: WorkloadSpec
) -> ServerFarm:
    """A homogeneous shallow-sleep Xeon farm with an embedded controller."""
    power_model = xeon_power_model()
    controller = FarmController(
        policy=args.policy,
        setup=SetupModel(latency_s=args.setup_latency_s),
        min_awake=int(args.min_awake),
        epoch_minutes=_AUTOSCALE_EPOCH_MINUTES,
    )
    return ServerFarm(
        servers=tuple(
            _autoscale_server(f"xeon-{index}", power_model)
            for index in range(servers)
        ),
        spec=spec,
        dispatcher=LeastLoadedDispatcher(),
        controller=controller,
    )


@scenario(
    name="autoscale-diurnal",
    description=(
        "Farm-level right-sizing over a day/night cycle: an over-provisioned "
        "fleet of shallow-sleep (race-to-halt C1) Xeon servers under a "
        "FarmController that parks servers through the trough and wakes them "
        "(paying setup latency and energy) as the day ramps up."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 40, "length of the run; one full day/night cycle is compressed into it", _MINUTES),
        ScenarioParameter("trough_utilization", 0.06, "night-time offered load (relative to one server)", _LOAD),
        ScenarioParameter("peak_utilization", 0.85, "mid-day offered load (relative to one server)", _LOAD),
        ScenarioParameter("servers", 4, "fleet size (provisioned for redundancy, not for mean load)", _SERVERS),
        ScenarioParameter("policy", "reactive", "right-sizing policy: always-on, reactive or predictive", _one_of(CONTROLLER_POLICIES)),
        ScenarioParameter("setup_latency_s", 30.0, "seconds a woken server needs before it can serve", _at_least(0)),
        ScenarioParameter("min_awake", 1, "servers the controller must keep serviceable at all times", _at_least(1, whole=True)),
        ScenarioParameter("workload", "dns", "Table 5 workload class: dns, google or mail", _workload),
    ),
    checks=(_ordered("trough_utilization", "peak_utilization"), _min_awake_fits),
)
def build_autoscale_diurnal(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    spec = workload_by_name(args.workload)
    values = _diurnal_values(args, num_samples)
    jobs = _trace_jobs(spec, values, "autoscale-diurnal", args.seed)
    farm = _autoscale_farm(args, servers, spec)
    return spec, jobs, farm, {
        "duration_minutes": num_samples,
        "servers": servers,
        "min_awake": int(args.min_awake),
    }


@scenario(
    name="autoscale-surge",
    description=(
        "Farm-level right-sizing under a load step: a quiet baseline, a "
        "sudden sustained surge through the middle third of the run, then "
        "quiet again — the controller must scale up through the surge "
        "(absorbing the setup latency) and park back down afterwards."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 30, "length of the run; the surge occupies the middle third", _MINUTES),
        ScenarioParameter("base_utilization", 0.08, "offered load outside the surge (relative to one server)", _LOAD),
        ScenarioParameter("surge_utilization", 0.85, "offered load during the surge (relative to one server)", _LOAD),
        ScenarioParameter("servers", 4, "fleet size (provisioned for the surge, idle in the baseline)", _SERVERS),
        ScenarioParameter("policy", "reactive", "right-sizing policy: always-on, reactive or predictive", _one_of(CONTROLLER_POLICIES)),
        ScenarioParameter("setup_latency_s", 30.0, "seconds a woken server needs before it can serve", _at_least(0)),
        ScenarioParameter("min_awake", 1, "servers the controller must keep serviceable at all times", _at_least(1, whole=True)),
        ScenarioParameter("workload", "dns", "Table 5 workload class: dns, google or mail", _workload),
    ),
    checks=(_ordered("base_utilization", "surge_utilization"), _min_awake_fits),
)
def build_autoscale_surge(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    spec = workload_by_name(args.workload)
    values = _middle_third(
        num_samples, args.base_utilization, args.surge_utilization
    )
    jobs = _trace_jobs(spec, values, "autoscale-surge", args.seed)
    farm = _autoscale_farm(args, servers, spec)
    return spec, jobs, farm, {
        "duration_minutes": num_samples,
        "servers": servers,
        "min_awake": int(args.min_awake),
    }


# ---------------------------------------------------------------------------
# noisy-neighbor / tenant-surge / priority-inversion
# ---------------------------------------------------------------------------


@scenario(
    name="noisy-neighbor",
    description=(
        "Two tenants on a shared farm: a low-priority flash crowd erupts "
        "against a steady latency-SLA victim. Under the tenant-blind "
        "least-loaded dispatcher the crowd's predictor-lag overload queues "
        "the victim's jobs too; priority or weighted-fair dispatch confines "
        "the damage to the crowd's own servers."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 30, "length of the run", _MINUTES),
        ScenarioParameter("victim_utilization", 0.15, "victim tenant's steady offered load (relative to one server)", _LOAD),
        ScenarioParameter("crowd_utilization", 0.9, "crowd tenant's offered load during its burst window", _LOAD),
        ScenarioParameter("crowd_base_utilization", 0.05, "crowd tenant's offered load outside the burst window", _LOAD),
        ScenarioParameter("crowd_start_minute", 10, "minute at which the crowd arrives", _rounds_to_at_least(0)),
        ScenarioParameter("crowd_minutes", 20, "how long the crowd persists (default: to the end of the run)", _rounds_to_at_least(1)),
        ScenarioParameter("servers", 2, "number of identical Xeon servers (>= 2, one per tenant)", _at_least(2, whole=True)),
        ScenarioParameter("dispatcher", TENANT_DISPATCH_PRIORITY, "tenant dispatch kind: least-loaded, priority or weighted-fair", _one_of(TENANT_DISPATCH_KINDS)),
        ScenarioParameter("workload", "google", "Table 5 workload class both tenants draw jobs from", _workload),
    ),
)
def build_noisy_neighbor(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    crowd_values, window = _crowd_values(
        args, num_samples, args.crowd_base_utilization
    )
    spec = workload_by_name(args.workload)
    victim_values = np.full(num_samples, args.victim_utilization)
    jobs = _labelled_tenant_jobs(
        args, spec, [crowd_values, victim_values], "noisy-neighbor"
    )
    farm_qos = FarmQos.per_tenant(
        TenantSpec(
            name="crowd",
            qos=mean_qos_from_baseline(_RHO_B),
            weight=1.0,
            priority=0,
        ),
        TenantSpec(
            name="victim",
            qos=percentile_qos_from_baseline(_RHO_B, spec.mean_service_time),
            weight=1.0,
            priority=1,
        ),
    )
    farm = _tenant_farm(args, servers, spec, farm_qos)
    return spec, jobs, farm, {
        "duration_minutes": num_samples,
        **window,
        "servers": servers,
    }


@scenario(
    name="tenant-surge",
    description=(
        "Weighted-fair capacity split under a tenant-local load step: a "
        "steady tenant shares the farm with a surging tenant whose load "
        "steps up through the middle third of the run. The weighted-fair "
        "partitions keep the steady tenant's latency flat while the surge "
        "fills its own (larger, weight-proportional) share."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 30, "length of the run; the surge occupies the middle third", _MINUTES),
        ScenarioParameter("steady_utilization", 0.2, "steady tenant's constant offered load", _LOAD),
        ScenarioParameter("surge_base_utilization", 0.1, "surging tenant's offered load outside the surge", _LOAD),
        ScenarioParameter("surge_utilization", 0.85, "surging tenant's offered load during the surge", _LOAD),
        ScenarioParameter("surge_weight", 2.0, "surging tenant's capacity weight (steady tenant has weight 1)", _positive),
        ScenarioParameter("servers", 3, "number of identical Xeon servers (>= 2, one per tenant)", _at_least(2, whole=True)),
        ScenarioParameter("dispatcher", TENANT_DISPATCH_WEIGHTED_FAIR, "tenant dispatch kind: least-loaded, priority or weighted-fair", _one_of(TENANT_DISPATCH_KINDS)),
        ScenarioParameter("workload", "google", "Table 5 workload class both tenants draw jobs from", _workload),
    ),
    checks=(_ordered("surge_base_utilization", "surge_utilization"),),
)
def build_tenant_surge(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    spec = workload_by_name(args.workload)
    steady_values = np.full(num_samples, args.steady_utilization)
    surge_values = _middle_third(
        num_samples, args.surge_base_utilization, args.surge_utilization
    )
    jobs = _labelled_tenant_jobs(
        args, spec, [steady_values, surge_values], "tenant-surge"
    )
    farm_qos = FarmQos.per_tenant(
        TenantSpec(
            name="steady",
            qos=mean_qos_from_baseline(_RHO_B),
            weight=1.0,
        ),
        TenantSpec(
            name="surge",
            qos=mean_qos_from_baseline(_RHO_B),
            weight=args.surge_weight,
        ),
    )
    farm = _tenant_farm(args, servers, spec, farm_qos)
    return spec, jobs, farm, {"duration_minutes": num_samples, "servers": servers}


@scenario(
    name="priority-inversion",
    description=(
        "A square-wave batch tenant toggles between near-idle and flood "
        "every few minutes, defeating the per-epoch predictor each time; a "
        "small high-priority interactive tenant with a p95 SLA shares the "
        "farm. Priority dispatch reserves the interactive tenant's servers "
        "so the repeated batch overloads cannot invert its priority."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 24, "length of the run", _MINUTES),
        ScenarioParameter("interactive_utilization", 0.15, "interactive tenant's steady offered load", _LOAD),
        ScenarioParameter("batch_on_utilization", 0.9, "batch tenant's offered load in its on-phases", _LOAD),
        ScenarioParameter("batch_off_utilization", 0.05, "batch tenant's offered load in its off-phases", _LOAD),
        ScenarioParameter("phase_minutes", 6, "length of each batch on/off phase", _rounds_to_at_least(1)),
        ScenarioParameter("servers", 2, "number of identical Xeon servers (>= 2, one per tenant)", _at_least(2, whole=True)),
        ScenarioParameter("dispatcher", TENANT_DISPATCH_PRIORITY, "tenant dispatch kind: least-loaded, priority or weighted-fair", _one_of(TENANT_DISPATCH_KINDS)),
        ScenarioParameter("workload", "google", "Table 5 workload class both tenants draw jobs from", _workload),
    ),
)
def build_priority_inversion(args: ScenarioArgs) -> BuilderResult:
    num_samples = _minutes(args)
    servers = int(args.servers)
    phase = int(round(args.phase_minutes))
    spec = workload_by_name(args.workload)
    minute = np.arange(num_samples)
    batch_values = np.where(
        (minute // phase) % 2 == 1,
        args.batch_on_utilization,
        args.batch_off_utilization,
    ).astype(float)
    interactive_values = np.full(num_samples, args.interactive_utilization)
    jobs = _labelled_tenant_jobs(
        args, spec, [batch_values, interactive_values], "priority-inversion"
    )
    farm_qos = FarmQos.per_tenant(
        TenantSpec(
            name="batch",
            qos=mean_qos_from_baseline(_RHO_B),
            weight=1.0,
            priority=0,
        ),
        TenantSpec(
            name="interactive",
            qos=percentile_qos_from_baseline(_RHO_B, spec.mean_service_time),
            weight=1.0,
            priority=1,
        ),
    )
    farm = _tenant_farm(args, servers, spec, farm_qos)
    return spec, jobs, farm, {
        "duration_minutes": num_samples,
        "phase_minutes": phase,
        "servers": servers,
    }
