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
``farm-scale``            million-job stream over 16 mixed Xeon/Atom servers,
                          dispatched by the speed-aware heap engine and fed
                          to the per-server epoch loops in chunks
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

Every builder is deterministic given ``seed``, sizes itself from
``duration_minutes`` so tests can shrink it to seconds, and passes
``backend`` into each server's policy-search strategy so the whole scenario
can be replayed on the reference simulator.

Utilisation convention: trace utilisations are offered load relative to one
full-frequency server, so a farm of ``n`` servers behind a balanced
dispatcher sees roughly ``utilization / n`` per server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

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
from repro.core.search import DEFAULT_SEARCH
from repro.core.strategies import (
    PolicySearchStrategy,
    RaceToHaltStrategy,
    sleepscale_strategy,
)
from repro.exceptions import ScenarioError
from repro.power.platform import ServerPowerModel, atom_power_model, xeon_power_model
from repro.power.states import C1_S0I, SystemState
from repro.prediction.lms_cusum import LmsCusumPredictor
from repro.scenarios.base import (
    BuiltScenario,
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
    backend: str
    search: str

    def __call__(self) -> PolicySearchStrategy:
        return sleepscale_strategy(
            self.power_model,
            self.qos,
            characterization_jobs=self.characterization_jobs,
            seed=self.seed,
            backend=self.backend,
            search=self.search,
        )


@dataclass(frozen=True)
class LmsCusumPredictorFactory:
    """Picklable zero-argument factory for a fresh LMS+CUSUM predictor."""

    history: int = 10

    def __call__(self) -> LmsCusumPredictor:
        return LmsCusumPredictor(history=self.history)


def _sleepscale_server(
    name: str,
    power_model: ServerPowerModel,
    *,
    seed: int,
    backend: str,
    search: str = DEFAULT_SEARCH,
    epoch_minutes: float = 5.0,
    max_frequency: float = 1.0,
    qos: QosConstraint | None = None,
) -> ServerSpec:
    """A server running full SleepScale with an LMS+CUSUM predictor.

    ``qos`` overrides the default baseline mean-response-time budget; the
    tenant scenarios pass the composite per-tenant constraint here so each
    server's policy search selects against the binding tenant budget.
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
            seed=seed,
            backend=backend,
            search=search,
        ),
        predictor_factory=LmsCusumPredictorFactory(history=10),
        config=config,
        max_frequency=max_frequency,
    )


def _xeon_farm(
    num_servers: int,
    spec: WorkloadSpec,
    *,
    seed: int,
    backend: str,
    search: str = DEFAULT_SEARCH,
    dispatcher: JobDispatcher | None = None,
    epoch_minutes: float = 5.0,
    qos: FarmQos | None = None,
    server_qos: QosConstraint | None = None,
) -> ServerFarm:
    """A homogeneous Xeon farm of SleepScale servers."""
    power_model = xeon_power_model()
    servers = tuple(
        _sleepscale_server(
            f"xeon-{index}",
            power_model,
            seed=seed + index,
            backend=backend,
            search=search,
            epoch_minutes=epoch_minutes,
            qos=server_qos,
        )
        for index in range(num_servers)
    )
    return ServerFarm(
        servers=servers,
        spec=spec,
        dispatcher=dispatcher or RoundRobinDispatcher(),
        qos=qos,
    )


def _check_duration(duration_minutes: float) -> int:
    if duration_minutes < 1:
        raise ScenarioError(
            f"duration_minutes must be at least 1, got {duration_minutes}"
        )
    return int(round(duration_minutes))


def _diurnal_values(
    num_samples: int, trough_utilization: float, peak_utilization: float
) -> np.ndarray:
    """One raised-cosine day/night cycle spanning *num_samples* minutes."""
    if not 0.0 < trough_utilization <= peak_utilization <= 0.95:
        raise ScenarioError(
            "need 0 < trough_utilization <= peak_utilization <= 0.95, got "
            f"[{trough_utilization}, {peak_utilization}]"
        )
    phase = 2.0 * math.pi * np.arange(num_samples) / num_samples
    return trough_utilization + (peak_utilization - trough_utilization) * 0.5 * (
        1.0 - np.cos(phase)
    )


def _check_servers(num_servers: int) -> int:
    if num_servers != int(num_servers):
        raise ScenarioError(
            f"servers must be a whole number, got {num_servers}"
        )
    if num_servers < 1:
        raise ScenarioError(f"servers must be at least 1, got {num_servers}")
    return int(num_servers)


def _check_dispatcher(kind: str) -> str:
    if kind not in TENANT_DISPATCH_KINDS:
        raise ScenarioError(
            f"dispatcher must be one of {', '.join(TENANT_DISPATCH_KINDS)}, "
            f"got {kind!r}"
        )
    return kind


def _labelled_tenant_jobs(
    spec: WorkloadSpec,
    utilizations: list[np.ndarray],
    *,
    seed: int,
    name: str,
) -> JobTrace:
    """One labelled stream per tenant, merged into a single arrival order.

    Tenant *i*'s jobs are generated from ``utilizations[i]`` with an
    offset seed and labelled ``i``; ``merge_streams`` preserves the labels
    through the merge sort.
    """
    streams = []
    for index, values in enumerate(utilizations):
        trace = UtilizationTrace(
            values, interval=minutes(1), name=f"{name}-tenant-{index}"
        )
        stream = generate_trace_driven_jobs(spec, trace, seed=seed + index).jobs
        streams.append(
            stream.with_tenant_ids(np.full(len(stream), index, dtype=np.int64))
        )
    return merge_streams(streams)


def _tenant_farm(
    num_servers: int,
    spec: WorkloadSpec,
    farm_qos: FarmQos,
    dispatcher: str,
    *,
    seed: int,
    backend: str,
    search: str,
) -> ServerFarm:
    """A homogeneous Xeon farm honouring every tenant's budget.

    The per-server policy search runs against the composite per-tenant
    constraint (met iff every tenant's budget is met), so the binding
    tenant budget — not a collapsed farm-wide one — drives frequency and
    sleep-state selection, and the tenant table fingerprints the search
    cache keys.
    """
    return _xeon_farm(
        num_servers,
        spec,
        seed=seed,
        backend=backend,
        search=search,
        dispatcher=make_tenant_dispatcher(dispatcher, farm_qos.tenants),
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
        ScenarioParameter("duration_minutes", 40, "length of the run; one full day/night cycle is compressed into it"),
        ScenarioParameter("trough_utilization", 0.08, "night-time offered load (relative to one server)"),
        ScenarioParameter("peak_utilization", 0.85, "mid-day offered load (relative to one server)"),
        ScenarioParameter("servers", 2, "number of identical Xeon servers"),
        ScenarioParameter("workload", "dns", "Table 5 workload class: dns, google or mail"),
    ),
)
def build_diurnal(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    trough_utilization: float,
    peak_utilization: float,
    servers: int,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    spec = workload_by_name(workload)
    values = _diurnal_values(num_samples, trough_utilization, peak_utilization)
    trace = UtilizationTrace(values, interval=minutes(1), name="diurnal")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs
    farm = _xeon_farm(servers, spec, seed=seed, backend=backend, search=search)
    return BuiltScenario(
        name="diurnal",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "trough_utilization": trough_utilization,
            "peak_utilization": peak_utilization,
            "servers": servers,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("duration_minutes", 30, "length of the run"),
        ScenarioParameter("base_utilization", 0.1, "offered load outside the crowd window"),
        ScenarioParameter("crowd_utilization", 0.9, "offered load during the crowd window"),
        ScenarioParameter("crowd_start_minute", 12, "minute at which the crowd arrives"),
        ScenarioParameter("crowd_minutes", 6, "how long the crowd persists"),
        ScenarioParameter("servers", 3, "number of identical Xeon servers"),
        ScenarioParameter("workload", "google", "Table 5 workload class: dns, google or mail"),
    ),
)
def build_flash_crowd(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    base_utilization: float,
    crowd_utilization: float,
    crowd_start_minute: float,
    crowd_minutes: float,
    servers: int,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    if not 0.0 < base_utilization <= crowd_utilization <= 0.95:
        raise ScenarioError(
            "need 0 < base_utilization <= crowd_utilization <= 0.95, got "
            f"[{base_utilization}, {crowd_utilization}]"
        )
    start = int(round(crowd_start_minute))
    length = int(round(crowd_minutes))
    if start < 0 or length < 1:
        raise ScenarioError(
            f"crowd window [{start}, {start + length}) is invalid"
        )
    # Clip the window to the run so shrunken smoke runs keep their burst.
    start = min(start, max(0, num_samples - length))
    spec = workload_by_name(workload)
    values = np.full(num_samples, base_utilization)
    values[start : min(start + length, num_samples)] = crowd_utilization
    trace = UtilizationTrace(values, interval=minutes(1), name="flash-crowd")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs
    farm = _xeon_farm(
        servers,
        spec,
        seed=seed,
        backend=backend,
        search=search,
        dispatcher=LeastLoadedDispatcher(),
    )
    return BuiltScenario(
        name="flash-crowd",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "base_utilization": base_utilization,
            "crowd_utilization": crowd_utilization,
            "crowd_start_minute": start,
            "crowd_minutes": length,
            "servers": servers,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("duration_minutes", 25, "length of the run"),
        ScenarioParameter("utilization", 0.5, "constant offered load (relative to one server)"),
        ScenarioParameter("pareto_alpha", 2.5, "Pareto tail index (must exceed 2 for finite variance)"),
        ScenarioParameter("mean_service_ms", 92.0, "mean job size in milliseconds (the Mail workload's)"),
        ScenarioParameter("servers", 2, "number of identical Xeon servers"),
    ),
)
def build_heavy_tail(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    utilization: float,
    pareto_alpha: float,
    mean_service_ms: float,
    servers: int,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    if not 0.0 < utilization <= 0.95:
        raise ScenarioError(
            f"utilization must lie in (0, 0.95], got {utilization}"
        )
    if pareto_alpha <= 2.0:
        raise ScenarioError(
            f"pareto_alpha must exceed 2 (finite variance), got {pareto_alpha}"
        )
    if mean_service_ms <= 0:
        raise ScenarioError(
            f"mean_service_ms must be positive, got {mean_service_ms}"
        )
    mean_service = mean_service_ms / 1000.0
    service = Pareto(alpha=pareto_alpha, mean_value=mean_service)
    spec = WorkloadSpec(
        name="heavy-tail",
        interarrival=Exponential(mean_service / utilization),
        service=service,
    )
    values = np.full(num_samples, utilization)
    trace = UtilizationTrace(values, interval=minutes(1), name="heavy-tail")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs
    farm = _xeon_farm(servers, spec, seed=seed, backend=backend, search=search)
    return BuiltScenario(
        name="heavy-tail",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "utilization": utilization,
            "pareto_alpha": pareto_alpha,
            "mean_service_ms": mean_service_ms,
            "servers": servers,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("duration_minutes", 30, "length of the run"),
        ScenarioParameter("quiet_utilization", 0.12, "offered load in the quiet phase"),
        ScenarioParameter("bursty_utilization", 0.7, "offered load in the bursty phase"),
        ScenarioParameter("persistence", 0.85, "probability of staying in the current phase each minute"),
        ScenarioParameter("servers", 2, "number of identical Xeon servers"),
        ScenarioParameter("workload", "dns", "Table 5 workload class: dns, google or mail"),
    ),
)
def build_correlated_arrivals(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    quiet_utilization: float,
    bursty_utilization: float,
    persistence: float,
    servers: int,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    if not 0.0 < quiet_utilization <= bursty_utilization <= 0.95:
        raise ScenarioError(
            "need 0 < quiet_utilization <= bursty_utilization <= 0.95, got "
            f"[{quiet_utilization}, {bursty_utilization}]"
        )
    if not 0.0 <= persistence < 1.0:
        raise ScenarioError(
            f"persistence must lie in [0, 1), got {persistence}"
        )
    spec = workload_by_name(workload)
    rng = np.random.default_rng(seed)
    levels = (quiet_utilization, bursty_utilization)
    state = 0
    values = np.empty(num_samples)
    for index in range(num_samples):
        values[index] = levels[state]
        if rng.random() > persistence:
            state = 1 - state
    trace = UtilizationTrace(values, interval=minutes(1), name="correlated-arrivals")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed + 1).jobs
    farm = _xeon_farm(servers, spec, seed=seed, backend=backend, search=search)
    return BuiltScenario(
        name="correlated-arrivals",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "quiet_utilization": quiet_utilization,
            "bursty_utilization": bursty_utilization,
            "persistence": persistence,
            "servers": servers,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("duration_minutes", 20, "length of the run"),
        ScenarioParameter("dns_utilization", 0.25, "offered load contributed by the DNS-like class"),
        ScenarioParameter("google_utilization", 0.35, "offered load contributed by the Google-like class"),
        ScenarioParameter("servers", 2, "number of identical Xeon servers"),
    ),
)
def build_multiclass(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    dns_utilization: float,
    google_utilization: float,
    servers: int,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    for label, value in (
        ("dns_utilization", dns_utilization),
        ("google_utilization", google_utilization),
    ):
        if not 0.0 < value <= 0.95:
            raise ScenarioError(f"{label} must lie in (0, 0.95], got {value}")
    dns_spec = dns_workload()
    google_spec = google_workload()
    streams = []
    tenants = []
    for offset, (class_spec, load) in enumerate(
        ((dns_spec, dns_utilization), (google_spec, google_utilization))
    ):
        values = np.full(num_samples, load)
        trace = UtilizationTrace(
            values, interval=minutes(1), name=f"multiclass-{class_spec.name}"
        )
        stream = generate_trace_driven_jobs(class_spec, trace, seed=seed + offset).jobs
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
        [
            (dns_spec, dns_utilization / dns_spec.mean_service_time),
            (google_spec, google_utilization / google_spec.mean_service_time),
        ]
    )
    farm = _xeon_farm(
        servers,
        spec,
        seed=seed,
        backend=backend,
        search=search,
        qos=FarmQos.per_tenant(*tenants),
    )
    return BuiltScenario(
        name="multiclass",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "dns_utilization": dns_utilization,
            "google_utilization": google_utilization,
            "servers": servers,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("trace", "file-server", "'file-server', 'email-store', or a path to a trace CSV"),
        ScenarioParameter("duration_minutes", 45, "how many minutes of the trace to replay"),
        ScenarioParameter("scale", 1.0, "multiply the trace's utilisation by this factor (clipped to [0, 1])"),
        ScenarioParameter("servers", 1, "number of identical Xeon servers"),
        ScenarioParameter("workload", "dns", "Table 5 workload class supplying job statistics"),
    ),
)
def build_trace_replay(
    *,
    seed: int,
    backend: str,
    search: str,
    trace: str,
    duration_minutes: float,
    scale: float,
    servers: int,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    if trace == "file-server":
        utilization = synthetic_file_server_trace(days=1, seed=seed)
    elif trace == "email-store":
        utilization = synthetic_email_store_trace(days=1, seed=seed)
    elif Path(trace).suffix == ".csv":
        utilization = UtilizationTrace.from_csv(trace)
    else:
        raise ScenarioError(
            f"unknown trace {trace!r}; expected 'file-server', 'email-store' "
            "or a path to a .csv file"
        )
    if scale != 1.0:
        utilization = utilization.scaled(scale)
    num_samples = min(num_samples, len(utilization))
    utilization = utilization.slice_index(0, num_samples)
    spec = workload_by_name(workload)
    jobs = generate_trace_driven_jobs(spec, utilization, seed=seed).jobs
    farm = _xeon_farm(servers, spec, seed=seed, backend=backend, search=search)
    return BuiltScenario(
        name="trace-replay",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "trace": trace,
            "duration_minutes": num_samples,
            "scale": scale,
            "servers": servers,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("duration_minutes", 30, "length of the run; one day/night cycle is compressed into it"),
        ScenarioParameter("xeon_servers", 1, "number of Xeon-class servers"),
        ScenarioParameter("atom_servers", 2, "number of Atom-class servers"),
        ScenarioParameter("trough_utilization", 0.1, "night-time offered load (relative to one server)"),
        ScenarioParameter("peak_utilization", 0.8, "mid-day offered load (relative to one server)"),
        ScenarioParameter("workload", "google", "Table 5 workload class: dns, google or mail"),
    ),
)
def build_heterogeneous_farm(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    xeon_servers: int,
    atom_servers: int,
    trough_utilization: float,
    peak_utilization: float,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    for label, count in (("xeon_servers", xeon_servers), ("atom_servers", atom_servers)):
        if count != int(count) or count < 0:
            raise ScenarioError(
                f"{label} must be a non-negative whole number, got {count}"
            )
    xeon_servers, atom_servers = int(xeon_servers), int(atom_servers)
    if xeon_servers + atom_servers < 1:
        raise ScenarioError(
            "need at least one server in total, got "
            f"xeon_servers={xeon_servers}, atom_servers={atom_servers}"
        )
    spec = workload_by_name(workload)
    values = _diurnal_values(num_samples, trough_utilization, peak_utilization)
    trace = UtilizationTrace(values, interval=minutes(1), name="heterogeneous-farm")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs

    xeon = xeon_power_model()
    atom = atom_power_model()
    servers: list[ServerSpec] = []
    for index in range(xeon_servers):
        servers.append(
            _sleepscale_server(
                f"xeon-{index}",
                xeon,
                seed=seed + index,
                backend=backend,
                search=search,
            )
        )
    for index in range(atom_servers):
        servers.append(
            _sleepscale_server(
                f"atom-{index}",
                atom,
                seed=seed + xeon_servers + index,
                backend=backend,
                search=search,
            )
        )
    dispatcher = PowerAwareDispatcher.from_power_models(
        [server.power_model for server in servers]
    )
    farm = ServerFarm(
        servers=tuple(servers),
        spec=spec,
        dispatcher=dispatcher,
    )
    return BuiltScenario(
        name="heterogeneous-farm",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "xeon_servers": xeon_servers,
            "atom_servers": atom_servers,
            "trough_utilization": trough_utilization,
            "peak_utilization": peak_utilization,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


# ---------------------------------------------------------------------------
# farm-scale
# ---------------------------------------------------------------------------


@scenario(
    name="farm-scale",
    description=(
        "Constant heavy load streamed over a 16-server mixed Xeon/Atom fleet: "
        "the speed-aware heap dispatcher assigns ~1M jobs (at defaults) and "
        "the farm consumes them in arrival-ordered chunks, never "
        "materialising every per-server stream at once."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 80, "length of the run (~1M Google-like jobs at defaults)"),
        ScenarioParameter("utilization", 0.9, "constant offered load (relative to one full-frequency server)"),
        ScenarioParameter("xeon_servers", 8, "number of Xeon-class servers"),
        ScenarioParameter("atom_servers", 8, "number of Atom-class servers"),
        ScenarioParameter("atom_frequency_ceiling", 0.7, "DVFS ceiling the dispatcher assumes for Atom-class servers"),
        ScenarioParameter("chunk_jobs", 32768, "dispatch/feed chunk size in jobs; 0 runs one-shot"),
        ScenarioParameter("workload", "google", "Table 5 workload class: dns, google or mail"),
    ),
)
def build_farm_scale(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    utilization: float,
    xeon_servers: int,
    atom_servers: int,
    atom_frequency_ceiling: float,
    chunk_jobs: int,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    for label, count in (("xeon_servers", xeon_servers), ("atom_servers", atom_servers)):
        if count != int(count) or count < 0:
            raise ScenarioError(
                f"{label} must be a non-negative whole number, got {count}"
            )
    xeon_servers, atom_servers = int(xeon_servers), int(atom_servers)
    if xeon_servers + atom_servers < 1:
        raise ScenarioError(
            "need at least one server in total, got "
            f"xeon_servers={xeon_servers}, atom_servers={atom_servers}"
        )
    if not 0.0 < utilization <= 0.95:
        raise ScenarioError(
            f"utilization must lie in (0, 0.95], got {utilization}"
        )
    if not 0.0 < atom_frequency_ceiling <= 1.0:
        raise ScenarioError(
            f"atom_frequency_ceiling must lie in (0, 1], got {atom_frequency_ceiling}"
        )
    if chunk_jobs != int(chunk_jobs) or chunk_jobs < 0:
        raise ScenarioError(
            f"chunk_jobs must be a non-negative whole number, got {chunk_jobs}"
        )
    chunk_jobs = int(chunk_jobs)
    spec = workload_by_name(workload)
    values = np.full(num_samples, utilization)
    trace = UtilizationTrace(values, interval=minutes(1), name="farm-scale")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs

    xeon = xeon_power_model()
    atom = atom_power_model()
    servers: list[ServerSpec] = []
    for index in range(xeon_servers):
        servers.append(
            _sleepscale_server(
                f"xeon-{index}",
                xeon,
                seed=seed + index,
                backend=backend,
                search=search,
            )
        )
    for index in range(atom_servers):
        servers.append(
            _sleepscale_server(
                f"atom-{index}",
                atom,
                seed=seed + xeon_servers + index,
                backend=backend,
                search=search,
                # The front end provisions against the Atom parts' lower
                # DVFS ceiling, so backlog estimates are speed-aware.
                max_frequency=atom_frequency_ceiling,
            )
        )
    dispatcher = PowerAwareDispatcher.from_power_models(
        [server.power_model for server in servers]
    )
    farm = ServerFarm(
        servers=tuple(servers),
        spec=spec,
        dispatcher=dispatcher,
        chunk_jobs=chunk_jobs or None,
    )
    return BuiltScenario(
        name="farm-scale",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "utilization": utilization,
            "xeon_servers": xeon_servers,
            "atom_servers": atom_servers,
            "atom_frequency_ceiling": atom_frequency_ceiling,
            "chunk_jobs": chunk_jobs,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("duration_minutes", 40, "length of the run"),
        ScenarioParameter("utilization", 0.85, "constant offered load (relative to one full-frequency server)"),
        ScenarioParameter("xeon_servers", 32, "number of Xeon-class servers"),
        ScenarioParameter("atom_servers", 32, "number of Atom-class servers"),
        ScenarioParameter("atom_frequency_ceiling", 0.7, "DVFS ceiling the dispatcher assumes for Atom-class servers"),
        ScenarioParameter("epoch_minutes", 2.0, "policy-update epoch length; short epochs mean many searches per server"),
        ScenarioParameter("workload", "google", "Table 5 workload class: dns, google or mail"),
    ),
)
def build_mega_farm(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    utilization: float,
    xeon_servers: int,
    atom_servers: int,
    atom_frequency_ceiling: float,
    epoch_minutes: float,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    for label, count in (("xeon_servers", xeon_servers), ("atom_servers", atom_servers)):
        if count != int(count) or count < 0:
            raise ScenarioError(
                f"{label} must be a non-negative whole number, got {count}"
            )
    xeon_servers, atom_servers = int(xeon_servers), int(atom_servers)
    if xeon_servers + atom_servers < 1:
        raise ScenarioError(
            "need at least one server in total, got "
            f"xeon_servers={xeon_servers}, atom_servers={atom_servers}"
        )
    if not 0.0 < utilization <= 0.95:
        raise ScenarioError(
            f"utilization must lie in (0, 0.95], got {utilization}"
        )
    if not 0.0 < atom_frequency_ceiling <= 1.0:
        raise ScenarioError(
            f"atom_frequency_ceiling must lie in (0, 1], got {atom_frequency_ceiling}"
        )
    if epoch_minutes <= 0:
        raise ScenarioError(
            f"epoch_minutes must be positive, got {epoch_minutes}"
        )
    spec = workload_by_name(workload)
    values = np.full(num_samples, utilization)
    trace = UtilizationTrace(values, interval=minutes(1), name="mega-farm")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs

    xeon = xeon_power_model()
    atom = atom_power_model()
    servers: list[ServerSpec] = []
    for index in range(xeon_servers):
        servers.append(
            _sleepscale_server(
                f"xeon-{index}",
                xeon,
                seed=seed + index,
                backend=backend,
                search=search,
                epoch_minutes=epoch_minutes,
            )
        )
    for index in range(atom_servers):
        servers.append(
            _sleepscale_server(
                f"atom-{index}",
                atom,
                seed=seed + xeon_servers + index,
                backend=backend,
                search=search,
                epoch_minutes=epoch_minutes,
                max_frequency=atom_frequency_ceiling,
            )
        )
    # Least-loaded (not power-aware) on purpose: every server stays active,
    # so the run's cost is dominated by the 64 independent per-server epoch
    # loops — exactly the work the process executor shards across cores.
    farm = ServerFarm(
        servers=tuple(servers),
        spec=spec,
        dispatcher=LeastLoadedDispatcher(),
    )
    return BuiltScenario(
        name="mega-farm",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "utilization": utilization,
            "xeon_servers": xeon_servers,
            "atom_servers": atom_servers,
            "atom_frequency_ceiling": atom_frequency_ceiling,
            "epoch_minutes": epoch_minutes,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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


def _autoscale_server(
    name: str,
    power_model: ServerPowerModel,
    *,
    epoch_minutes: float = 1.0,
) -> ServerSpec:
    """A shallow-sleep race-to-halt server for the autoscale scenarios."""
    config = RuntimeConfig(
        epoch_minutes=epoch_minutes, rho_b=_RHO_B, over_provisioning=0.35
    )
    return ServerSpec(
        name=name,
        power_model=power_model,
        strategy_factory=RaceToHaltStrategyFactory(power_model=power_model),
        predictor_factory=LmsCusumPredictorFactory(history=10),
        config=config,
    )


def _autoscale_farm_and_controller(
    servers: int,
    spec: WorkloadSpec,
    *,
    policy: str,
    setup_latency_s: float,
    min_awake: float,
    epoch_minutes: float = 1.0,
) -> ServerFarm:
    """A homogeneous shallow-sleep Xeon farm with an embedded controller."""
    if policy not in CONTROLLER_POLICIES:
        raise ScenarioError(
            f"policy must be one of {', '.join(CONTROLLER_POLICIES)}, "
            f"got {policy!r}"
        )
    if setup_latency_s < 0:
        raise ScenarioError(
            f"setup_latency_s must be >= 0, got {setup_latency_s}"
        )
    if min_awake != int(min_awake) or not 1 <= int(min_awake) <= servers:
        raise ScenarioError(
            f"min_awake must be a whole number in [1, {servers}], "
            f"got {min_awake}"
        )
    power_model = xeon_power_model()
    specs = tuple(
        _autoscale_server(
            f"xeon-{index}", power_model, epoch_minutes=epoch_minutes
        )
        for index in range(servers)
    )
    controller = FarmController(
        policy=policy,
        setup=SetupModel(latency_s=setup_latency_s),
        min_awake=int(min_awake),
        epoch_minutes=epoch_minutes,
    )
    return ServerFarm(
        servers=specs,
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
        ScenarioParameter("duration_minutes", 40, "length of the run; one full day/night cycle is compressed into it"),
        ScenarioParameter("trough_utilization", 0.06, "night-time offered load (relative to one server)"),
        ScenarioParameter("peak_utilization", 0.85, "mid-day offered load (relative to one server)"),
        ScenarioParameter("servers", 4, "fleet size (provisioned for redundancy, not for mean load)"),
        ScenarioParameter("policy", "reactive", "right-sizing policy: always-on, reactive or predictive"),
        ScenarioParameter("setup_latency_s", 30.0, "seconds a woken server needs before it can serve"),
        ScenarioParameter("min_awake", 1, "servers the controller must keep serviceable at all times"),
        ScenarioParameter("workload", "dns", "Table 5 workload class: dns, google or mail"),
    ),
)
def build_autoscale_diurnal(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    trough_utilization: float,
    peak_utilization: float,
    servers: int,
    policy: str,
    setup_latency_s: float,
    min_awake: int,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    spec = workload_by_name(workload)
    values = _diurnal_values(num_samples, trough_utilization, peak_utilization)
    trace = UtilizationTrace(values, interval=minutes(1), name="autoscale-diurnal")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs
    farm = _autoscale_farm_and_controller(
        servers,
        spec,
        policy=policy,
        setup_latency_s=setup_latency_s,
        min_awake=min_awake,
    )
    return BuiltScenario(
        name="autoscale-diurnal",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "trough_utilization": trough_utilization,
            "peak_utilization": peak_utilization,
            "servers": servers,
            "policy": policy,
            "setup_latency_s": setup_latency_s,
            "min_awake": int(min_awake),
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


@scenario(
    name="autoscale-surge",
    description=(
        "Farm-level right-sizing under a load step: a quiet baseline, a "
        "sudden sustained surge through the middle third of the run, then "
        "quiet again — the controller must scale up through the surge "
        "(absorbing the setup latency) and park back down afterwards."
    ),
    parameters=(
        ScenarioParameter("duration_minutes", 30, "length of the run; the surge occupies the middle third"),
        ScenarioParameter("base_utilization", 0.08, "offered load outside the surge (relative to one server)"),
        ScenarioParameter("surge_utilization", 0.85, "offered load during the surge (relative to one server)"),
        ScenarioParameter("servers", 4, "fleet size (provisioned for the surge, idle in the baseline)"),
        ScenarioParameter("policy", "reactive", "right-sizing policy: always-on, reactive or predictive"),
        ScenarioParameter("setup_latency_s", 30.0, "seconds a woken server needs before it can serve"),
        ScenarioParameter("min_awake", 1, "servers the controller must keep serviceable at all times"),
        ScenarioParameter("workload", "dns", "Table 5 workload class: dns, google or mail"),
    ),
)
def build_autoscale_surge(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    base_utilization: float,
    surge_utilization: float,
    servers: int,
    policy: str,
    setup_latency_s: float,
    min_awake: int,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    if not 0.0 < base_utilization <= surge_utilization <= 0.95:
        raise ScenarioError(
            "need 0 < base_utilization <= surge_utilization <= 0.95, got "
            f"[{base_utilization}, {surge_utilization}]"
        )
    spec = workload_by_name(workload)
    values = np.full(num_samples, base_utilization)
    values[num_samples // 3 : max(2 * num_samples // 3, num_samples // 3 + 1)] = (
        surge_utilization
    )
    trace = UtilizationTrace(values, interval=minutes(1), name="autoscale-surge")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs
    farm = _autoscale_farm_and_controller(
        servers,
        spec,
        policy=policy,
        setup_latency_s=setup_latency_s,
        min_awake=min_awake,
    )
    return BuiltScenario(
        name="autoscale-surge",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "base_utilization": base_utilization,
            "surge_utilization": surge_utilization,
            "servers": servers,
            "policy": policy,
            "setup_latency_s": setup_latency_s,
            "min_awake": int(min_awake),
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("duration_minutes", 30, "length of the run"),
        ScenarioParameter("victim_utilization", 0.15, "victim tenant's steady offered load (relative to one server)"),
        ScenarioParameter("crowd_utilization", 0.9, "crowd tenant's offered load during its burst window"),
        ScenarioParameter("crowd_base_utilization", 0.05, "crowd tenant's offered load outside the burst window"),
        ScenarioParameter("crowd_start_minute", 10, "minute at which the crowd arrives"),
        ScenarioParameter("crowd_minutes", 20, "how long the crowd persists (default: to the end of the run)"),
        ScenarioParameter("servers", 2, "number of identical Xeon servers (>= 2, one per tenant)"),
        ScenarioParameter("dispatcher", TENANT_DISPATCH_PRIORITY, "tenant dispatch kind: least-loaded, priority or weighted-fair"),
        ScenarioParameter("workload", "google", "Table 5 workload class both tenants draw jobs from"),
    ),
)
def build_noisy_neighbor(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    victim_utilization: float,
    crowd_utilization: float,
    crowd_base_utilization: float,
    crowd_start_minute: float,
    crowd_minutes: float,
    servers: int,
    dispatcher: str,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    dispatcher = _check_dispatcher(dispatcher)
    if servers < 2:
        raise ScenarioError(
            f"noisy-neighbor needs at least 2 servers (one per tenant), got {servers}"
        )
    for label, value in (
        ("victim_utilization", victim_utilization),
        ("crowd_utilization", crowd_utilization),
        ("crowd_base_utilization", crowd_base_utilization),
    ):
        if not 0.0 < value <= 0.95:
            raise ScenarioError(f"{label} must lie in (0, 0.95], got {value}")
    start = int(round(crowd_start_minute))
    length = int(round(crowd_minutes))
    if start < 0 or length < 1:
        raise ScenarioError(
            f"crowd window [{start}, {start + length}) is invalid"
        )
    # Clip the window to the run so shrunken smoke runs keep their burst.
    start = min(start, max(0, num_samples - length))
    spec = workload_by_name(workload)
    crowd_values = np.full(num_samples, crowd_base_utilization)
    crowd_values[start : min(start + length, num_samples)] = crowd_utilization
    victim_values = np.full(num_samples, victim_utilization)
    jobs = _labelled_tenant_jobs(
        spec, [crowd_values, victim_values], seed=seed, name="noisy-neighbor"
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
    farm = _tenant_farm(
        servers, spec, farm_qos, dispatcher, seed=seed, backend=backend, search=search
    )
    return BuiltScenario(
        name="noisy-neighbor",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "victim_utilization": victim_utilization,
            "crowd_utilization": crowd_utilization,
            "crowd_base_utilization": crowd_base_utilization,
            "crowd_start_minute": start,
            "crowd_minutes": length,
            "servers": servers,
            "dispatcher": dispatcher,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("duration_minutes", 30, "length of the run; the surge occupies the middle third"),
        ScenarioParameter("steady_utilization", 0.2, "steady tenant's constant offered load"),
        ScenarioParameter("surge_base_utilization", 0.1, "surging tenant's offered load outside the surge"),
        ScenarioParameter("surge_utilization", 0.85, "surging tenant's offered load during the surge"),
        ScenarioParameter("surge_weight", 2.0, "surging tenant's capacity weight (steady tenant has weight 1)"),
        ScenarioParameter("servers", 3, "number of identical Xeon servers (>= 2, one per tenant)"),
        ScenarioParameter("dispatcher", TENANT_DISPATCH_WEIGHTED_FAIR, "tenant dispatch kind: least-loaded, priority or weighted-fair"),
        ScenarioParameter("workload", "google", "Table 5 workload class both tenants draw jobs from"),
    ),
)
def build_tenant_surge(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    steady_utilization: float,
    surge_base_utilization: float,
    surge_utilization: float,
    surge_weight: float,
    servers: int,
    dispatcher: str,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    dispatcher = _check_dispatcher(dispatcher)
    if servers < 2:
        raise ScenarioError(
            f"tenant-surge needs at least 2 servers (one per tenant), got {servers}"
        )
    if not 0.0 < surge_base_utilization <= surge_utilization <= 0.95:
        raise ScenarioError(
            "need 0 < surge_base_utilization <= surge_utilization <= 0.95, got "
            f"[{surge_base_utilization}, {surge_utilization}]"
        )
    if not 0.0 < steady_utilization <= 0.95:
        raise ScenarioError(
            f"steady_utilization must lie in (0, 0.95], got {steady_utilization}"
        )
    if not surge_weight > 0:
        raise ScenarioError(
            f"surge_weight must be positive, got {surge_weight}"
        )
    spec = workload_by_name(workload)
    steady_values = np.full(num_samples, steady_utilization)
    surge_values = np.full(num_samples, surge_base_utilization)
    surge_values[
        num_samples // 3 : max(2 * num_samples // 3, num_samples // 3 + 1)
    ] = surge_utilization
    jobs = _labelled_tenant_jobs(
        spec, [steady_values, surge_values], seed=seed, name="tenant-surge"
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
            weight=surge_weight,
        ),
    )
    farm = _tenant_farm(
        servers, spec, farm_qos, dispatcher, seed=seed, backend=backend, search=search
    )
    return BuiltScenario(
        name="tenant-surge",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "steady_utilization": steady_utilization,
            "surge_base_utilization": surge_base_utilization,
            "surge_utilization": surge_utilization,
            "surge_weight": surge_weight,
            "servers": servers,
            "dispatcher": dispatcher,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )


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
        ScenarioParameter("duration_minutes", 24, "length of the run"),
        ScenarioParameter("interactive_utilization", 0.15, "interactive tenant's steady offered load"),
        ScenarioParameter("batch_on_utilization", 0.9, "batch tenant's offered load in its on-phases"),
        ScenarioParameter("batch_off_utilization", 0.05, "batch tenant's offered load in its off-phases"),
        ScenarioParameter("phase_minutes", 6, "length of each batch on/off phase"),
        ScenarioParameter("servers", 2, "number of identical Xeon servers (>= 2, one per tenant)"),
        ScenarioParameter("dispatcher", TENANT_DISPATCH_PRIORITY, "tenant dispatch kind: least-loaded, priority or weighted-fair"),
        ScenarioParameter("workload", "google", "Table 5 workload class both tenants draw jobs from"),
    ),
)
def build_priority_inversion(
    *,
    seed: int,
    backend: str,
    search: str,
    duration_minutes: float,
    interactive_utilization: float,
    batch_on_utilization: float,
    batch_off_utilization: float,
    phase_minutes: float,
    servers: int,
    dispatcher: str,
    workload: str,
) -> BuiltScenario:
    num_samples = _check_duration(duration_minutes)
    servers = _check_servers(servers)
    dispatcher = _check_dispatcher(dispatcher)
    if servers < 2:
        raise ScenarioError(
            "priority-inversion needs at least 2 servers (one per tenant), "
            f"got {servers}"
        )
    for label, value in (
        ("interactive_utilization", interactive_utilization),
        ("batch_on_utilization", batch_on_utilization),
        ("batch_off_utilization", batch_off_utilization),
    ):
        if not 0.0 < value <= 0.95:
            raise ScenarioError(f"{label} must lie in (0, 0.95], got {value}")
    phase = int(round(phase_minutes))
    if phase < 1:
        raise ScenarioError(
            f"phase_minutes must be at least 1, got {phase_minutes}"
        )
    spec = workload_by_name(workload)
    minute = np.arange(num_samples)
    batch_values = np.where(
        (minute // phase) % 2 == 1, batch_on_utilization, batch_off_utilization
    ).astype(float)
    interactive_values = np.full(num_samples, interactive_utilization)
    jobs = _labelled_tenant_jobs(
        spec,
        [batch_values, interactive_values],
        seed=seed,
        name="priority-inversion",
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
    farm = _tenant_farm(
        servers, spec, farm_qos, dispatcher, seed=seed, backend=backend, search=search
    )
    return BuiltScenario(
        name="priority-inversion",
        spec=spec,
        jobs=jobs,
        farm=farm,
        parameters={
            "duration_minutes": num_samples,
            "interactive_utilization": interactive_utilization,
            "batch_on_utilization": batch_on_utilization,
            "batch_off_utilization": batch_off_utilization,
            "phase_minutes": phase,
            "servers": servers,
            "dispatcher": dispatcher,
            "workload": workload,
        },
        backend=backend,
        seed=seed,
        search=search,
    )
