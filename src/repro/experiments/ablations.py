"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures and quantify the claims it makes in
passing, plus the extensions this reproduction adds:

* **Sequential throttle-back** (engineering lesson 5): entering all five
  low-power states in sequence is "not often efficient" compared with going
  straight to the best single state.
* **Over-provisioning factor** (Section 5.2.3): how the guard band ``alpha``
  trades power for response time.
* **Analytic vs simulation-based policy search** (Section 5.1.2 observation 3
  / future work): what is lost by selecting policies from the idealised
  closed forms instead of simulating the observed workload.
* **Atom vs Xeon platform** (Section 4.2): for a small-core platform whose
  fixed power dominates, running fast and sleeping immediately is close to
  optimal, unlike the Xeon case.
* **Multi-server farm** (conclusion / future work): independent per-server
  SleepScale instances behind a round-robin dispatcher still beat a
  race-to-halt farm on power at the same QoS.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.campaigns.spec import CampaignSpec
from repro.cluster.dispatch import RoundRobinDispatcher
from repro.exceptions import ExperimentError
from repro.cluster.farm import ServerFarm
from repro.core.analytic_manager import analytic_sleepscale_strategy
from repro.core.qos import baseline_normalized_mean_budget, mean_qos_from_baseline
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import race_to_halt_c6, sleepscale_strategy
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.runtime_common import build_scenario, make_predictor, run_strategy
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import C6_S0I, LOW_POWER_STATES
from repro.prediction.lms_cusum import LmsCusumPredictor
from repro.simulation.sweep import sweep_frequencies, sweep_states
from repro.workloads.spec import workload_by_name


def run_throttle_back(
    config: ExperimentConfig | None = None,
    workload: str = "dns",
    utilizations: tuple[float, ...] = (0.1, 0.5),
) -> ExperimentResult:
    """Lesson 5: all-states-in-sequence vs the best single state."""
    config = config or ExperimentConfig()
    power_model = xeon_power_model()
    spec = workload_by_name(workload, empirical=False)
    mean_service = spec.mean_service_time

    def sequential_factory(frequency: float):
        # Enter C0(i)S0(i), C1, C3, C6, C6S3 after progressively longer idle
        # times (multiples of the mean job size).
        delays = [0.0, 1.0, 5.0, 20.0, 100.0]
        return power_model.sleep_sequence(
            list(LOW_POWER_STATES), [d * mean_service for d in delays], frequency
        )

    rows: list[dict[str, object]] = []
    for utilization in utilizations:
        single_curves = sweep_states(
            spec,
            {state.name: state for state in LOW_POWER_STATES},
            power_model,
            utilization=utilization,
            num_jobs=config.sweep_num_jobs,
            frequency_step=config.sweep_frequency_step,
            seed=config.seed,
        )
        best_single_state, best_single = min(
            (
                (name, curve.minimum_power_point())
                for name, curve in single_curves.items()
            ),
            key=lambda item: item[1].average_power,
        )
        sequential_curve = sweep_frequencies(
            spec,
            sequential_factory,
            power_model,
            utilization=utilization,
            num_jobs=config.sweep_num_jobs,
            frequency_step=config.sweep_frequency_step,
            seed=config.seed,
        )
        sequential_best = sequential_curve.minimum_power_point()
        rows.append(
            {
                "utilization": utilization,
                "best_single_state": best_single_state,
                "best_single_power_w": best_single.average_power,
                "sequential_power_w": sequential_best.average_power,
                "sequential_overhead": sequential_best.average_power
                / best_single.average_power
                - 1.0,
            }
        )
    notes = (
        "The sequential throttle-back should never beat the best single "
        "state by a meaningful margin, confirming the paper's lesson 5.",
    )
    return ExperimentResult(
        name="ablation-throttle-back",
        description="Sequential power throttle-back vs best single low-power state",
        rows=tuple(rows),
        notes=notes,
    )


def run_over_provisioning(
    config: ExperimentConfig | None = None,
    workload: str = "dns",
    trace: str = "email-store",
    alphas: tuple[float, ...] = (0.0, 0.15, 0.35, 0.5),
    rho_b: float = 0.8,
) -> ExperimentResult:
    """Section 5.2.3: sweep the over-provisioning guard band ``alpha``."""
    config = config or ExperimentConfig()
    scenario = build_scenario(workload, trace, config)
    qos = mean_qos_from_baseline(rho_b)
    budget = baseline_normalized_mean_budget(rho_b)

    rows: list[dict[str, object]] = []
    for alpha in alphas:
        strategy = sleepscale_strategy(
            scenario.power_model,
            qos,
            characterization_jobs=config.characterization_jobs,
            max_logged_jobs=2_000 if config.fast else 5_000,
            seed=config.seed,
        )
        result = run_strategy(
            scenario,
            strategy,
            make_predictor("LC", scenario),
            rho_b=rho_b,
            over_provisioning=alpha,
        )
        rows.append(
            {
                "alpha": alpha,
                "normalized_mean_response_time": result.normalized_mean_response_time,
                "p95_response_time_s": result.response_time_percentile(95.0),
                "average_power_w": result.average_power,
                "budget": budget,
                "meets_budget": result.meets_budget,
                "mean_applied_frequency": float(
                    np.mean([e.applied_frequency for e in result.epochs])
                ),
            }
        )
    notes = (
        "Response time should fall (and power rise) as alpha grows; the "
        "paper's alpha=0.35 should meet the budget.",
    )
    return ExperimentResult(
        name="ablation-over-provisioning",
        description="Effect of the frequency over-provisioning factor alpha",
        rows=tuple(rows),
        metadata={"budget": budget},
        notes=notes,
    )


def run_analytic_vs_simulation(
    config: ExperimentConfig | None = None,
    workload: str = "dns",
    trace: str = "email-store",
    rho_b: float = 0.8,
) -> ExperimentResult:
    """Future-work variant: closed-form policy search vs Algorithm 1 search."""
    config = config or ExperimentConfig()
    scenario = build_scenario(workload, trace, config)
    qos = mean_qos_from_baseline(rho_b)

    strategies = {
        "SS(simulation)": sleepscale_strategy(
            scenario.power_model,
            qos,
            characterization_jobs=config.characterization_jobs,
            max_logged_jobs=2_000 if config.fast else 5_000,
            seed=config.seed,
        ),
        "SS(analytic)": analytic_sleepscale_strategy(
            scenario.power_model, qos, scenario.spec
        ),
    }
    rows: list[dict[str, object]] = []
    for label, strategy in strategies.items():
        result = run_strategy(
            scenario,
            strategy,
            make_predictor("LC", scenario),
            rho_b=rho_b,
            over_provisioning=0.35,
        )
        rows.append(
            {
                "strategy": label,
                "normalized_mean_response_time": result.normalized_mean_response_time,
                "average_power_w": result.average_power,
                "meets_budget": result.meets_budget,
                "mean_selected_frequency": result.mean_selected_frequency(),
                "states_used": len(result.state_selection_counts()),
            }
        )
    notes = (
        "The analytic search should land close to the simulation-based one "
        "(same states, similar frequency) — the paper's observation that the "
        "idealized model often computes the right state but a slightly "
        "different frequency.",
    )
    return ExperimentResult(
        name="ablation-analytic-vs-simulation",
        description="Closed-form policy selection vs simulation-based selection",
        rows=tuple(rows),
        notes=notes,
    )


#: Platform model factories for the Atom ablation's ``platforms`` selector.
_PLATFORM_MODELS = {"xeon": xeon_power_model, "atom": atom_power_model}


def run_atom_platform(
    config: ExperimentConfig | None = None,
    workload: str = "dns",
    utilization: float = 0.1,
    platforms: Sequence[str] = ("xeon", "atom"),
) -> ExperimentResult:
    """Section 4.2: on an Atom-class platform, running fast and sleeping is near-optimal.

    *platforms* selects which platform models to sweep (``"xeon"``,
    ``"atom"``); each sweep reseeds from the config, so a subset reproduces
    the corresponding rows of the two-platform comparison.
    """
    config = config or ExperimentConfig()
    spec = workload_by_name(workload, empirical=False)

    unknown = sorted(set(platforms) - set(_PLATFORM_MODELS))
    if unknown:
        raise ExperimentError(
            f"unknown platforms {unknown}; available: {', '.join(_PLATFORM_MODELS)}"
        )
    rows: list[dict[str, object]] = []
    for platform_name in platforms:
        power_model = _PLATFORM_MODELS[platform_name]()
        curve = sweep_frequencies(
            spec,
            C6_S0I,
            power_model,
            utilization=utilization,
            num_jobs=config.sweep_num_jobs,
            frequency_step=config.sweep_frequency_step,
            seed=config.seed,
        )
        optimum = curve.minimum_power_point()
        race = curve.race_to_halt_point()
        rows.append(
            {
                "platform": platform_name,
                "optimal_frequency": optimum.frequency,
                "optimal_power_w": optimum.average_power,
                "race_to_halt_power_w": race.average_power,
                "race_to_halt_overhead": race.average_power / optimum.average_power - 1.0,
            }
        )
    notes = (
        "For the Atom platform the race-to-halt penalty should be much "
        "smaller than for Xeon (its CPU dynamic power is tiny relative to "
        "the platform floor), reproducing the paper's Atom observation.",
    )
    return ExperimentResult(
        name="ablation-atom-platform",
        description="Xeon vs Atom: how much does slowing down actually save?",
        rows=tuple(rows),
        metadata={"utilization": utilization},
        notes=notes,
    )


@dataclass(frozen=True)
class _FarmSleepScaleFactory:
    """Picklable per-server SleepScale factory for the farm ablation.

    Module-level (not a closure) so the ablation farm stays correct under
    ``executor="process"`` — the shard tasks pickle their factories.
    """

    power_model: object
    qos: object
    characterization_jobs: int
    max_logged_jobs: int
    seed: int

    def __call__(self, server_index: int):
        return sleepscale_strategy(
            self.power_model,
            self.qos,
            characterization_jobs=self.characterization_jobs,
            max_logged_jobs=self.max_logged_jobs,
            seed=self.seed + server_index,
        )


@dataclass(frozen=True)
class _FarmRaceToHaltFactory:
    """Picklable per-server race-to-halt factory for the farm ablation."""

    power_model: object

    def __call__(self, server_index: int):
        return race_to_halt_c6(self.power_model)


@dataclass(frozen=True)
class _FarmPredictorFactory:
    """Picklable per-server LMS+CUSUM predictor factory."""

    history: int = 10

    def __call__(self, server_index: int) -> LmsCusumPredictor:
        return LmsCusumPredictor(history=self.history)


def run_server_farm(
    config: ExperimentConfig | None = None,
    workload: str = "dns",
    trace: str = "email-store",
    num_servers: int = 3,
    rho_b: float = 0.8,
) -> ExperimentResult:
    """Scale-out: a farm of independent SleepScale servers vs a race-to-halt farm."""
    config = config or ExperimentConfig()
    scenario = build_scenario(
        workload, trace, config, hours=1.5 if config.fast else None
    )
    # The single-server stream is replicated at farm scale by *not* thinning
    # it: each server sees 1/num_servers of the arrivals, i.e. a realistic
    # per-server load once the farm is sized for the same trace.
    qos = mean_qos_from_baseline(rho_b)
    runtime_config = RuntimeConfig(
        epoch_minutes=5.0, rho_b=rho_b, over_provisioning=0.35
    )

    sleepscale_factory = _FarmSleepScaleFactory(
        power_model=scenario.power_model,
        qos=qos,
        characterization_jobs=config.characterization_jobs,
        max_logged_jobs=2_000 if config.fast else 5_000,
        seed=config.seed,
    )
    race_factory = _FarmRaceToHaltFactory(scenario.power_model)

    rows: list[dict[str, object]] = []
    for label, factory in (("SleepScale farm", sleepscale_factory), ("R2H(C6) farm", race_factory)):
        cluster = ServerFarm.homogeneous(
            num_servers,
            scenario.power_model,
            scenario.spec,
            factory,
            _FarmPredictorFactory(history=10),
            config=runtime_config,
            dispatcher=RoundRobinDispatcher(),
        )
        farm = cluster.run(scenario.workload.jobs)
        rows.append(
            {
                "farm": label,
                "servers": num_servers,
                "normalized_mean_response_time": farm.normalized_mean_response_time,
                "meets_budget": farm.meets_budget,
                "total_average_power_w": farm.total_average_power,
                "average_power_per_server_w": farm.average_power_per_server,
            }
        )
    notes = (
        "Both farms should meet the budget; the SleepScale farm should draw "
        "less total power because each server slows down and sleeps according "
        "to its own (lower) per-server load.",
    )
    return ExperimentResult(
        name="ablation-server-farm",
        description=f"{num_servers}-server farm: independent SleepScale vs race-to-halt",
        rows=tuple(rows),
        metadata={"num_servers": num_servers},
        notes=notes,
    )


#: The five ablations as campaigns.  Axes follow the same decomposition
#: rule as the figure campaigns: an axis exists only where the loop
#: iteration reseeds independently, so cells concatenate to the direct run.
CAMPAIGNS = (
    CampaignSpec(
        name="ablation-throttle-back",
        kind="experiment",
        target="ablation-throttle-back",
        description="Sequential throttle-back ablation, one cell per utilisation",
        grid={"utilizations": ((0.1,), (0.5,))},
    ),
    CampaignSpec(
        name="ablation-over-provisioning",
        kind="experiment",
        target="ablation-over-provisioning",
        description="Over-provisioning sweep, one cell per alpha",
        grid={"alphas": ((0.0,), (0.15,), (0.35,), (0.5,))},
    ),
    CampaignSpec(
        name="ablation-analytic-vs-simulation",
        kind="experiment",
        target="ablation-analytic-vs-simulation",
        description="Analytic vs simulation policy search (single cell)",
    ),
    CampaignSpec(
        name="ablation-atom-platform",
        kind="experiment",
        target="ablation-atom-platform",
        description="Xeon vs Atom platform ablation, one cell per platform",
        grid={"platforms": (("xeon",), ("atom",))},
    ),
    CampaignSpec(
        name="ablation-server-farm",
        kind="experiment",
        target="ablation-server-farm",
        description="Server-farm ablation (single cell)",
    ),
)
