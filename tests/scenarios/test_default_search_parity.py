"""The default search (``"frontier"``) must match the ``"full"`` oracle on whole farms.

Every runtime surface builds its policy-search strategies with
:data:`repro.core.search.DEFAULT_SEARCH`.  ``tests/core/test_search.py``
fuzzes single selections; this suite pins the same contract end to end: on
every registered scenario a farm built with the default search reports the
same energy, tail latency and budget verdict as one built with
``search="full"``, and every server takes the same decision every epoch.
The scenarios use the strategies' default 0.05 frequency step; the
fine-grid cases below repeat the check at step 0.02, where the finer grid
gives the frontier's floor walk more cells to order and to skip.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from repro.cluster.dispatch import PowerAwareDispatcher
from repro.cluster.farm import ServerFarm, ServerSpec
from repro.core.qos import mean_qos_from_baseline, percentile_qos_from_baseline
from repro.core.runtime import RuntimeConfig, SleepScaleRuntime
from repro.core.search import DEFAULT_SEARCH, SEARCH_FRONTIER, SEARCH_FULL
from repro.core.strategies import sleepscale_strategy
from repro.power.platform import atom_power_model, xeon_power_model
from repro.prediction.lms_cusum import LmsCusumPredictor
from repro.scenarios import available_scenarios, get_scenario
from repro.scenarios.builders import LmsCusumPredictorFactory
from repro.units import minutes
from repro.workloads.generator import generate_trace_driven_jobs
from repro.workloads.spec import dns_workload, google_workload
from repro.workloads.traces import UtilizationTrace
from tests.cluster.test_executor_parity import _tiny_overrides

FINE_STEP = 0.02
RHO_B = 0.8
CONFIG = RuntimeConfig(epoch_minutes=5.0, rho_b=RHO_B, over_provisioning=0.35)


def _epoch_decisions(server) -> list[tuple[str, str, float]]:
    return [
        (epoch.policy_label, epoch.sleep_state, epoch.selected_frequency)
        for epoch in server.epochs
    ]


def _decisions(result) -> list[list[tuple[str, str, float]]]:
    return [
        [] if server is None else _epoch_decisions(server)
        for server in result.per_server
    ]


def _assert_same_outcome(oracle, fast) -> None:
    assert fast.total_energy == oracle.total_energy
    assert fast.response_time_percentile(95.0) == oracle.response_time_percentile(
        95.0
    )
    assert fast.meets_budget == oracle.meets_budget
    assert _decisions(fast) == _decisions(oracle)


def test_default_search_is_frontier():
    assert DEFAULT_SEARCH == SEARCH_FRONTIER == "frontier"


@pytest.mark.parametrize("name", sorted(available_scenarios()))
def test_default_search_matches_full_oracle(name):
    overrides = _tiny_overrides(name)
    default = get_scenario(name).build(seed=4, **overrides)
    oracle = get_scenario(name).build(seed=4, search="full", **overrides)
    assert default.search == "frontier"
    assert oracle.search == "full"
    # perfbench reads this read-only property; the engine is uncached.
    assert default.farm.search_cache is None
    _assert_same_outcome(oracle.run(), default.run())


def test_default_search_on_process_executor_matches_full_oracle():
    overrides = _tiny_overrides("mega-farm")
    oracle = get_scenario("mega-farm").build(seed=4, search="full", **overrides)
    default = get_scenario("mega-farm").build(seed=4, executor="process", **overrides)
    default.farm.max_workers = 2
    _assert_same_outcome(oracle.run(), default.run())


class TestFineGridParity:
    """Whole runs on the 0.02 frequency grid select exactly what ``full`` does."""

    @pytest.mark.parametrize(
        "workload, power_model, qos_kind, seed",
        [
            # The Google-like Xeon server under the mean budget.
            (google_workload, xeon_power_model, "mean", 0),
            # DNS on the Atom preset under the percentile budget: columns
            # with a second, cheaper valley behind a small power bump, where
            # a walk that stops at the bump selects a costlier frequency.
            (
                partial(dns_workload, empirical=False),
                atom_power_model,
                "percentile",
                2,
            ),
        ],
        ids=["google-xeon-mean", "dns-atom-percentile"],
    )
    def test_diurnal_runtime_matches_full_oracle(
        self, workload, power_model, qos_kind, seed
    ):
        # One server over a compressed day/night cycle: 40 five-minute
        # epochs sweep utilisation from 0.04 up to 0.42 and back.
        spec = workload()
        phase = 2.0 * math.pi * np.arange(200) / 200
        values = 0.04 + (0.42 - 0.04) * 0.5 * (1.0 - np.cos(phase))
        trace = UtilizationTrace(values, interval=minutes(1), name="diurnal")
        jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs
        qos = (
            mean_qos_from_baseline(RHO_B)
            if qos_kind == "mean"
            else percentile_qos_from_baseline(RHO_B, spec.mean_service_time)
        )

        def run(search):
            strategy = sleepscale_strategy(
                power_model(),
                qos,
                frequency_step=FINE_STEP,
                characterization_jobs=600,
                seed=seed,
                search=search,
            )
            runtime = SleepScaleRuntime(
                power_model(),
                spec,
                strategy,
                LmsCusumPredictor(history=10),
                CONFIG,
            )
            return runtime.run(jobs)

        oracle, fast = run(SEARCH_FULL), run(SEARCH_FRONTIER)
        assert len(oracle.epochs) == 40
        assert fast.total_energy == oracle.total_energy
        assert _epoch_decisions(fast) == _epoch_decisions(oracle)

    def test_heterogeneous_farm_matches_full_oracle(self):
        # 8 Xeon + 8 Atom servers (Atom capped at f=0.7) behind the
        # power-aware dispatcher under a constant heavy load for 15 minutes.
        spec = google_workload()
        trace = UtilizationTrace(np.full(15, 0.9), interval=minutes(1), name="farm")
        jobs = generate_trace_driven_jobs(spec, trace, seed=1).jobs

        def run(search):
            qos = mean_qos_from_baseline(RHO_B)
            servers = []
            for index, (kind, model, ceiling) in enumerate(
                [("xeon", xeon_power_model(), 1.0)] * 8
                + [("atom", atom_power_model(), 0.7)] * 8
            ):
                servers.append(
                    ServerSpec(
                        name=f"{kind}-{index}",
                        power_model=model,
                        strategy_factory=partial(
                            sleepscale_strategy,
                            model,
                            qos,
                            frequency_step=FINE_STEP,
                            characterization_jobs=600,
                            seed=index,
                            search=search,
                        ),
                        predictor_factory=LmsCusumPredictorFactory(history=10),
                        config=CONFIG,
                        max_frequency=ceiling,
                    )
                )
            farm = ServerFarm(
                servers=tuple(servers),
                spec=spec,
                dispatcher=PowerAwareDispatcher.from_power_models(
                    [server.power_model for server in servers]
                ),
            )
            return farm.run(jobs)

        _assert_same_outcome(run(SEARCH_FULL), run(SEARCH_FRONTIER))

