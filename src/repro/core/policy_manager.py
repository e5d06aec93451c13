"""The SleepScale policy manager (Section 5.1).

The policy manager is the heart of SleepScale: given a statistical
description of the current workload — either a log of recently observed jobs
or a workload spec plus a predicted utilisation — it *characterises* every
candidate policy by simulating the queueing process (Algorithm 1) and then
*selects* the policy that minimises average power while meeting the QoS
constraint derived from the baseline system.

Two levels of API are provided:

* :meth:`PolicyManager.characterize` — run every candidate policy against a
  job trace and return the full table of evaluations (power, mean and
  percentile response times, feasibility);
* :meth:`PolicyManager.select` / :meth:`PolicyManager.select_for_spec` —
  return only the winning policy, falling back to the least-infeasible
  candidate when nothing meets the budget (the realistic behaviour of an
  overloaded server: do the best you can).

Characterisation is *batched* by default: all candidates are evaluated
through one shared :class:`~repro.simulation.kernel.TraceKernel`, which
reuses the trace's arrival/demand arrays and the per-frequency busy-period
structure across every sleep state at that frequency
(:meth:`PolicyManager.characterize_batch`).  Construct the manager with
``backend="reference"`` to fall back to the per-job simulation loop.

Why batching is cheap (the Lindley/busy-period sketch, in full in
:mod:`repro.simulation.kernel` and ``docs/ARCHITECTURE.md``): at a fixed
frequency, ignoring wake-up latencies, job departures obey the Lindley
recursion ``D0[i] = C[i] + max accumulate(A[j] - C[j-1])`` — one cumulative
sum plus one running maximum over the whole trace.  Wake-up latencies only
perturb departures around the *idle gaps* of that no-wake solution, so the
expensive per-job structure depends only on ``(trace, frequency)`` and is
shared across every sleep sequence at that frequency; each candidate policy
then costs only the (short) gap-resolution and energy-accounting passes.
The candidate space is a (frequency x sleep-state) grid, which is exactly
the reuse pattern the kernel memoises.

In a farm, every server owns its own manager (constructed by its strategy),
so heterogeneous fleets — different platforms, QoS budgets or candidate
spaces per server — need no coordination; see
:class:`repro.cluster.farm.ServerFarm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.exceptions import PolicySelectionError
from repro.core.qos import QosConstraint
from repro.policies.policy import Policy
from repro.policies.space import PolicySpace
from repro.power.platform import ServerPowerModel
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import (
    BACKEND_VECTORIZED,
    TraceKernel,
    validate_backend,
)
from repro.simulation.metrics import SimulationResult
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.workloads.generator import generate_jobs, make_rng
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (search imports us)
    from repro.core.search import SearchStats


@dataclass(frozen=True)
class PolicyEvaluation:
    """One row of the policy characterisation table."""

    policy: Policy
    average_power: float
    mean_response_time: float
    normalized_mean_response_time: float
    p95_response_time: float
    meets_qos: bool
    qos_slack: float

    @property
    def frequency(self) -> float:
        """The evaluated policy's DVFS setting."""
        return self.policy.frequency

    @property
    def sleep_state(self) -> str:
        """The evaluated policy's sleep-sequence name."""
        return self.policy.sleep_state_name


@dataclass(frozen=True)
class PolicySelection:
    """Outcome of one policy-selection round."""

    best: PolicyEvaluation
    evaluations: tuple[PolicyEvaluation, ...]
    feasible: bool

    @property
    def policy(self) -> Policy:
        """The selected policy."""
        return self.best.policy

    def by_state(self) -> dict[str, PolicyEvaluation]:
        """Cheapest feasible evaluation per sleep state (for Figure 6-style plots)."""
        table: dict[str, PolicyEvaluation] = {}
        for evaluation in self.evaluations:
            if not evaluation.meets_qos:
                continue
            current = table.get(evaluation.sleep_state)
            if current is None or evaluation.average_power < current.average_power:
                table[evaluation.sleep_state] = evaluation
        return table


def evaluation_from_result(
    policy: Policy, result: SimulationResult, qos: QosConstraint
) -> PolicyEvaluation:
    """One characterisation-table row for *policy* evaluated as *result*.

    Module-level so the policy manager and the search engine
    (:mod:`repro.core.search`) build byte-identical rows.
    """
    return PolicyEvaluation(
        policy=policy,
        average_power=result.average_power,
        mean_response_time=result.mean_response_time,
        normalized_mean_response_time=result.normalized_mean_response_time,
        p95_response_time=result.response_time_percentile(95.0),
        meets_qos=qos.is_met(result),
        qos_slack=qos.slack(result),
    )


#: With nothing feasible, a row whose slack is within this fraction of the
#: largest slack competes on power with the largest-slack row.
NEAR_BEST_SLACK = 0.02


def pick_index(rows: Sequence[tuple[float, bool, float]]) -> tuple[int, bool]:
    """The oracle's pick among ``(average power, meets QoS, slack)`` rows.

    Returns the chosen row's index and whether it meets the budget; the rule
    is :func:`pick_selection`'s, which the search engine also applies to its
    own probes.
    """
    indices = range(len(rows))
    feasible = [index for index in indices if rows[index][1]]
    if feasible:
        return min(feasible, key=lambda index: rows[index][0]), True
    finite_slacks = [row[2] for row in rows if not math.isnan(row[2])]
    if finite_slacks:
        best_slack = max(finite_slacks)
        tolerance = NEAR_BEST_SLACK * abs(best_slack)
        # NaN rows fail this comparison and are dropped from contention.
        near_best = [
            index for index in indices if rows[index][2] >= best_slack - tolerance
        ]
    else:
        near_best = list(indices)
    return min(near_best, key=lambda index: rows[index][0]), False


def pick_selection(evaluations: Sequence[PolicyEvaluation]) -> PolicySelection:
    """Select from a full characterisation table (the full-grid oracle).

    Feasible candidates compete on average power (first minimum wins, i.e.
    enumeration order breaks exact ties).  When nothing meets the budget the
    server runs as close to it as possible: the largest *finite* slack wins,
    with near-ties (within 2%) resolved towards cheaper power.  Rows whose
    slack is NaN — e.g. a zero-job characterisation where per-job statistics
    are undefined — are excluded from the slack ranking entirely; a plain
    ``max`` would let a NaN first element win every comparison and poison
    the fallback into picking an arbitrary cheapest-power row even when
    finite-slack candidates exist.  Only when *every* slack is NaN does the
    selection degrade to cheapest power over the whole table.
    """
    if not evaluations:
        raise PolicySelectionError("no candidate policy could be evaluated")
    index, feasible = pick_index(
        [(e.average_power, e.meets_qos, e.qos_slack) for e in evaluations]
    )
    return PolicySelection(
        best=evaluations[index], evaluations=tuple(evaluations), feasible=feasible
    )


class PolicyManager:
    """Characterises candidate policies by simulation and selects the best one.

    Parameters
    ----------
    power_model:
        The server being managed.
    policy_space:
        The candidate (frequency, sleep-state) combinations to search.
    qos:
        The constraint the selected policy must satisfy.
    scaling:
        Service-time/frequency dependence of the workload (CPU-bound by
        default).
    characterization_jobs:
        Number of jobs simulated per candidate when the characterisation has
        to synthesise its own job stream (the paper uses 10,000 for the
        offline studies; the runtime uses the logged jobs of recent epochs,
        which are typically far fewer).
    seed:
        Seed for the job-stream generator used by
        :meth:`select_for_spec`/:meth:`characterize_spec`.
    backend:
        Simulation backend used for characterisation: ``"vectorized"``
        (default, batched through a shared :class:`TraceKernel`) or
        ``"reference"`` (the per-job loop).
    search:
        Policy-search mode: ``"full"`` (default) walks the whole candidate
        grid; ``"frontier"`` routes :meth:`select` through the
        :class:`~repro.core.search.PolicySearchEngine`, which bisects the
        frequency axis per sleep state for the feasibility boundary, skips
        cells on proven power floors and falls back to the full grid
        whenever its slack certificate fails — the selected policy is
        identical to the full search.
    """

    def __init__(
        self,
        power_model: ServerPowerModel,
        policy_space: PolicySpace,
        qos: QosConstraint,
        scaling: ServiceScaling | None = None,
        characterization_jobs: int = 5_000,
        seed: int | None = 0,
        backend: str = BACKEND_VECTORIZED,
        # Offline characteriser: select().evaluations/by_state() need the table.
        search: str = "full",
    ):
        self._power_model = power_model
        self._space = policy_space
        self._qos = qos
        self._scaling = scaling or cpu_bound()
        self._characterization_jobs = int(characterization_jobs)
        self._rng = make_rng(seed)
        self._backend = validate_backend(backend)
        # Deferred: repro.core.search imports this module.
        from repro.core.search import (
            SEARCH_FRONTIER,
            PolicySearchEngine,
            validate_search,
        )

        self._search = validate_search(search)
        self._engine = (
            PolicySearchEngine(
                power_model=self._power_model,
                policy_space=self._space,
                qos=self._qos,
                scaling=self._scaling,
                backend=self._backend,
            )
            if self._search == SEARCH_FRONTIER
            else None
        )

    # -- accessors -----------------------------------------------------------------

    @property
    def qos(self) -> QosConstraint:
        """The constraint in force."""
        return self._qos

    @property
    def policy_space(self) -> PolicySpace:
        """The candidate policy space."""
        return self._space

    @property
    def search(self) -> str:
        """The policy-search mode in force (``"full"`` or ``"frontier"``)."""
        return self._search

    @property
    def search_stats(self) -> "SearchStats | None":
        """Counters of the search engine (``None`` for the plain full search)."""
        return None if self._engine is None else self._engine.stats

    # -- characterisation -------------------------------------------------------------

    def _evaluation_from_result(
        self, policy: Policy, result: SimulationResult
    ) -> PolicyEvaluation:
        return evaluation_from_result(policy, result, self._qos)

    def _evaluate(self, policy: Policy, jobs: JobTrace) -> PolicyEvaluation:
        result = simulate_trace(
            jobs=jobs,
            frequency=policy.frequency,
            sleep=policy.sleep,
            power_model=self._power_model,
            scaling=self._scaling,
            backend=self._backend,
        )
        return self._evaluation_from_result(policy, result)

    def characterize(
        self, jobs: JobTrace, utilization: float
    ) -> tuple[PolicyEvaluation, ...]:
        """Evaluate every candidate policy against the given job trace.

        *utilization* is the (predicted) offered load used to prune unstable
        frequency settings from the candidate space; the evaluation itself
        replays *jobs* under each surviving policy.  With the default
        vectorized backend this delegates to :meth:`characterize_batch`.
        """
        if self._engine is not None:
            return self._engine.characterize(jobs, utilization)
        if self._backend == BACKEND_VECTORIZED:
            return self.characterize_batch(jobs, utilization)
        candidates = self._space.candidate_policies(utilization)
        return tuple(self._evaluate(policy, jobs) for policy in candidates)

    def characterize_batch(
        self, jobs: JobTrace, utilization: float
    ) -> tuple[PolicyEvaluation, ...]:
        """Evaluate every candidate policy through one shared trace kernel.

        The kernel is constructed once for *jobs*: the candidate space is a
        (frequency × sleep-state) grid, so the no-wake busy-period structure
        computed for the first sleep state at a given frequency is reused by
        every other state at that frequency.  This is the per-epoch fast path
        of the policy search.
        """
        candidates = self._space.candidate_policies(utilization)
        kernel = TraceKernel(jobs, self._power_model, scaling=self._scaling)
        return tuple(
            self._evaluation_from_result(
                policy, kernel.evaluate(policy.frequency, policy.sleep)
            )
            for policy in candidates
        )

    def _sample_jobs(
        self, spec: WorkloadSpec, utilization: float, num_jobs: int | None
    ) -> JobTrace:
        """One synthetic characterisation stream from *spec* at *utilization*."""
        return generate_jobs(
            spec,
            num_jobs=num_jobs or self._characterization_jobs,
            utilization=utilization,
            rng=self._rng,
        )

    def characterize_spec(
        self,
        spec: WorkloadSpec,
        utilization: float,
        num_jobs: int | None = None,
    ) -> tuple[PolicyEvaluation, ...]:
        """Characterise using a freshly sampled stream from *spec* at *utilization*."""
        jobs = self._sample_jobs(spec, utilization, num_jobs)
        return self.characterize(jobs, utilization)

    # -- selection ----------------------------------------------------------------------

    def select(self, jobs: JobTrace, utilization: float) -> PolicySelection:
        """Characterise against *jobs* and return the minimum-power feasible policy.

        With ``search="frontier"`` this routes through the search engine;
        the selected policy is identical to the full-grid search either way,
        but frontier selections carry only the winning row in
        ``PolicySelection.evaluations``.
        """
        if self._engine is not None:
            return self._engine.select(jobs, utilization)
        return pick_selection(self.characterize(jobs, utilization))

    def select_for_spec(
        self,
        spec: WorkloadSpec,
        utilization: float,
        num_jobs: int | None = None,
    ) -> PolicySelection:
        """Characterise against a sampled stream from *spec* and select."""
        jobs = self._sample_jobs(spec, utilization, num_jobs)
        return self.select(jobs, utilization)
