"""Per-layer tracing from outside the library: spans around each layer's calls.

:class:`Tracer` patches the public functions and methods listed in
:data:`LAYERS` for the duration of one traced pass and restores them
afterwards, so untraced passes run the library exactly as shipped.  Every
patched call is a span.  A layer's *self* time is the duration of its spans
minus the time their child spans (of any layer) cover; its *inclusive* time
sums only the outermost span of that layer, so re-entrant calls
(``SleepScaleRuntime.run`` -> ``RuntimeSession.finish``) are not counted
twice.  Spans are aggregated as they close; only the per-call durations of
the policy search are kept, for its percentiles.  One tracer serves one
pass; :func:`combine` takes the median over passes.

Worker processes of the process executor inherit the patches but their
spans die with them: layer time inside process shards is not visible here,
only the parent's ``executor.map_s`` span around them.  The tracer is not
thread-safe; every benchmark workload runs the parent serially.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

Hook = Callable[["Tracer", tuple, Any], None]


@dataclass(frozen=True)
class Probe:
    """One patch point: ``"module:attr"`` or ``"module:Class.method"``.

    With ``subclasses`` the method is patched on the named class and on every
    (already imported) subclass that defines its own version.  ``hook`` runs
    after each call with ``(tracer, args, result)`` to update counters;
    ``classify`` may rename the span's layer from the tracer's open spans and
    the call's arguments.
    """

    target: str
    hook: Hook | None = None
    subclasses: bool = False
    classify: Callable[[Tracer, tuple], str] | None = None


@dataclass(frozen=True)
class Layer:
    """A layer, named after a repo module, and the calls that form it."""

    metric: str
    probes: tuple[Probe, ...]


def _count(name: str, amount: Callable[[tuple, Any], int] = lambda a, r: 1) -> Hook:
    def hook(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.counts[name] += amount(args, result)

    return hook


def _assign_chunk_hook(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["dispatch.jobs"] += len(args[1])
    tracer.counts["dispatch.calls"] += 1


def _select_hook(tracer: Tracer, args: tuple, result: Any) -> None:
    strategy = args[0]
    tracer.counts["search.selects"] += 1
    tracer.select_seconds.append(tracer.last_duration)
    stats = getattr(strategy, "search_stats", None)
    if stats is not None:
        # Search-engine strategies keep a running counter: take the delta.
        seen = tracer.engine_evaluated.get(id(stats), 0)
        tracer.counts["search.candidates_evaluated"] += stats.candidates_evaluated - seen
        tracer.engine_evaluated[id(stats)] = stats.candidates_evaluated
    elif getattr(strategy, "last_selection", None) is not None:
        # The plain full search evaluates, and returns, the whole table.
        tracer.counts["search.candidates_evaluated"] += len(
            strategy.last_selection.evaluations
        )


def _runtime_layer(tracer: Tracer, args: tuple) -> str:
    # A run over an empty trace is the farm's parked-server accounting; the
    # session calls it makes belong to that accounting too.
    if tracer.is_open("idle.s") or len(args[1]) == 0:
        return "idle.s"
    return "runtime.s"


def _session_layer(tracer: Tracer, args: tuple) -> str:
    return "idle.s" if tracer.is_open("idle.s") else "runtime.s"


#: Every traced layer; README.md says which end-to-end metric each should
#: move, and on which workload.
LAYERS: tuple[Layer, ...] = (
    Layer(
        "workloads.generate_s",
        (Probe("repro.workloads.generator:generate_trace_driven_jobs"),),
    ),
    Layer(
        "scenarios.build_s",
        (Probe("repro.scenarios.base:Scenario.build"),),
    ),
    Layer(
        "dispatch.s",
        (
            Probe("repro.cluster.dispatch:JobDispatcher.validated_assignment"),
            Probe(
                "repro.cluster.dispatch:StreamAssigner.assign_chunk",
                hook=_assign_chunk_hook,
                subclasses=True,
            ),
        ),
    ),
    Layer(
        "controller.plan_s",
        (
            Probe(
                "repro.cluster.controller:FarmController.plan",
                hook=_count("controller.regimes", lambda a, r: len(r.regimes)),
            ),
        ),
    ),
    Layer(
        "controller.assign_s",
        (Probe("repro.cluster.controller:controller_assignment"),),
    ),
    Layer(
        "search.select_s",
        (
            Probe(
                "repro.core.strategies:PowerManagementStrategy.select_policy",
                hook=_select_hook,
                subclasses=True,
            ),
        ),
    ),
    Layer(
        "policies.enumerate_s",
        (
            Probe(
                "repro.policies.space:PolicySpace.candidate_policies",
                hook=_count("policies.enumerate_calls"),
            ),
        ),
    ),
    Layer(
        "power.system_power_s",
        (
            Probe(
                "repro.power.platform:ServerPowerModel.system_power",
                hook=_count("power.system_power_calls"),
            ),
        ),
    ),
    Layer(
        "kernel.solve_s",
        (
            Probe(
                "repro.simulation.kernel:TraceKernel.solve",
                hook=_count("kernel.solve_calls"),
            ),
        ),
    ),
    Layer(
        "kernel.evaluate_s",
        (
            Probe(
                "repro.simulation.kernel:TraceKernel.evaluate",
                hook=_count("kernel.evaluate_calls"),
            ),
        ),
    ),
    Layer(
        "replay.s",
        (
            Probe(
                "repro.simulation.engine:simulate_trace",
                hook=_count("replay.calls"),
            ),
        ),
    ),
    Layer(
        "runtime.s",
        (
            Probe(
                "repro.core.runtime:SleepScaleRuntime.run",
                hook=_count("idle.runs", lambda a, r: int(len(a[1]) == 0)),
                classify=_runtime_layer,
            ),
            Probe("repro.core.runtime:RuntimeSession.feed", classify=_session_layer),
            Probe(
                "repro.core.runtime:RuntimeSession.finish",
                hook=_count("runtime.epochs", lambda a, r: len(r.epochs)),
                classify=_session_layer,
            ),
        ),
    ),
    Layer(
        "prediction.s",
        (
            Probe("repro.prediction.base:UtilizationPredictor.predict"),
            Probe("repro.prediction.base:UtilizationPredictor.observe_many"),
        ),
    ),
    Layer(
        # Filled by the runtime probes on an empty trace (see _runtime_layer).
        "idle.s",
        (),
    ),
    Layer(
        "executor.map_s",
        (
            Probe(
                "repro.concurrency:Executor.map",
                hook=_count("executor.tasks", lambda a, r: len(a[2])),
                subclasses=True,
            ),
        ),
    ),
    Layer(
        "report.s",
        (
            Probe("repro.experiments.scenario_runner:report_from_result"),
            Probe("repro.experiments.scenario_runner:validate_report"),
        ),
    ),
    Layer(
        "campaign.store_s",
        (
            Probe(
                "repro.campaigns.store:CampaignStore.write_cell",
                hook=_count("campaign.cells"),
            ),
            Probe("repro.campaigns.store:CampaignStore.finalise"),
        ),
    ),
)

#: Counters the probes fill, in report order.
COUNTS = (
    "dispatch.jobs",
    "dispatch.calls",
    "controller.regimes",
    "search.selects",
    "search.candidates_evaluated",
    "policies.enumerate_calls",
    "power.system_power_calls",
    "kernel.solve_calls",
    "kernel.evaluate_calls",
    "replay.calls",
    "runtime.epochs",
    "idle.runs",
    "executor.tasks",
    "campaign.cells",
    "search.cache_hits",
    "search.cache_lookups",
)


def inclusive_name(metric: str) -> str:
    """``search.select_s`` -> ``search.select_incl_s``; ``dispatch.s`` -> ``dispatch.incl_s``."""
    return metric[:-1] + "incl_s"


class Tracer:
    """Span aggregation for one or more traced passes (see module docstring)."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.select_seconds: list[float] = []
        self.engine_evaluated: dict[int, int] = {}
        self.last_duration = 0.0
        self._children: list[float] = []
        self._open: defaultdict[str, int] = defaultdict(int)
        self._restore: list[Callable[[], None]] = []

    # -- spans ----------------------------------------------------------------

    def is_open(self, layer: str) -> bool:
        """Whether a span of *layer* encloses the current call."""
        return self._open[layer] > 0

    def _span(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        children = self._children
        children.append(0.0)
        self._open[layer] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            covered = children.pop()
            self._open[layer] -= 1
            self.self_s[layer] += duration - covered
            if not self._open[layer]:
                self.incl_s[layer] += duration
            if children:
                children[-1] += duration
            self.last_duration = duration

    def _wrap(self, fn: Callable, layer: str, probe: Probe) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            name = probe.classify(tracer, args) if probe.classify else layer
            result = tracer._span(name, fn, args, kwargs)
            if probe.hook is not None:
                probe.hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Patch every probe of :data:`LAYERS` (undo with :meth:`uninstall`)."""
        for layer in LAYERS:
            for probe in layer.probes:
                module_name, _, path = probe.target.partition(":")
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, method = path.split(".")
                    self._patch_methods(getattr(module, class_name), method, layer, probe)
                else:
                    self._patch_function(getattr(module, path), layer, probe)

    def _patch_methods(self, cls: type, method: str, layer: Layer, probe: Probe) -> None:
        classes = _subclasses(cls) if probe.subclasses else [cls]
        for owner in classes:
            original = owner.__dict__.get(method)
            if original is None or getattr(original, "__isabstractmethod__", False):
                continue
            setattr(owner, method, self._wrap(original, layer.metric, probe))
            self._restore.append(lambda o=owner, m=method, f=original: setattr(o, m, f))

    def _patch_function(self, original: Callable, layer: Layer, probe: Probe) -> None:
        # Rebind the function in every repro module that imported it by name.
        traced = self._wrap(original, layer.metric, probe)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    self._restore.append(
                        lambda m=module, a=attr, f=original: setattr(m, a, f)
                    )

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._restore:
            self._restore.pop()()

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self/inclusive seconds, counts and ratios of every layer."""
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[layer.metric] = self.self_s[layer.metric]
            metrics[inclusive_name(layer.metric)] = self.incl_s[layer.metric]
        for name in COUNTS:
            metrics[name] = float(self.counts[name])
        selects = self.counts["search.selects"]
        metrics["search.evaluated_per_select"] = (
            self.counts["search.candidates_evaluated"] / selects if selects else 0.0
        )
        lookups = self.counts["search.cache_lookups"]
        metrics["search.cache_hit_ratio"] = (
            self.counts["search.cache_hits"] / lookups if lookups else 0.0
        )
        return metrics


def combine(tracers: list[Tracer]) -> dict[str, float]:
    """Median over traced passes (one tracer each) of every layer metric.

    Counts repeat exactly from pass to pass.  The search percentiles pool
    every pass's per-call durations instead, and ``search.select_samples``
    says how many calls they rest on.
    """
    per_pass = [tracer.layer_metrics() for tracer in tracers]
    metrics = {
        name: statistics.median(values[name] for values in per_pass)
        for name in per_pass[0]
    }
    durations_ms = 1e3 * np.array(
        [seconds for tracer in tracers for seconds in tracer.select_seconds]
    )
    metrics["search.select_samples"] = float(durations_ms.size)
    for name, percentile in (("search.select_p50_ms", 50), ("search.select_p99_ms", 99)):
        metrics[name] = (
            float(np.percentile(durations_ms, percentile)) if durations_ms.size else 0.0
        )
    return metrics


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))
