"""Experiment and campaign registries, and the command-line entry point.

``python -m repro.experiments <name> [<name> ...] [--full] [--seed N]`` runs
one or more experiments, one after another, and prints their result tables;
``--list`` shows every registered experiment, and ``--output FILE`` also
writes the results as a schema-versioned JSON report
(:mod:`repro.experiments.report`; ``--output -`` puts the report alone on
stdout and the tables on stderr).  Runs that should use several cores go
through ``run-campaign --workers N`` instead.  The same registry is what the
benchmark harness iterates over, so the CLI and the benchmarks can never
diverge on what an experiment means.

Four subcommands expose the scenario library
(:mod:`repro.experiments.scenario_runner`) and the campaign engine
(:mod:`repro.campaigns` via :mod:`repro.experiments.campaign_runner`):

* ``python -m repro.experiments list-scenarios`` — every registered scenario
  with its one-line description;
* ``python -m repro.experiments run-scenario <name> [--seed N] [--backend B]
  [--set key=value ...]`` — run one scenario end-to-end and print its JSON
  report;
* ``python -m repro.experiments list-campaigns`` — every registered
  campaign with its cell count and axes;
* ``python -m repro.experiments run-campaign <name|spec.json> [--resume]
  [--executor E] [--workers N] [--output-dir DIR]`` — run (or resume) a
  declared campaign into an on-disk store.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable, Mapping
from typing import Any

from repro.campaigns.spec import CampaignSpec
from repro.exceptions import ExperimentError, ReproError
from repro.experiments import (
    ablations,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table2,
    table5,
)
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    check_output_file,
    format_result,
    write_output_file,
)
from repro.experiments.report import experiment_report

#: Registry of experiment name -> run callable.  The ``ablation-*`` entries
#: are this reproduction's extension studies (see DESIGN.md and
#: EXPERIMENTS.md); the ``table*``/``figure*`` entries map one-to-one onto
#: the paper's evaluation section.
EXPERIMENTS: Mapping[str, Callable[..., ExperimentResult]] = {
    "table2": table2.run,
    "table5": table5.run,
    "figure1": figure1.run,
    "figure2": figure2.run,
    "figure3": figure3.run,
    "figure4": figure4.run,
    "figure5": figure5.run,
    "figure6": figure6.run,
    "figure7": figure7.run,
    "figure8": figure8.run,
    "figure9": figure9.run,
    "figure10": figure10.run,
    "ablation-throttle-back": ablations.run_throttle_back,
    "ablation-over-provisioning": ablations.run_over_provisioning,
    "ablation-analytic-vs-simulation": ablations.run_analytic_vs_simulation,
    "ablation-atom-platform": ablations.run_atom_platform,
    "ablation-server-farm": ablations.run_server_farm,
}

#: A scenario campaign registered beside the experiment ones: the diurnal
#: farm scenario swept over workloads and right-sizing controllers, showing
#: how campaign axes thread through ``Scenario.build`` overrides and knobs.
SCENARIO_DIURNAL_CAMPAIGN = CampaignSpec(
    name="scenario-diurnal",
    kind="scenario",
    target="diurnal",
    description="Diurnal farm scenario over workloads and farm controllers",
    grid={
        "workload": ("dns", "google"),
        "controller": (None, "reactive"),
    },
    fixed={"duration_minutes": 12},
)

#: Registry of campaign name -> spec, in the experiment registry's order
#: (each figure/table module declares its own decomposition beside its
#: ``run`` function), plus the scenario campaigns.
CAMPAIGNS: Mapping[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        table2.CAMPAIGN,
        table5.CAMPAIGN,
        figure1.CAMPAIGN,
        figure2.CAMPAIGN,
        figure3.CAMPAIGN,
        figure4.CAMPAIGN,
        figure5.CAMPAIGN,
        figure6.CAMPAIGN,
        figure7.CAMPAIGN,
        figure8.CAMPAIGN,
        figure9.CAMPAIGN,
        figure10.CAMPAIGN,
        *ablations.CAMPAIGNS,
        SCENARIO_DIURNAL_CAMPAIGN,
    )
}


def available_experiments() -> list[str]:
    """Names of all registered experiments, in table/figure order."""
    return list(EXPERIMENTS)


def available_campaigns() -> list[str]:
    """Names of all registered campaigns, in registry order."""
    return list(CAMPAIGNS)


def get_campaign(name: str) -> CampaignSpec:
    """Look up one registered campaign by name."""
    try:
        return CAMPAIGNS[name]
    except KeyError as error:
        raise ExperimentError(
            f"unknown campaign {name!r}; available: {', '.join(CAMPAIGNS)}"
        ) from error


def _experiment_runner(name: str) -> Callable[..., ExperimentResult]:
    try:
        return EXPERIMENTS[name]
    except KeyError as error:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        ) from error


def run_experiment(
    name: str, config: ExperimentConfig | None = None, **kwargs: Any
) -> ExperimentResult:
    """Run one registered experiment by name.

    Extra keyword arguments go straight to the experiment's ``run``
    function — this is how campaign cells select their slice of a figure
    (e.g. ``run_experiment("figure1", config, workloads=["dns"])``).
    """
    return _experiment_runner(name)(config or ExperimentConfig(), **kwargs)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.experiments``)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Scenario subcommands dispatch before the experiment parser so the two
    # grammars (experiment lists vs. one scenario + overrides) stay separate.
    if argv and argv[0] == "run-scenario":
        from repro.experiments import scenario_runner

        return scenario_runner.main(argv[1:])
    if argv and argv[0] == "list-scenarios":
        from repro.experiments import scenario_runner

        if len(argv) > 1:
            print(
                f"list-scenarios takes no arguments, got {argv[1:]}",
                file=sys.stderr,
            )
            return 2
        return scenario_runner.list_scenarios_main()
    if argv and argv[0] == "run-campaign":
        from repro.experiments import campaign_runner

        return campaign_runner.main(argv[1:])
    if argv and argv[0] == "list-campaigns":
        from repro.experiments import campaign_runner

        if len(argv) > 1:
            print(
                f"list-campaigns takes no arguments, got {argv[1:]}",
                file=sys.stderr,
            )
            return 2
        return campaign_runner.list_campaigns_main()
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate a table or figure of the SleepScale paper.",
        epilog=(
            "subcommands: 'run-scenario <name> [options]' runs a registered "
            "scenario and prints its JSON report (see 'run-scenario --help'); "
            "'list-scenarios' lists every registered scenario; "
            "'run-campaign <name|spec.json> [options]' runs or resumes a "
            "declared campaign (see 'run-campaign --help'); 'list-campaigns' "
            "lists every registered campaign."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (e.g. figure1 table5); omit with --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at full fidelity (paper-sized job counts and trace windows)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help=(
            "also write the results as a machine-readable JSON report "
            "(schema repro.experiment-report/v1); '-' writes to stdout"
        ),
    )
    arguments = parser.parse_args(argv)

    if arguments.list or not arguments.experiments:
        for name in available_experiments():
            print(name)
        return 0

    # With '--output -' stdout carries the JSON report alone.
    log = sys.stderr if arguments.output == "-" else sys.stdout
    started = time.perf_counter()
    try:
        if arguments.output not in (None, "-"):
            check_output_file(arguments.output)
        config = ExperimentConfig(fast=not arguments.full, seed=arguments.seed)
        # Every name is checked before any experiment runs; a repeated name
        # runs once (experiments are deterministic per config).
        runners = {
            name: _experiment_runner(name)
            for name in dict.fromkeys(arguments.experiments)
        }
        results = {name: run(config) for name, run in runners.items()}
    except ReproError as error:
        # A mistyped experiment name or bad option: one line, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    for result in results.values():
        print(format_result(result), file=log)
        print(file=log)
    if arguments.output is not None:
        report = experiment_report(results, config)
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
        if arguments.output == "-":
            sys.stdout.write(text)
        else:
            try:
                write_output_file(arguments.output, text)
            except ExperimentError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            print(f"wrote report to {arguments.output}")
    print(f"completed in {elapsed:.1f} s (fast={config.fast})", file=log)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
