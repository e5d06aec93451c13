"""CLI for the campaign engine (``python -m repro.experiments run-campaign``).

``run-campaign <name|spec.json>`` resolves a registered campaign (see
``list-campaigns``) or loads a ``spec.json`` file, then runs it into an
on-disk :class:`~repro.campaigns.store.CampaignStore`::

    python -m repro.experiments run-campaign figure1 --output-dir out/figure1
    # interrupted? pick up where it stopped — finished cells are skipped and
    # the final store is byte-identical to an uninterrupted run:
    python -m repro.experiments run-campaign figure1 --output-dir out/figure1 \\
        --resume --executor process --workers 2

Sizing flags (``--seeds``, ``--num-jobs``, ``--frequency-step``, ``--full``)
rewrite the spec before it runs — handy for CI smoke campaigns; note that a
resized spec is a *different* campaign (different cell IDs) and needs its
own output directory.  ``--max-cells N`` stops after N pending cells, which
is the supported way to interrupt a campaign at a cell boundary.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from repro.campaigns.engine import run_campaign
from repro.campaigns.spec import CampaignSpec, describe_spec, load_spec_file
from repro.concurrency import EXECUTORS
from repro.exceptions import ReproError


def _resolve_spec(argument: str) -> CampaignSpec:
    """A registered campaign name, or a path to a ``spec.json`` file."""
    from repro.experiments.runner import CAMPAIGNS, get_campaign

    if argument in CAMPAIGNS:
        return get_campaign(argument)
    if argument.endswith(".json") or Path(argument).exists():
        return load_spec_file(argument)
    return get_campaign(argument)  # raises with the available names


def _apply_overrides(spec: CampaignSpec, arguments: argparse.Namespace) -> CampaignSpec:
    changes: dict[str, Any] = {}
    if arguments.seeds is not None:
        changes["seeds"] = tuple(arguments.seeds)
    if arguments.num_jobs is not None:
        changes["num_jobs"] = arguments.num_jobs
    if arguments.frequency_step is not None:
        changes["frequency_step"] = arguments.frequency_step
    if arguments.full:
        changes["fast"] = False
    return spec.replace(**changes) if changes else spec


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``run-campaign`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments run-campaign",
        description="Run (or resume) a declared campaign into an on-disk store.",
    )
    parser.add_argument(
        "campaign",
        help="registered campaign name (see list-campaigns) or a spec.json path",
    )
    parser.add_argument(
        "--output-dir",
        required=True,
        metavar="DIR",
        help="campaign store directory (one campaign per directory)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells that already have trusted records in the store",
    )
    parser.add_argument(
        "--executor",
        choices=list(EXECUTORS),
        default=None,
        help="cell fan-out executor (results are identical across executors)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the cell fan-out pool",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="run at most N pending cells, then stop at the cell boundary",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="SEED",
        help="replace the spec's seed axis (changes the cell IDs)",
    )
    parser.add_argument(
        "--num-jobs",
        type=int,
        default=None,
        metavar="N",
        help="override jobs per policy evaluation (changes the cell IDs)",
    )
    parser.add_argument(
        "--frequency-step",
        type=float,
        default=None,
        metavar="F",
        help="override the frequency grid step (changes the cell IDs)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at full fidelity instead of the spec's fast mode",
    )
    arguments = parser.parse_args(argv)
    try:
        spec = _apply_overrides(_resolve_spec(arguments.campaign), arguments)
        outcome = run_campaign(
            spec,
            arguments.output_dir,
            resume=arguments.resume,
            executor=arguments.executor,
            max_workers=arguments.workers,
            max_cells=arguments.max_cells,
        )
    except ReproError as error:
        # The same boundary as ``run-scenario``: one line, exit status 2.
        print(f"error: {error}", file=sys.stderr)
        return 2
    total = spec.num_cells
    print(
        f"campaign {spec.name!r}: {len(outcome.executed)} cell(s) executed, "
        f"{len(outcome.skipped)} skipped, {total} total"
    )
    if outcome.completed:
        print(f"complete; merged results at {outcome.results_path}")
    else:
        remaining = total - len(outcome.executed) - len(outcome.skipped)
        print(f"{remaining} cell(s) still pending; rerun with --resume to finish")
    return 0


def list_campaigns_main() -> int:
    """Entry point for the ``list-campaigns`` subcommand."""
    from repro.experiments.runner import CAMPAIGNS

    for spec in CAMPAIGNS.values():
        print(describe_spec(spec))
        if spec.description:
            print(f"    {spec.description}")
    return 0
