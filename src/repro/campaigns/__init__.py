"""Declarative, resumable experiment/scenario campaigns.

A campaign is a declared sweep — target × seeds × cartesian parameter
grid (:class:`CampaignSpec`) — executed cell-by-cell through the shared
executor subsystem (:func:`run_campaign`) into an on-disk store of
schema-versioned, content-addressed records (:class:`CampaignStore`).
Determinism end to end (cell IDs, record bytes, merged CSV) is what makes
campaigns resumable: a restarted campaign skips finished cells and an
interrupted-then-resumed run is byte-identical to an uninterrupted one.

The figure/table reproductions are registered as campaigns beside the
experiment registry — see ``repro.experiments.runner.CAMPAIGNS`` and the
``run-campaign`` / ``list-campaigns`` subcommands of
``python -m repro.experiments``.
"""

from repro.campaigns.engine import (
    CampaignRunResult,
    CellTask,
    campaign_results,
    cell_task,
    execute_cell,
    record_cell,
    run_campaign,
)
from repro.campaigns.spec import (
    CAMPAIGN_KINDS,
    KIND_EXPERIMENT,
    KIND_SCENARIO,
    SPEC_SCHEMA,
    CampaignCell,
    CampaignSpec,
    describe_spec,
    load_spec_file,
    split_scenario_params,
)
from repro.campaigns.store import (
    CELL_SCHEMA,
    CampaignStore,
    make_cell_record,
    validate_cell_record,
)

__all__ = [
    "CAMPAIGN_KINDS",
    "CELL_SCHEMA",
    "KIND_EXPERIMENT",
    "KIND_SCENARIO",
    "SPEC_SCHEMA",
    "CampaignCell",
    "CampaignRunResult",
    "CampaignSpec",
    "CampaignStore",
    "CellTask",
    "campaign_results",
    "cell_task",
    "describe_spec",
    "execute_cell",
    "load_spec_file",
    "make_cell_record",
    "record_cell",
    "run_campaign",
    "split_scenario_params",
    "validate_cell_record",
]
