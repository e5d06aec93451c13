"""The default search (``"frontier"``) must match the ``"full"`` oracle on whole farms.

Every runtime surface builds its policy-search strategies with
:data:`repro.core.search.DEFAULT_SEARCH`.  ``tests/core/test_search.py``
fuzzes single selections; this suite pins the same contract end to end: on
every registered scenario a farm built with the default search reports the
same energy, tail latency and budget verdict as one built with
``search="full"``, and every server takes the same decision every epoch.
"""

from __future__ import annotations

import pytest

from repro.core.search import DEFAULT_SEARCH, SEARCH_FRONTIER
from repro.scenarios import available_scenarios, get_scenario
from tests.cluster.test_executor_parity import _tiny_overrides


def _decisions(result) -> list[list[tuple[str, str, float]]]:
    return [
        []
        if server is None
        else [
            (epoch.policy_label, epoch.sleep_state, epoch.selected_frequency)
            for epoch in server.epochs
        ]
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
    # Scenarios attach no farm-shared characterisation cache.
    assert default.farm.search_cache is None
    _assert_same_outcome(oracle.run(), default.run())


def test_default_search_on_process_executor_matches_full_oracle():
    overrides = _tiny_overrides("mega-farm")
    oracle = get_scenario("mega-farm").build(seed=4, search="full", **overrides)
    default = get_scenario("mega-farm").build(seed=4, executor="process", **overrides)
    default.farm.max_workers = 2
    _assert_same_outcome(oracle.run(), default.run())
