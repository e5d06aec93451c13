"""Static analysis for the repo's invariant contracts.

``python -m repro.analysis [paths]`` runs AST-based rules that make the
correctness discipline of this codebase machine-checkable:

========  ===================================================================
REP001    determinism — no unseeded RNG / wall-clock reads in result code
REP002    picklability — no lambdas/local functions across process boundaries
REP003    oracle-parity — every fast-path member has a registered parity test
REP004    float-equality — no ``==``/``!=`` on float simulation quantities
REP006    hygiene — mutable defaults, bare/silent excepts
========  ===================================================================

Findings suppress inline with a mandatory justification::

    risky()  # repro: ignore[REP001] -- report timestamp, not simulated data

See :mod:`repro.analysis.engine` for the framework,
:mod:`repro.analysis.rules` for the per-file rules and
:mod:`repro.analysis.parity` for the oracle-parity registry.
"""

from repro.analysis.engine import (
    AnalysisReport,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    Suppression,
    all_rules,
    analyze_paths,
    iter_python_files,
    register_rule,
    rule_catalog,
)
from repro.analysis.parity import PARITY_REGISTRY, OracleParityRule, ParityContract
from repro.analysis.rules import (
    DeterminismRule,
    FloatEqualityRule,
    HygieneRule,
    PicklabilityRule,
)

__all__ = [
    "PARITY_REGISTRY",
    "AnalysisReport",
    "DeterminismRule",
    "FileContext",
    "Finding",
    "FloatEqualityRule",
    "HygieneRule",
    "OracleParityRule",
    "ParityContract",
    "PicklabilityRule",
    "ProjectRule",
    "Rule",
    "Suppression",
    "all_rules",
    "analyze_paths",
    "iter_python_files",
    "register_rule",
    "rule_catalog",
]
