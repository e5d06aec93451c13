"""REP003 — the oracle-parity registry.

Every fast path in this repo ships with a reference oracle and a parity
test pinning the two bit-identical: the frontier search against the full
grid, the process executor against serial, and the reactive/predictive
controller policies against always-on.  That discipline only survives if
*adding* a fast path without its parity test fails CI — which is what
this rule does.

:data:`PARITY_REGISTRY` is the declarative table of contracts.  For each
contract the checker:

1. parses the owning module and resolves the **selector tuple** (e.g.
   ``SEARCHES`` in :mod:`repro.core.search`) — every member of the
   tuple must be declared in the registry, and every registry member
   must still exist in the tuple (no stale contracts);
2. cross-references the analyzed **test corpus**: for every non-oracle
   member there must be at least one test file that imports the
   contract's subject (one of ``import_evidence``) and mentions both the
   member and the oracle as quoted string literals — the static
   signature of a parity test exercising both sides.

The evidence check is skipped when the analyzed paths contain no test
files (running ``python -m repro.analysis src`` alone should not demand
tests it cannot see); the selector/registry cross-check always runs.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterable, Sequence
from pathlib import PurePath

from repro.analysis.engine import FileContext, Finding, ProjectRule, register_rule

__all__ = ["PARITY_REGISTRY", "OracleParityRule", "ParityContract"]


@dataclasses.dataclass(frozen=True)
class ParityContract:
    """One fast-path family and the oracle its members must match."""

    #: Short name used in messages (e.g. ``"policy-search"``).
    name: str
    #: Dotted module owning the selector tuple.
    module: str
    #: Module-level tuple enumerating the family's members.
    selector: str
    #: The reference member every other member must be parity-tested against.
    oracle: str
    #: Every member the registry knows about (including the oracle).
    members: tuple[str, ...]
    #: Tokens, any one of which marks a test file as importing the
    #: contract's subject.
    import_evidence: tuple[str, ...]
    #: What the pair means, for messages and docs.
    description: str

    @property
    def fast_members(self) -> tuple[str, ...]:
        return tuple(member for member in self.members if member != self.oracle)


PARITY_REGISTRY: tuple[ParityContract, ...] = (
    ParityContract(
        name="policy-search",
        module="repro.core.search",
        selector="SEARCHES",
        oracle="full",
        members=("full", "frontier"),
        import_evidence=("repro.core.search",),
        description="frontier power-floor walk vs full-grid selection",
    ),
    ParityContract(
        name="executor",
        module="repro.concurrency",
        selector="EXECUTORS",
        oracle="serial",
        members=("serial", "process"),
        import_evidence=("repro.concurrency", "repro.cluster.farm"),
        description="process fan-out executor vs serial oracle",
    ),
    ParityContract(
        name="controller-policy",
        module="repro.cluster.controller",
        selector="CONTROLLER_POLICIES",
        oracle="always-on",
        members=("always-on", "reactive", "predictive"),
        import_evidence=("repro.cluster.controller", "FarmController"),
        description="reactive/predictive right-sizing vs always-on identity",
    ),
    ParityContract(
        name="farm-qos",
        module="repro.cluster.tenancy",
        selector="FARM_QOS_MODES",
        oracle="strictest",
        members=("strictest", "per-tenant"),
        import_evidence=("repro.cluster.tenancy", "FarmQos"),
        description="per-tenant QoS accounting vs strictest single-budget collapse",
    ),
    ParityContract(
        name="tenant-dispatch",
        module="repro.cluster.tenancy",
        selector="TENANT_DISPATCH_KINDS",
        oracle="least-loaded",
        members=("least-loaded", "priority", "weighted-fair"),
        import_evidence=("repro.cluster.tenancy",),
        description=(
            "priority/weighted-fair tenant dispatchers vs the tenant-blind "
            "least-loaded oracle (single-tenant degenerate case)"
        ),
    ),
)


def _module_context(
    files: Sequence[FileContext], module: str
) -> FileContext | None:
    suffix = PurePath(*module.split("."), ).with_suffix(".py")
    for context in files:
        if str(context.path).endswith(str(suffix)):
            return context
    return None


def _resolve_selector(
    context: FileContext, selector: str
) -> tuple[ast.Assign | None, tuple[str, ...]]:
    """The module-level ``selector = (...)`` assignment and its members.

    Tuple elements may be string literals or names bound earlier in the
    module to string literals (``EXECUTORS = (EXECUTOR_SERIAL, ...)``).
    """
    constants: dict[str, str] = {}
    assignment: ast.Assign | None = None
    members: list[str] = []
    for node in context.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            constants[target.id] = node.value.value
        if target.id == selector and isinstance(node.value, ast.Tuple):
            assignment = node
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    members.append(element.value)
                elif isinstance(element, ast.Name) and element.id in constants:
                    members.append(constants[element.id])
    return assignment, tuple(members)


def _quoted(token: str, source: str) -> bool:
    return f'"{token}"' in source or f"'{token}'" in source


@register_rule
class OracleParityRule(ProjectRule):
    """REP003: every fast-path member has a registered parity test."""

    code = "REP003"
    name = "oracle-parity"
    description = (
        "every fast-path selector member must be declared in the parity registry "
        "and covered by a test importing both it and its oracle"
    )

    def __init__(self, registry: Sequence[ParityContract] = PARITY_REGISTRY):
        # Injectable so the self-tests can exercise the checker against
        # synthetic contracts without their fixtures doubling as parity
        # evidence for the real ones.
        self.registry = tuple(registry)

    def check_project(self, files: Sequence[FileContext]) -> Iterable[Finding]:
        test_files = [context for context in files if context.category == "tests"]
        for contract in self.registry:
            context = _module_context(files, contract.module)
            if context is None:
                continue  # module not part of this run
            assignment, members = self._selector_members(contract, context)
            if assignment is None:
                yield Finding(
                    code=self.code,
                    message=(
                        f"parity registry expects selector {contract.selector!r} in "
                        f"{contract.module} but it is missing or not a literal tuple"
                    ),
                    path=str(context.path),
                    line=1,
                )
                continue
            for member in members:
                if member not in contract.members:
                    yield Finding(
                        code=self.code,
                        message=(
                            f"{contract.module}.{contract.selector} member {member!r} "
                            "is not declared in the oracle-parity registry; add a "
                            "parity test against the oracle "
                            f"{contract.oracle!r} and register it in "
                            "repro.analysis.parity.PARITY_REGISTRY"
                        ),
                        path=str(context.path),
                        line=assignment.lineno,
                    )
            for member in contract.members:
                if member not in members:
                    yield Finding(
                        code=self.code,
                        message=(
                            f"oracle-parity registry entry {contract.name!r} declares "
                            f"member {member!r} which no longer exists in "
                            f"{contract.module}.{contract.selector}; update the registry"
                        ),
                        path=str(context.path),
                        line=assignment.lineno,
                    )
            if not test_files:
                continue
            yield from self._evidence_findings(contract, context, assignment, test_files)

    @staticmethod
    def _selector_members(
        contract: ParityContract, context: FileContext
    ) -> tuple[ast.Assign | None, tuple[str, ...]]:
        return _resolve_selector(context, contract.selector)

    def _evidence_findings(
        self,
        contract: ParityContract,
        context: FileContext,
        assignment: ast.Assign,
        test_files: Sequence[FileContext],
    ) -> Iterable[Finding]:
        relevant = [
            test
            for test in test_files
            if any(token in test.source for token in contract.import_evidence)
        ]
        for member in contract.fast_members:
            if not any(
                _quoted(member, test.source) and _quoted(contract.oracle, test.source)
                for test in relevant
            ):
                yield Finding(
                    code=self.code,
                    message=(
                        f"no parity test found for {contract.name} member {member!r}: "
                        "expected a test file importing "
                        f"{' or '.join(contract.import_evidence)} and exercising both "
                        f"{member!r} and the oracle {contract.oracle!r} "
                        f"({contract.description})"
                    ),
                    path=str(context.path),
                    line=assignment.lineno,
                )
