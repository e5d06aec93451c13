"""The built-in per-file invariant rules (REP001, REP002, REP004, REP006).

Each rule encodes one contract the repo's oracle-parity discipline rests
on.  They are static approximations — documented per rule — tuned to
catch the classes of bug that have actually bitten this codebase
(PR 3's RNG-state leak, PR 5's unpicklable lambda factories) while
staying quiet on the idioms the library is built from.

REP003 (the oracle-parity registry) lives in
:mod:`repro.analysis.parity` because it is a whole-project rule, not a
per-file one.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator

from repro.analysis.engine import FileContext, Finding, Rule, register_rule

__all__ = [
    "DeterminismRule",
    "FloatEqualityRule",
    "HygieneRule",
    "PicklabilityRule",
]


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the canonical dotted module/object they denote.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from numpy import random as nr`` → ``{"nr": "numpy.random"}``;
    ``from time import time`` → ``{"time": "time.time"}``.  Relative
    imports (repo-internal) are ignored — the determinism rule only
    cares about stdlib/numpy entropy and clock sources.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _canonical_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in aliases:
        canonical = aliases[head]
        return f"{canonical}.{rest}" if rest else canonical
    return dotted


# ---------------------------------------------------------------------------
# REP001 — determinism


#: numpy.random attributes that are part of the *seeded* Generator API
#: (constructing a generator or seed material, not drawing from global
#: state).  Everything else on ``np.random`` is the legacy global-state
#: API and is forbidden in result-bearing code.
_GENERATOR_API = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register_rule
class DeterminismRule(Rule):
    """REP001: results must be reproducible from an explicit seed.

    Flags, in library/benchmark/example code (tests are exempt):

    * any legacy global-state numpy RNG call (``np.random.rand`` & co.);
    * ``np.random.default_rng()`` with no seed (draws OS entropy);
    * any stdlib ``random`` module call;
    * wall-clock reads: ``time.time``/``time_ns``,
      ``datetime.now``/``utcnow``/``today``, ``date.today``.

    ``time.perf_counter``/``monotonic`` stay allowed — timing a run is
    measurement, not simulation input.  Static approximation: calls are
    resolved through the file's imports, so an RNG smuggled through an
    intermediate variable is not seen.
    """

    code = "REP001"
    name = "determinism"
    description = (
        "no unseeded RNG or wall-clock reads in result-bearing code; "
        "seeded np.random.default_rng Generators only"
    )
    categories = ("src", "benchmarks", "examples")

    def check(self, context: FileContext) -> Iterable[Finding]:
        aliases = _import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, aliases)
            if canonical is None:
                continue
            if canonical.startswith("numpy.random."):
                attribute = canonical.removeprefix("numpy.random.")
                if attribute == "default_rng":
                    if not node.args and not node.keywords:
                        yield context.finding(
                            self.code,
                            node,
                            "np.random.default_rng() without a seed draws OS entropy; "
                            "pass an explicit seed (or SeedSequence) so runs reproduce",
                        )
                elif "." not in attribute and attribute not in _GENERATOR_API:
                    yield context.finding(
                        self.code,
                        node,
                        f"np.random.{attribute} uses numpy's global RNG state; "
                        "use a seeded np.random.default_rng(seed) Generator instead",
                    )
            elif canonical == "random" or canonical.startswith("random."):
                yield context.finding(
                    self.code,
                    node,
                    f"stdlib random call {canonical} is process-global state; "
                    "use a seeded np.random.default_rng(seed) Generator instead",
                )
            elif canonical in _WALLCLOCK_CALLS:
                yield context.finding(
                    self.code,
                    node,
                    f"wall-clock read {canonical}() makes output depend on when it runs; "
                    "thread simulated time or an explicit timestamp argument through instead",
                )


# ---------------------------------------------------------------------------
# REP002 — picklability


#: Callables whose arguments cross (or may cross, depending on the
#: ``executor=`` knob) a process boundary: the shard-task dataclasses
#: and per-server factory holders the farm pickles.  Keyword arguments
#: to these must never be lambdas or local functions — exactly the PR 5
#: bug class.
_BOUNDARY_CALLEES = frozenset(
    {
        "ServerSpec",
        "ServerShardTask",
        "PerIndexFactory",
        "homogeneous",
    }
)

_EXECUTOR_FACTORIES = frozenset(
    {"ProcessExecutor", "SerialExecutor", "resolve_executor"}
)

_EXECUTORISH_NAME = re.compile(r"executor|pool", re.IGNORECASE)


def _is_executor_map(node: ast.Call) -> bool:
    """Whether *node* is ``<something executor-like>.map(...)``."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "map"):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Call):
        name = _dotted_name(receiver.func)
        return name is not None and name.split(".")[-1] in _EXECUTOR_FACTORIES
    if isinstance(receiver, ast.Name):
        return bool(_EXECUTORISH_NAME.search(receiver.id))
    if isinstance(receiver, ast.Attribute):
        return bool(_EXECUTORISH_NAME.search(receiver.attr))
    return False


@register_rule
class PicklabilityRule(Rule):
    """REP002: work that may cross a process boundary must pickle.

    The executor subsystem is pluggable — every call site must stay
    correct under ``executor="process"`` — so lambdas and local
    functions are banned wherever they would ride a shard task or a
    fan-out into a worker.  Flags:

    * a ``lambda`` (or a local name bound to a lambda / nested ``def``)
      passed to an ``<executor>.map(...)`` call (everywhere — the
      executor behind those calls is the caller's choice);
    * outside tests, the same passed to a shard-context constructor
      (``ServerSpec``, ``ServerFarm.homogeneous``, ``PerIndexFactory``,
      ``ServerShardTask``) — tests may build serial-only farms with local
      factories, library/benchmark/example code must stay
      process-ready;
    * in library code, a ``lambda`` stored as a class attribute, as a
      dataclass field default, or assigned onto ``self`` — instances of
      such classes can never cross the boundary.

    Static approximation: callables smuggled through module-level
    variables or containers are not traced.  Tests that *intentionally*
    build unpicklable work for error-path coverage carry justified
    ``# repro: ignore[REP002]`` suppressions.
    """

    code = "REP002"
    name = "picklability"
    description = (
        "no lambdas/local functions in executor fan-outs or shard-task fields; "
        "process-executor work must pickle"
    )
    categories = None  # everywhere; field checks are src-only (see check)

    def check(self, context: FileContext) -> Iterable[Finding]:
        yield from _PicklabilityWalker(self, context).run()


class _PicklabilityWalker:
    def __init__(self, rule: PicklabilityRule, context: FileContext):
        self.rule = rule
        self.context = context
        self.findings: list[Finding] = []

    def run(self) -> Iterator[Finding]:
        self._walk_scope(self.context.tree.body, local_callables={}, class_name=None)
        return iter(self.findings)

    # -- scope walking ------------------------------------------------

    def _walk_scope(
        self,
        body: list[ast.stmt],
        local_callables: dict[str, str],
        class_name: str | None,
        in_function: bool = False,
    ) -> None:
        # First pass: record locally bound callables (nested defs and
        # name-bound lambdas) so passing them by name is caught too.
        bound = dict(local_callables)
        if in_function:
            for statement in body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound[statement.name] = "local function"
                elif isinstance(statement, ast.Assign) and isinstance(
                    statement.value, ast.Lambda
                ):
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            bound[target.id] = "lambda"
        for statement in body:
            self._walk_statement(statement, bound, class_name, in_function)

    def _walk_statement(
        self,
        statement: ast.stmt,
        bound: dict[str, str],
        class_name: str | None,
        in_function: bool,
    ) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_scope(
                statement.body, bound, class_name, in_function=True
            )
            return
        if isinstance(statement, ast.ClassDef):
            if self.context.category == "src":
                self._check_class_body(statement)
            self._walk_scope(statement.body, bound, statement.name)
            return
        if (
            self.context.category == "src"
            and class_name is not None
            and in_function
            and isinstance(statement, ast.Assign)
            and isinstance(statement.value, ast.Lambda)
        ):
            for target in statement.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.findings.append(
                        self.context.finding(
                            self.rule.code,
                            statement,
                            f"lambda assigned to self.{target.attr} makes every "
                            f"{class_name} instance unpicklable; use a module-level "
                            "function or a frozen factory dataclass",
                        )
                    )
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                self._check_call(node, bound)

    def _check_class_body(self, node: ast.ClassDef) -> None:
        for statement in node.body:
            value: ast.expr | None = None
            target_name = ""
            if isinstance(statement, ast.Assign) and isinstance(
                statement.targets[0], ast.Name
            ):
                value = statement.value
                target_name = statement.targets[0].id
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                value = statement.value
                target_name = statement.target.id
            if isinstance(value, ast.Lambda):
                self.findings.append(
                    self.context.finding(
                        self.rule.code,
                        value,
                        f"lambda as default for field {node.name}.{target_name} is "
                        "stored on instances and cannot pickle; use a module-level "
                        "function or a frozen factory dataclass",
                    )
                )

    # -- boundary calls -----------------------------------------------

    def _check_call(self, node: ast.Call, bound: dict[str, str]) -> None:
        callee = _dotted_name(node.func)
        last = callee.split(".")[-1] if callee else None
        # Shard-context constructors only bind outside tests: tests may
        # build serial-only farms with local factories (the executor
        # parity suite pins the process path with module-level ones).
        constructor_boundary = (
            last in _BOUNDARY_CALLEES and self.context.category != "tests"
        )
        if constructor_boundary:
            boundary = last or ""
        elif _is_executor_map(node):
            boundary = "executor.map"
        else:
            return
        arguments: list[tuple[str, ast.expr]] = [
            (f"argument {index}", value) for index, value in enumerate(node.args)
        ]
        arguments.extend(
            (f"{keyword.arg}=", keyword.value)
            for keyword in node.keywords
            if keyword.arg is not None
        )
        for label, value in arguments:
            if isinstance(value, ast.Lambda):
                self.findings.append(
                    self.context.finding(
                        self.rule.code,
                        value,
                        f"lambda passed as {label} to {boundary} cannot cross a "
                        "process boundary; use a module-level function or a frozen "
                        "factory dataclass",
                    )
                )
            elif isinstance(value, ast.Name) and value.id in bound:
                self.findings.append(
                    self.context.finding(
                        self.rule.code,
                        value,
                        f"{bound[value.id]} {value.id!r} passed as {label} to "
                        f"{boundary} cannot cross a process boundary; move it to "
                        "module level (or make it a frozen factory dataclass)",
                    )
                )


# ---------------------------------------------------------------------------
# REP004 — float equality


#: Identifier fragments that mark an expression as a *simulated
#: quantity* — values produced by the kernel/power pipeline, where two
#: mathematically equal results need not be bit-equal.
_QUANTITY_RE = re.compile(
    r"(^|_)(energy|power|watts?|joules?|latency|slack|utilization|percentile|qos)(_|$)"
    r"|response_time",
    re.IGNORECASE,
)


def _unwrap_sign(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return node


def _is_safe_float(value: float) -> bool:
    """Exact binary fractions in quarter steps (0.0, 0.25, 1.5, ...).

    These are bit-exact under IEEE-754 round-tripping, so sentinel
    checks like ``beta == 0.0`` stay legal; ``x == 0.35`` does not.
    """
    quadrupled = value * 4.0
    return quadrupled == int(quadrupled)


def _terminal_identifier(node: ast.expr) -> str | None:
    node = _unwrap_sign(node)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _terminal_identifier(node.value)
    if isinstance(node, ast.Call):
        return _terminal_identifier(node.func)
    return None


@register_rule
class FloatEqualityRule(Rule):
    """REP004: no ``==``/``!=`` on float simulation quantities.

    Two mathematically equal floating-point results need not be
    bit-equal unless an oracle-parity contract *makes* them so; outside
    those pinned paths, equality on simulated quantities is a latent
    flake.  Flags (tests are exempt — parity suites assert bit-identity
    on purpose):

    * comparison against a float literal that is not an exact binary
      fraction in quarter steps (``x == 0.35``, ``u != 0.999``) — such
      a literal can only match if both sides computed it identically;
    * comparison between two non-literal expressions when either side's
      name marks it a simulated quantity (energy/power/latency/...).

    Use ``np.isclose``/``math.isclose`` with an explicit tolerance, or
    — where bit-identity genuinely holds by contract — suppress with
    the justification naming that contract.
    """

    code = "REP004"
    name = "float-equality"
    description = (
        "no ==/!= on float simulation quantities; use np.isclose with a stated "
        "tolerance or an explicit bit-identity contract"
    )
    categories = ("src", "benchmarks", "examples")

    def check(self, context: FileContext) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left = _unwrap_sign(operands[index])
                right = _unwrap_sign(operands[index + 1])
                yield from self._check_pair(context, node, left, right)

    def _check_pair(
        self,
        context: FileContext,
        node: ast.Compare,
        left: ast.expr,
        right: ast.expr,
    ) -> Iterable[Finding]:
        sides = (left, right)
        for side in sides:
            if (
                isinstance(side, ast.Constant)
                and isinstance(side.value, float)
                and not _is_safe_float(side.value)
            ):
                yield context.finding(
                    self.code,
                    node,
                    f"equality against float literal {side.value!r} only holds if "
                    "both sides computed it bit-identically; use np.isclose with an "
                    "explicit tolerance",
                )
                return
        if any(isinstance(side, ast.Constant) for side in sides):
            return  # safe sentinel literal (0.0, 1.0, ...) — exact by construction
        for side in sides:
            identifier = _terminal_identifier(side)
            if identifier is not None and _QUANTITY_RE.search(identifier):
                yield context.finding(
                    self.code,
                    node,
                    f"==/!= on simulated quantity {identifier!r}; use np.isclose with "
                    "a stated tolerance, or suppress citing the bit-identity contract "
                    "that makes exact equality sound",
                )
                return


# ---------------------------------------------------------------------------
# REP006 — hygiene


_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


@register_rule
class HygieneRule(Rule):
    """REP006: mutable defaults and silent exception handling.

    Beyond ruff's E/F gate: flags mutable default argument values
    (``def f(x=[])`` and friends — shared across calls), bare
    ``except:`` (catches ``KeyboardInterrupt``/``SystemExit``), and
    broad ``except``/``except Exception`` whose body is only ``pass``
    (errors vanish without a trace).
    """

    code = "REP006"
    name = "hygiene"
    description = "no mutable default arguments, bare excepts, or silently swallowed exceptions"
    categories = None

    def check(self, context: FileContext) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = [*node.args.defaults, *node.args.kw_defaults]
                for default in defaults:
                    if default is None:
                        continue
                    if self._is_mutable_literal(default):
                        yield context.finding(
                            self.code,
                            default,
                            "mutable default argument is shared across calls; "
                            "default to None (or a frozen value) and build inside",
                        )
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    yield context.finding(
                        self.code,
                        node,
                        "bare except catches KeyboardInterrupt/SystemExit too; "
                        "name the exception types",
                    )
                elif self._is_broad(node.type) and _only_passes(node.body):
                    yield context.finding(
                        self.code,
                        node,
                        "broad except whose body is only `pass` swallows errors "
                        "silently; handle, log or narrow it",
                    )

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORIES
        )

    @staticmethod
    def _is_broad(node: ast.expr) -> bool:
        name = _dotted_name(node)
        return name in {"Exception", "BaseException"}


def _only_passes(body: list[ast.stmt]) -> bool:
    return all(isinstance(statement, ast.Pass) for statement in body)
