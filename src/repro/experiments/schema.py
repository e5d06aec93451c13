"""Declarative JSON schemas and the one walker that checks them.

Scenario reports, experiment reports and campaign cell records each
declare their shape as a table of the nodes below and check a document
with :func:`validate`.  Each node checks one value in its own ``check``
method and raises :class:`Violation` on the first problem; containers add
their key or index to its path on the way out, so the message names the
failing value (``tenants.rows[2].weight must be positive``) while a
passing walk builds no path strings.  A list rejects items of the wrong
type as a whole (``notes must be a list of strings``).  What a table
cannot say, an :class:`Obj` states as *invariants*: a function that runs
once all its fields have passed and yields ``(path, message)`` for each
broken rule.

>>> table = Obj({"name": Str(nonempty=True), "sizes": List(Int(min=0))})
>>> validate({"name": "a", "sizes": [1, -2]}, table, ValueError, "example")
Traceback (most recent call last):
...
ValueError: invalid example: sizes[1] must be an integer >= 0
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

#: Cross-field rules of an :class:`Obj`: given the object, yield
#: ``(path, message)`` for each broken rule (the path relative to it).
Invariants = Callable[[Any], Iterable[tuple[str, str]]]


class Violation(Exception):
    """A value that breaks its node; *path* collects segments innermost first."""

    def __init__(self, message: str, *path: str) -> None:
        super().__init__(message)
        self.message = message
        self.path = list(path)


class Node:
    """One schema node; ``kind``/``plural`` are what a :class:`List` asks of items."""

    kind: type | tuple[type, ...] = object
    plural = "values"

    def check(self, value: Any) -> None:
        raise NotImplementedError


class Const(Node):
    """Exactly *value* (a schema tag)."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def check(self, value: Any) -> None:
        if value != self.value:
            raise Violation(f"must be {self.value!r}")


class Str(Node):
    """A string: non-empty if *nonempty*, one of *choices* if given."""

    kind, plural = str, "strings"

    def __init__(self, *, nonempty: bool = False, choices: Sequence[str] | None = None) -> None:
        self.nonempty = nonempty
        self.choices = choices

    def check(self, value: Any) -> None:
        if self.choices is not None:
            if value not in self.choices:
                raise Violation(f"must be one of {self.choices}")
        elif not isinstance(value, str) or (self.nonempty and not value):
            raise Violation(f"must be a {'non-empty ' if self.nonempty else ''}string")


class Int(Node):
    """An integer (never a ``bool``), at least *min* if given."""

    kind, plural = int, "integers"

    def __init__(self, *, min: int | None = None) -> None:
        self.min = min

    def check(self, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise Violation("must be an integer")
        if self.min is not None and value < self.min:
            raise Violation(f"must be an integer >= {self.min}")


class Num(Node):
    """A finite number (never a ``bool``), at least *min* or positive if asked."""

    kind, plural = (int, float), "numbers"

    def __init__(self, *, min: float | None = None, positive: bool = False) -> None:
        self.min = min
        self.positive = positive

    def check(self, value: Any) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise Violation("must be a number")
        if not math.isfinite(value):
            raise Violation("must be finite")
        if self.positive and value <= 0:
            raise Violation("must be positive")
        if self.min is not None and value < self.min:
            raise Violation(f"must be >= {self.min}")


class Bool(Node):
    """``true`` or ``false``."""

    kind, plural = bool, "bools"

    def check(self, value: Any) -> None:
        if not isinstance(value, bool):
            raise Violation("must be a bool")


class Opt(Node):
    """``null``, or a value that passes *node*."""

    def __init__(self, node: Node) -> None:
        self.node = node

    def check(self, value: Any) -> None:
        if value is not None:
            self.node.check(value)


class List(Node):
    """A list whose items all pass *item*; non-empty if *nonempty*."""

    kind, plural = list, "lists"

    def __init__(self, item: Node, *, nonempty: bool = False) -> None:
        self.item = item
        self.expect = f"must be a {'non-empty ' if nonempty else ''}list of {item.plural}"
        self.nonempty = nonempty

    def check(self, value: Any) -> None:
        kind = self.item.kind
        if (
            not isinstance(value, list)
            or (self.nonempty and not value)
            or not all(isinstance(item, kind) for item in value)
        ):
            raise Violation(self.expect)
        _check_each(self.item, enumerate(value), "[{}]")


class Obj(Node):
    """An object with exactly the keys of *fields*, or a str-keyed map of
    *values*, or (with neither) any object; *invariants* run after either."""

    kind, plural = dict, "objects"

    def __init__(
        self,
        fields: Mapping[str, Node] | None = None,
        *,
        values: Node | None = None,
        nonempty: bool = False,
        invariants: Invariants | None = None,
    ) -> None:
        self.fields = fields
        self.values = values
        self.nonempty = nonempty
        self.invariants = invariants

    def check(self, value: Any) -> None:
        if not isinstance(value, dict) or (self.nonempty and not value):
            raise Violation("must be a non-empty object" if self.nonempty else "must be an object")
        if self.fields is not None:
            if value.keys() != self.fields.keys():
                raise Violation(
                    f"must have exactly the keys {sorted(self.fields)}, "
                    f"got {sorted(value, key=str)}"
                )
            for key, node in self.fields.items():
                try:
                    node.check(value[key])
                except Violation as violation:
                    violation.path.append(f".{key}")
                    raise
        elif self.values is not None:
            _check_map(self.values, value)
        if self.invariants is not None:
            for path, message in self.invariants(value):
                raise Violation(message, f".{path}")  # the first broken rule


class Json(Node):
    """Any JSON value whose numbers are finite (NaN must travel as ``null``)."""

    def check(self, value: Any) -> None:
        if isinstance(value, float):
            if not math.isfinite(value):
                raise Violation("must be finite (serialise NaN as null)")
        elif isinstance(value, list):
            _check_each(self, enumerate(value), "[{}]")
        elif isinstance(value, dict):
            _check_map(self, value)
        elif not (value is None or isinstance(value, (str, int))):
            raise Violation(f"must be a JSON value, got {type(value).__name__}")


def _check_each(node: Node, items: Iterable[tuple[Any, Any]], segment: str) -> None:
    """Check each ``(key, item)``; *segment* formats a failing key into the path."""
    for key, item in items:
        try:
            node.check(item)
        except Violation as violation:
            violation.path.append(segment.format(key))
            raise


def _check_map(node: Node, value: dict[Any, Any]) -> None:
    """Check a str-keyed map whose every value must pass *node*."""
    if not all(isinstance(key, str) for key in value):
        raise Violation("keys must be strings")
    _check_each(node, value.items(), "[{!r}]")


def validate(
    value: Any, node: Node, error: type[Exception], title: str, where: str = ""
) -> None:
    """Walk *value* through *node*; raise *error* naming the first violation.

    The message reads ``invalid <title>: <path> <problem>``; *where*
    prefixes every path (a document embedded in another) and *title*
    stands in for an empty one.
    """
    try:
        node.check(value)
    except Violation as violation:
        path = (where + "".join(reversed(violation.path))).lstrip(".")
        raise error(f"invalid {title}: {path or title} {violation.message}") from None
