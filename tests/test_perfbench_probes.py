"""The repository benchmark's tracer patches names that must exist.

``perfbench/tracer.py`` wraps the functions and methods listed in its
``LAYERS`` table for traced passes.  A probe whose module, class or
function was renamed away crashes the traced benchmark run, so these tests
resolve every probe against the package, where a rename in ``src`` fails
at once.  The tracer module is loaded from its file; nothing in
``perfbench/`` is modified.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up while built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
TARGETS = [probe.target for layer in TRACER.LAYERS for probe in layer.probes]


def _owner_and_name(target: str) -> tuple[object, str]:
    """The module or class a probe patches, and the attribute name."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    if "." in path:
        class_name, path = path.split(".")
        owner = getattr(owner, class_name, None)
        assert inspect.isclass(owner), f"{target}: no class {class_name} in {module_name}"
    return owner, path


@pytest.mark.parametrize("target", TARGETS)
def test_probe_resolves(target):
    owner, name = _owner_and_name(target)
    if inspect.ismodule(owner):
        assert callable(getattr(owner, name, None)), f"{target}: no function {name}"


def test_install_then_uninstall_restores_every_name():
    def current(target):
        owner, name = _owner_and_name(target)
        return vars(owner).get(name)

    before = {target: current(target) for target in TARGETS}
    tracer = TRACER.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert {target: current(target) for target in TARGETS} == before
