"""No BLAS calls on the policy-search probe path.

The per-epoch search solves thousands of small kernels per run, builds each
probed candidate from the power model, and the dispatcher steps through
every job.  NumPy routes ``np.dot``, ``np.matmul``, ``np.inner``,
``np.vdot``, ``ndarray.dot`` and the ``@`` operator to BLAS, whose helper
threads wake on arrays of a few thousand elements: the work
then spreads across cores, so process CPU time (``cpu_s``) inflates well
beyond wall-clock time, with no speedup for arrays this small.  The modules
below therefore reduce with elementwise ufuncs and ``.sum()`` only; this
test fails on any BLAS-backed call written into them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

PROBE_PATH_MODULES = (
    "src/repro/simulation/kernel.py",
    "src/repro/core/search.py",
    "src/repro/cluster/dispatch.py",
    "src/repro/power/platform.py",
)

BLAS_NAMES = frozenset({"dot", "matmul", "inner", "vdot"})


def blas_calls(source: str) -> list[str]:
    """``line: construct`` for every BLAS-backed call or operator in *source*."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend(
                f"{node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name in BLAS_NAMES
            )
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found.append(f"{node.lineno}: @")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "np.dot(a, b)",
        "numpy.matmul(a, b)",
        "np.inner(a, b)",
        "np.vdot(a, b)",
        "a.dot(b)",
        "a @ b",
        "a @= b",
        "from numpy import dot",
    ],
)
def test_detector_flags_each_blas_form(source):
    assert blas_calls(source)


def test_detector_allows_elementwise_reductions():
    assert blas_calls("(a * b).sum()\nnp.cumsum(a)\nnp.add.reduce(a)") == []


@pytest.mark.parametrize("path", PROBE_PATH_MODULES)
def test_probe_path_module_has_no_blas_calls(path):
    source = (REPO_ROOT / path).read_text(encoding="utf-8")
    assert blas_calls(source) == []
