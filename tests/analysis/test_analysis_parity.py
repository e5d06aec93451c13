"""REP003 — the oracle-parity registry as a CI tripwire.

Synthetic module/test sources pin the three failure modes (undeclared
selector member, stale registry entry, missing parity-test evidence);
the real-tree tests pin that the registry agrees with the live selector
tuples and that the shipped tree analyzes clean end to end.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine import FileContext
from repro.analysis.parity import PARITY_REGISTRY, OracleParityRule, ParityContract

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A synthetic contract so the fixtures below never double as parity
#: evidence for the *real* registry entries when the shipped tree is
#: analyzed (the member/oracle/token strings match nothing real).
FAKE_CONTRACT = ParityContract(
    name="fake-kernel",
    module="fakepkg.kernel",
    selector="BACKENDS",
    oracle="slowref",
    members=("fastpath", "slowref"),
    import_evidence=("fakepkg.kernel",),
    description="fixture fast path vs fixture oracle",
)

KERNEL_PATH = "src/fakepkg/kernel.py"
KERNEL_OK = 'BACKENDS = ("fastpath", "slowref")\n'


def context(path: str, source: str) -> FileContext:
    return FileContext.parse(Path(path), source=source)


def findings_for(*contexts: FileContext):
    rule = OracleParityRule(registry=(FAKE_CONTRACT,))
    return list(rule.check_project(list(contexts)))


class TestSyntheticContracts:
    def test_undeclared_member_is_a_finding(self):
        """Adding a fast path without registering it trips the rule."""
        kernel = context(
            KERNEL_PATH, 'BACKENDS = ("fastpath", "slowref", "turbo")\n'
        )
        (finding,) = findings_for(kernel)
        assert finding.code == "REP003"
        assert "'turbo'" in finding.message
        assert "PARITY_REGISTRY" in finding.message

    def test_stale_registry_member_is_a_finding(self):
        kernel = context(KERNEL_PATH, 'BACKENDS = ("slowref",)\n')
        (finding,) = findings_for(kernel)
        assert "'fastpath'" in finding.message
        assert "no longer exists" in finding.message

    def test_missing_selector_is_a_finding(self):
        kernel = context(KERNEL_PATH, "BACKENDS = sorted(['a'])\n")
        (finding,) = findings_for(kernel)
        assert "missing or not a literal tuple" in finding.message

    def test_selector_resolves_names_bound_to_string_constants(self):
        kernel = context(
            KERNEL_PATH,
            'FAST = "fastpath"\nORACLE = "slowref"\nBACKENDS = (FAST, ORACLE)\n',
        )
        assert findings_for(kernel) == []

    def test_no_test_files_skips_the_evidence_check(self):
        """``python -m repro.analysis src`` alone must not demand tests."""
        assert findings_for(context(KERNEL_PATH, KERNEL_OK)) == []

    def test_evidence_missing_is_a_finding(self):
        unrelated = context("tests/test_other.py", "def test_nothing():\n    pass\n")
        (finding,) = findings_for(context(KERNEL_PATH, KERNEL_OK), unrelated)
        assert "no parity test found" in finding.message
        assert "'fastpath'" in finding.message

    def test_evidence_requires_the_import_token(self):
        near_miss = context(
            "tests/test_fake_parity.py",
            'PAIR = ("fastpath", "slowref")\n',
        )
        (finding,) = findings_for(context(KERNEL_PATH, KERNEL_OK), near_miss)
        assert "no parity test found" in finding.message

    def test_evidence_requires_both_member_and_oracle_quoted(self):
        half = context(
            "tests/test_fake_parity.py",
            'import fakepkg.kernel\nBACKEND = "fastpath"\n',
        )
        (finding,) = findings_for(context(KERNEL_PATH, KERNEL_OK), half)
        assert "no parity test found" in finding.message

    def test_full_evidence_satisfies_the_contract(self):
        proof = context(
            "tests/test_fake_parity.py",
            'import fakepkg.kernel\nPAIR = ("fastpath", "slowref")\n',
        )
        assert findings_for(context(KERNEL_PATH, KERNEL_OK), proof) == []

    def test_module_absent_from_run_is_skipped(self):
        assert findings_for(context("src/fakepkg/unrelated.py", "x = 1\n")) == []


class TestRegistryMatchesRuntime:
    """The declarative table cannot drift from the live selector tuples."""

    @pytest.mark.parametrize(
        "contract", PARITY_REGISTRY, ids=lambda contract: contract.name
    )
    def test_members_match_the_selector_tuple(self, contract):
        module = importlib.import_module(contract.module)
        assert tuple(getattr(module, contract.selector)) == contract.members

    @pytest.mark.parametrize(
        "contract", PARITY_REGISTRY, ids=lambda contract: contract.name
    )
    def test_oracle_is_a_member(self, contract):
        assert contract.oracle in contract.members
        assert contract.oracle not in contract.fast_members

    def test_contract_names_unique(self):
        names = [contract.name for contract in PARITY_REGISTRY]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize(
        ("evidence", "satisfied"),
        [
            ("tests/core/test_search.py", True),
            ("tests/scenarios/test_default_search_parity.py", True),
            ("tests/test_units.py", False),  # control: not a search parity test
        ],
    )
    def test_policy_search_evidence_files(self, evidence, satisfied):
        """Unit fuzz and whole-farm parity each satisfy ``policy-search`` alone."""
        (contract,) = [c for c in PARITY_REGISTRY if c.name == "policy-search"]
        files = [
            context(path, (REPO_ROOT / path).read_text())
            for path in ("src/repro/core/search.py", evidence)
        ]
        rule = OracleParityRule(registry=(contract,))
        assert (list(rule.check_project(files)) == []) is satisfied


class TestShippedTree:
    """The acceptance gate: the repo's own tree analyzes clean."""

    def _run(self, *arguments: str, output: Path | None = None):
        command = [sys.executable, "-m", "repro.analysis", *arguments]
        if output is not None:
            command += ["--output", str(output)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            command, cwd=REPO_ROOT, env=env, capture_output=True, text=True
        )

    def test_shipped_tree_is_clean(self, tmp_path):
        artifact = tmp_path / "report.json"
        result = self._run("src", "tests", "benchmarks", output=artifact)
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(artifact.read_text())
        assert payload["findings"] == []
        assert set(payload["rules"]) >= {
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
        }
        # Every shipped suppression carries its justification into the report.
        assert all(item["justification"] for item in payload["suppressed"])

    @pytest.mark.parametrize(
        ("arguments", "message"),
        [
            (("--rules", "REP999", "src"), "unknown rule code 'REP999'"),
            (("no/such/path",), "no such file or directory: no/such/path"),
        ],
        ids=["unknown-rule", "missing-path"],
    )
    def test_boundary_mistakes_exit_2_with_one_error_line(self, arguments, message):
        result = self._run(*arguments)
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message in lines[0]

    def test_list_rules(self):
        result = self._run("--list-rules")
        assert result.returncode == 0
        for code in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006"):
            assert code in result.stdout
