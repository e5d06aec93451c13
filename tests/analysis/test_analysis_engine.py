"""The lint-engine framework: suppressions, categories, reports, CLI.

Rule-specific fixtures live in ``test_analysis_rules.py`` (per-file rules) and
``test_analysis_parity.py`` (the REP003 project rule); this module pins the
machinery they all ride on.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.engine import (
    SUPPRESSION_HYGIENE_CODE,
    AnalysisReport,
    FileContext,
    Finding,
    Rule,
    Suppression,
    all_rules,
    analyze_paths,
    format_json,
    iter_python_files,
    register_rule,
    rule_catalog,
)


def parse(source: str, path: str = "src/repro/fake_module.py") -> FileContext:
    return FileContext.parse(Path(path), source=source)


class TestSuppressionParsing:
    def test_trailing_comment(self):
        context = parse("x = risky()  # repro: ignore[REP001] -- fixture reason\n")
        (suppression,) = context.suppressions
        assert suppression.line == 1
        assert suppression.anchor_line == 1
        assert suppression.codes == ("REP001",)
        assert suppression.justification == "fixture reason"
        assert suppression.valid

    def test_multiple_codes(self):
        context = parse("x = 1  # repro: ignore[REP001, REP004] -- both sound here\n")
        (suppression,) = context.suppressions
        assert suppression.codes == ("REP001", "REP004")

    def test_missing_justification_is_invalid(self):
        context = parse("x = risky()  # repro: ignore[REP001]\n")
        (suppression,) = context.suppressions
        assert not suppression.valid

    def test_wrapped_comment_block_anchors_to_the_code_below(self):
        """A justification may wrap across comment-only lines."""
        source = (
            "# repro: ignore[REP001] -- the justification for this one is\n"
            "# long enough that it wraps onto a second and even a third\n"
            "# comment line before the code it covers.\n"
            "x = risky()\n"
        )
        (suppression,) = parse(source).suppressions
        assert suppression.line == 1
        assert suppression.anchor_line == 3

    def test_string_literal_mentioning_the_syntax_is_not_a_suppression(self):
        context = parse('text = "# repro: ignore[REP001] -- not a comment"\n')
        assert context.suppressions == ()

    def test_anchor_never_precedes_line(self):
        suppression = Suppression(line=5, codes=("REP001",), justification="x")
        assert suppression.anchor_line == 5


class TestFileCategories:
    @pytest.mark.parametrize(
        ("path", "category"),
        [
            ("src/repro/cluster/farm.py", "src"),
            ("tests/cluster/test_farm.py", "tests"),
            ("benchmarks/wallclock_gates.py", "benchmarks"),
            ("examples/server_farm.py", "examples"),
            ("scripts/one_off.py", "other"),
        ],
    )
    def test_categorize(self, path, category):
        assert parse("x = 1\n", path=path).category == category


class TestRegistry:
    def test_all_six_builtin_rules_register(self):
        codes = [code for code, _name, _description in rule_catalog()]
        assert codes == sorted(codes)
        assert {
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
        } <= set(codes)

    def test_unknown_code_rejected_with_known_codes_listed(self):
        with pytest.raises(ValueError, match="REP001"):
            all_rules(["REP417"])

    def test_duplicate_code_rejected(self):
        class Impostor(Rule):
            code = "REP001"
            name = "impostor"
            description = "clashes with the determinism rule"

            def check(self, context):  # pragma: no cover - never runs
                return ()

        with pytest.raises(ValueError, match="duplicate rule code"):
            register_rule(Impostor)


class TestAnalyzePaths:
    def _write(self, tmp_path: Path, relative: str, source: str) -> Path:
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return path

    def test_clean_tree(self, tmp_path):
        self._write(tmp_path, "src/repro/ok.py", "def f(x=None):\n    return x\n")
        report = analyze_paths([tmp_path])
        assert report.clean
        assert report.files_analyzed == 1

    def test_finding_reported_and_exit_contract(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/bad.py",
            "try:\n    pass\nexcept:\n    pass\n",
        )
        report = analyze_paths([tmp_path])
        assert not report.clean
        assert [finding.code for finding in report.findings] == ["REP006"]

    def test_valid_suppression_moves_finding_to_suppressed(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/bad.py",
            "try:\n    pass\n"
            "# repro: ignore[REP006] -- fixture: pinning the suppression path\n"
            "except:\n    pass\n",
        )
        report = analyze_paths([tmp_path])
        assert report.clean
        ((finding, suppression),) = report.suppressed
        assert finding.code == "REP006"
        assert "fixture" in suppression.justification

    def test_unjustified_suppression_is_rep000_and_does_not_suppress(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/bad.py",
            "try:\n    pass\nexcept:  # repro: ignore[REP006]\n    pass\n",
        )
        report = analyze_paths([tmp_path])
        codes = sorted(finding.code for finding in report.findings)
        assert codes == [SUPPRESSION_HYGIENE_CODE, "REP006"]

    def test_rep000_itself_cannot_be_suppressed(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/bad.py",
            "x = 1  # repro: ignore[REP000]\n",
        )
        report = analyze_paths([tmp_path])
        assert [finding.code for finding in report.findings] == [
            SUPPRESSION_HYGIENE_CODE
        ]

    def test_syntax_error_becomes_rep999(self, tmp_path):
        self._write(tmp_path, "src/repro/broken.py", "def f(:\n")
        report = analyze_paths([tmp_path])
        assert [finding.code for finding in report.findings] == ["REP999"]

    def test_iter_python_files_dedups_and_skips_pycache(self, tmp_path):
        kept = self._write(tmp_path, "pkg/mod.py", "x = 1\n")
        self._write(tmp_path, "pkg/__pycache__/mod.cpython-311.py", "x = 1\n")
        self._write(tmp_path, "pkg/notes.txt", "not python\n")
        assert iter_python_files([tmp_path, kept, str(kept)]) == [kept]

    def test_json_report_shape(self, tmp_path):
        self._write(
            tmp_path,
            "src/repro/bad.py",
            "try:\n    pass\nexcept:\n    pass\n",
        )
        report = analyze_paths([tmp_path])
        payload = json.loads(format_json(report))
        assert payload["schema"] == "repro.analysis-report/v1"
        assert payload["files_analyzed"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "REP006"
        assert finding["line"] == 3

    def test_human_format_is_path_line_column(self):
        finding = Finding(
            code="REP001", message="msg", path="src/repro/x.py", line=3, column=4
        )
        assert finding.format() == "src/repro/x.py:3:5: REP001 msg"

    def test_report_summary_line(self):
        report = AnalysisReport(
            findings=[], suppressed=[], files_analyzed=2, rules_run=("REP001",)
        )
        assert "0 finding(s)" in report.format_human()
        assert report.clean
