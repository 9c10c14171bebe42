"""detlint rule tests, driven by the fixture files.

Each fixture marks every line that must produce a finding with an
``# expect[DETnnn]`` comment; the harness asserts the linter produces
*exactly* the marked findings — so both false negatives (a positive
case the rule misses) and false positives (a negative case it flags)
fail the same assertion.
"""

import re
from pathlib import Path

import pytest

from repro.devtools.lint import analyze

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT_RE = re.compile(r"#\s*expect\[([A-Z0-9,]+)\]")


def expected_findings(source: str) -> set[tuple[int, str]]:
    expected = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for code in match.group(1).split(","):
                expected.add((lineno, code))
    return expected


def det_findings(path: Path):
    """The DET findings of one file (other families may fire too)."""
    return [f for f in analyze([path]).findings if f.rule.startswith("DET")]


def lint_fixture(name: str):
    path = FIXTURES / name
    return path.read_text(encoding="utf-8"), det_findings(path)


RULE_FIXTURES = [
    ("DET001", "det001_rng.py"),
    ("DET002", "det002_clock.py"),
    ("DET003", "det003_setorder.py"),
    ("DET004", "det004_hash.py"),
    ("DET005", "det005_fsorder.py"),
    ("DET006", "det006_environ.py"),
]


class TestRuleFixtures:
    @pytest.mark.parametrize("code,fixture", RULE_FIXTURES)
    def test_exact_findings(self, code, fixture):
        source, findings = lint_fixture(fixture)
        expected = expected_findings(source)
        assert expected, f"fixture {fixture} has no expect markers"
        actual = {(f.line, f.rule) for f in findings if not f.waived}
        assert actual == expected

    @pytest.mark.parametrize("code,fixture", RULE_FIXTURES)
    def test_rule_has_failing_case(self, code, fixture):
        """Acceptance: every rule is demonstrated by a failing fixture."""
        __, findings = lint_fixture(fixture)
        assert any(f.rule == code and f.blocking for f in findings)


class TestPragmas:
    def test_all_findings_waived(self):
        __, findings = lint_fixture("pragma_waivers.py")
        assert findings, "waiver fixture must still produce findings"
        assert all(f.waived for f in findings)
        assert not any(f.blocking for f in findings)
        # The two-code pragma waived two distinct rules on one line.
        waived_rules = {f.rule for f in findings}
        assert {"DET001", "DET002", "DET004", "DET006"} <= waived_rules

    def test_non_matching_pragmas_do_not_waive(self):
        source, findings = lint_fixture("pragma_not_matching.py")
        expected = expected_findings(source)
        actual = {(f.line, f.rule) for f in findings if f.blocking}
        assert actual == expected

    def test_pragma_on_first_line_of_multiline_statement_waives(self):
        # The violations sit on continuation lines; the pragmas sit on
        # the statements' first lines.  Both must anchor the waiver.
        __, findings = lint_fixture("pragma_multiline.py")
        assert findings, "multi-line fixture must still produce findings"
        assert {f.rule for f in findings} == {"DET001", "DET002"}
        assert all(f.waived for f in findings), [
            (f.line, f.stmt_line, f.rule) for f in findings if not f.waived
        ]
        # The statement anchor is distinct from the reported line.
        assert all(f.stmt_line < f.line for f in findings)

    def test_skip_file(self):
        __, findings = lint_fixture("skip_file.py")
        assert findings == []


def write(path: Path, source: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


class TestModuleExemptions:
    def test_rng_module_is_exempt_from_det001(self, tmp_path):
        source = "import random\nrng = random.Random(0)\n"
        target = write(tmp_path / "repro" / "llm" / "rng.py", source)
        assert det_findings(target) == []
        # The same source anywhere else is a finding.
        elsewhere = write(tmp_path / "repro" / "llm" / "other.py", source)
        assert [f.rule for f in det_findings(elsewhere)] == ["DET001"]

    def test_config_module_is_exempt_from_det006(self, tmp_path):
        source = 'import os\nraw = os.environ.get("REPRO_WORKERS", "")\n'
        target = write(tmp_path / "repro" / "core" / "config.py", source)
        assert det_findings(target) == []
        elsewhere = write(tmp_path / "repro" / "core" / "runner.py", source)
        assert [f.rule for f in det_findings(elsewhere)] == ["DET006"]

    def test_unparseable_file_reports_lint000(self, tmp_path):
        # One finding for the whole pass, not one per rule family.
        findings = analyze([write(tmp_path / "bad.py", "def broken(:\n")]).findings
        assert [f.rule for f in findings] == ["LINT000"]
        assert findings[0].blocking


class TestFindingModel:
    def test_findings_sorted_and_keyed(self):
        __, findings = lint_fixture("det001_rng.py")
        assert findings == sorted(findings)
        first = findings[0]
        assert first.key().endswith(f"::{first.rule}::{first.snippet}")
        assert str(first.line) in first.location()

    def test_to_dict_roundtrips_fields(self):
        __, findings = lint_fixture("det004_hash.py")
        payload = findings[0].to_dict()
        assert payload["rule"] == "DET004"
        assert payload["path"].endswith("det004_hash.py")
        assert set(payload) == {
            "path", "line", "col", "rule", "message",
            "snippet", "waived", "baselined",
        }
