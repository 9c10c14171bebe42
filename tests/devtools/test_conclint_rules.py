"""conclint rule tests, driven by whole-module fixture files.

Same harness contract as the detlint fixture tests: every line that
must produce a finding carries an ``# expect[CONCnnn]`` marker, and the
analyzer must produce *exactly* the marked findings — false negatives
and false positives fail the same assertion.  Unlike detlint the unit
of analysis is the whole module: each fixture builds its own call graph
(pool submissions or an ``AnswerEngine`` subclass make code
worker-reachable).
"""

import re
from pathlib import Path

import pytest

from repro.devtools.lint import analyze

FIXTURES = Path(__file__).parent / "fixtures" / "conclint"

_EXPECT_RE = re.compile(r"#\s*expect\[([A-Z0-9,]+)\]")


def expected_findings(source: str) -> set[tuple[int, str]]:
    expected = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for code in match.group(1).split(","):
                expected.add((lineno, code))
    return expected


def analyze_fixture(name: str):
    path = FIXTURES / name
    source = path.read_text(encoding="utf-8")
    findings = analyze([path]).findings
    return source, [f for f in findings if f.rule.startswith("CONC")]


RULE_FIXTURES = [
    ("CONC001", "conc001_globals.py"),
    ("CONC002", "conc002_cache.py"),
    ("CONC003", "conc003_forkship.py"),
    ("CONC004", "conc004_capture.py"),
    ("CONC005", "conc005_rng.py"),
]


class TestRuleFixtures:
    @pytest.mark.parametrize("code,fixture", RULE_FIXTURES)
    def test_exact_findings(self, code, fixture):
        source, findings = analyze_fixture(fixture)
        expected = expected_findings(source)
        assert expected, f"fixture {fixture} has no expect markers"
        actual = {(f.line, f.rule) for f in findings if not f.waived}
        assert actual == expected

    @pytest.mark.parametrize("code,fixture", RULE_FIXTURES)
    def test_rule_has_failing_case(self, code, fixture):
        """Acceptance: every rule is demonstrated by a failing fixture."""
        __, findings = analyze_fixture(fixture)
        assert any(f.rule == code and f.blocking for f in findings)


class TestPragmas:
    def test_conclint_pragma_waives_but_detlint_pragma_does_not(self):
        source, findings = analyze_fixture("pragma_waivers.py")
        assert {f.rule for f in findings} == {"CONC001"}
        waived = [f for f in findings if f.waived]
        blocking = [f for f in findings if f.blocking]
        assert len(waived) == 1 and len(blocking) == 1
        # The surviving finding is the one under the wrong tool's pragma.
        assert "detlint" in source.splitlines()[blocking[0].line - 1]

    def test_skip_file(self):
        __, findings = analyze_fixture("skip_file.py")
        assert findings == []


class TestFindingQuality:
    def test_messages_carry_reachability_provenance(self):
        # Why-is-this-worker-side must be in the message ("via <entry>").
        __, findings = analyze_fixture("conc001_globals.py")
        blocking = [f for f in findings if f.blocking]
        assert blocking
        assert all("via " in f.message for f in blocking)

    def test_findings_sorted_and_snippeted(self):
        __, findings = analyze_fixture("conc002_cache.py")
        assert findings == sorted(findings)
        assert all(f.snippet for f in findings)
