"""locklint rule tests, driven by whole-module fixture files.

Same harness contract as the detlint/conclint fixture tests: every line
that must produce a finding carries an ``# expect[LOCKnnn]`` marker and
the analyzer must produce *exactly* the marked findings.  The unit of
analysis is the whole module — lock-order cycles and blocking
reachability are interprocedural facts, so each fixture builds its own
lock graph.
"""

import re
from pathlib import Path

import pytest

from repro.devtools.common.index import ProjectIndex
from repro.devtools.lint import analyze
from repro.devtools.locklint import RULES
from repro.devtools.locklint.sites import build_sites
from repro.lockorder import CANONICAL_HIERARCHY

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures" / "locklint"

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
    return source, [f for f in findings if f.rule.startswith("LOCK")]


RULE_FIXTURES = [
    ("LOCK001", "lock001_inversion.py"),
    ("LOCK002", "lock002_blocking.py"),
    ("LOCK003", "lock003_reentrant.py"),
    ("LOCK004", "lock004_bare_acquire.py"),
    ("LOCK005", "lock005_wait.py"),
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


class TestInversionFixture:
    """The static half of the two-lock inversion contract; the runtime
    half (the witness catching the same module live) is
    ``tests/test_lockwitness.py``."""

    def test_witness_built_inversion_is_flagged(self):
        source, findings = analyze_fixture("inversion_live.py")
        expected = expected_findings(source)
        actual = {(f.line, f.rule) for f in findings if not f.waived}
        assert actual == expected
        (finding,) = [f for f in findings if f.rule == "LOCK001"]
        # Both acquisition orders must be in the message.
        assert "InvertedPair._first" in finding.message
        assert "InvertedPair._second" in finding.message
        assert "reverse order" in finding.message

    def test_witness_site_names_resolve(self):
        # witness_lock("InvertedPair._first") must register the same
        # site a bare threading.Lock() would.
        table = build_sites(ProjectIndex.build([FIXTURES / "inversion_live.py"]))
        assert "InvertedPair._first" in table.sites
        assert "InvertedPair._second" in table.sites
        assert table.mismatched == []
        assert all(site.mutex for site in table.sites.values())


class TestPragmas:
    def test_locklint_pragma_waives_but_detlint_pragma_does_not(self):
        source, findings = analyze_fixture("pragma_waivers.py")
        assert {f.rule for f in findings} == {"LOCK002"}
        waived = [f for f in findings if f.waived]
        blocking = [f for f in findings if f.blocking]
        assert len(waived) == 1 and len(blocking) == 1
        # The surviving finding is the one under the wrong tool's pragma.
        assert "detlint" in source.splitlines()[blocking[0].line - 1]


class TestRepositoryIsClean:
    """The meta-tests: src/repro holds its own lock discipline, and the
    runtime witness agrees with the static analysis."""

    def test_src_repro_has_zero_nonbaselined_findings(self, repo_report):
        assert repo_report.files_checked > 50
        offenders = [
            f"{f.location()} {f.rule}"
            for f in repo_report.blocking
            if f.rule.startswith("LOCK")
        ]
        assert offenders == []

    def test_checked_in_baseline_is_empty(self):
        # src/repro carries no grandfathered lock debt, by policy.
        import json

        data = json.loads(
            (REPO_ROOT / ".lint-baseline.json").read_text(encoding="utf-8")
        )
        assert [e for e in data["entries"] if e["rule"].startswith("LOCK")] == []

    def test_hierarchy_matches_runtime_witness(self, repo_report):
        # The order the witness enforces at runtime is exactly the
        # order locklint derives statically; drift here means one half
        # of the contract is lying.
        graph = repo_report.graphs["lockgraph"]
        assert graph.hierarchy() == list(CANONICAL_HIERARCHY)

    def test_every_project_lock_site_is_witnessed(self, repo_report):
        # Every mutex attribute site in src/repro is built through
        # witness_lock with its canonical name (no drifting strings);
        # repro.lockorder's own locks are not sites at all.
        table = repo_report.graphs["lockgraph"].table
        assert table.mismatched == []
        mutex_attrs = {
            name
            for name, site in table.sites.items()
            if site.mutex and site.scope == "attr"
        }
        assert mutex_attrs == set(CANONICAL_HIERARCHY)

    def test_all_five_rules_registered(self):
        codes = [rule.code for rule in RULES]
        assert codes == [f"LOCK00{i}" for i in range(1, 6)]
