"""cachelint rule tests, driven by whole-module fixture files.

Same harness contract as the detlint/conclint/locklint fixture tests:
every line that must produce a finding carries an ``# expect[CACHEnnn]``
marker and the analyzer must produce *exactly* the marked findings.
The unit of analysis is the whole module — epoch coupling and the
clear-caches walk are interprocedural facts, so each fixture builds its
own cache graph.
"""

import json
import re
from pathlib import Path

import pytest

from repro.devtools.cachelint import RULES
from repro.devtools.cachelint.cachegraph import build_cachegraph
from repro.devtools.cachelint.rules import _clear_walk, _reachable_classes
from repro.devtools.cachelint.sites import build_cache_sites
from repro.devtools.common.index import ProjectIndex
from repro.devtools.lint import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures" / "cachelint"

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
    return source, [f for f in findings if f.rule.startswith("CACHE")]


def fixture_graph(name: str):
    index = ProjectIndex.build([FIXTURES / name])
    return index, build_cachegraph(index, build_cache_sites(index))


RULE_FIXTURES = [
    ("CACHE001", "cache001_unregistered.py"),
    ("CACHE002", "cache002_unkeyed.py"),
    ("CACHE003", "cache003_nobump.py"),
    ("CACHE004", "cache004_aliasing.py"),
    ("CACHE005", "cache005_contract.py"),
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


class TestStalenessFixture:
    """The static half of the staleness contract; the runtime half (the
    witness catching the same module live) is
    ``tests/serve/test_cachewitness.py``."""

    def test_witness_built_memo_is_flagged(self):
        source, findings = analyze_fixture("staleness_live.py")
        expected = expected_findings(source)
        actual = {(f.line, f.rule) for f in findings if not f.waived}
        assert actual == expected
        (finding,) = [f for f in findings if f.rule == "CACHE002"]
        assert "SummaryBoard._summary_memo" in finding.message
        assert "epoch" in finding.message

    def test_fixture_sites_and_epoch_tables_resolve(self):
        table = build_cache_sites(
            ProjectIndex.build([FIXTURES / "staleness_live.py"])
        )
        assert "SummaryBoard._summary_memo" in table.sites
        bearing = [c for c in table.epoch_bearing if c.endswith("TinyTable")]
        assert bearing, "TinyTable must be epoch-bearing via its property"
        assert table.epoch_bearing[bearing[0]] == ("_epoch",)
        coupled = [c for c in table.epoch_coupled if c.endswith("SummaryBoard")]
        assert coupled, "SummaryBoard couples through its typed table attr"


class TestClearWalk:
    """CACHE001's name-based dispatch: the only place cachelint follows
    untyped edges, because a missed clear edge would invent findings."""

    def test_walk_reaches_sites_through_named_reset(self):
        index, graph = fixture_graph("cache001_unregistered.py")
        (root,) = [
            info.methods["clear_caches"]
            for info in index.classes.values()
            if "clear_caches" in info.methods
        ]
        cleared = _clear_walk(graph, root)
        assert "App._results_cache" in cleared
        assert "App.pages" in cleared  # typed clear on the primitive holder
        assert "Registry._entries_cache" in cleared  # via reset() by name
        assert "App._orphan_memo" not in cleared

    def test_reachability_crosses_typed_attrs(self):
        index, graph = fixture_graph("cache001_unregistered.py")
        (app,) = [c for c in index.classes if c.endswith(".App")]
        reached = {c.rsplit(".", 1)[-1] for c in _reachable_classes(graph, app)}
        assert {"App", "Registry", "SnipCache"} <= reached


class TestPragmas:
    def test_cachelint_pragma_waives_but_detlint_pragma_does_not(self):
        source, findings = analyze_fixture("pragma_waivers.py")
        assert {f.rule for f in findings} == {"CACHE002"}
        waived = [f for f in findings if f.waived]
        blocking = [f for f in findings if f.blocking]
        assert len(waived) == 1 and len(blocking) == 1
        # The surviving finding is the one under the wrong tool's pragma.
        assert "detlint" in source.splitlines()[blocking[0].line - 1]


class TestRepositoryIsClean:
    """The meta-tests: src/repro holds its own cache discipline."""

    def test_src_repro_has_zero_nonbaselined_findings(self, repo_report):
        assert repo_report.files_checked > 50
        offenders = [
            f"{f.location()} {f.rule}"
            for f in repo_report.blocking
            if f.rule.startswith("CACHE")
        ]
        assert offenders == []

    def test_checked_in_baseline_is_empty(self):
        # src/repro carries no grandfathered cache debt, by policy.
        data = json.loads(
            (REPO_ROOT / ".lint-baseline.json").read_text(encoding="utf-8")
        )
        assert [e for e in data["entries"] if e["rule"].startswith("CACHE")] == []

    def test_discovered_sites_are_the_known_caches(self, repo_report):
        # The site inventory is pinned: a new memo in src/repro must
        # either register here (and with World.clear_caches()) or not
        # look like a cache at all.  And there is one memo primitive:
        # every site holds a BoundedCache (or a class built on one), so
        # a hand-rolled dict or module-global memo fails here.  The
        # runtime witness's own store is exempt, so it is no site.
        table = repo_report.graphs["cachegraph"].table
        assert set(table.sites) == {
            "AnswerEngine._answer_cache",
            "SearchEngine._query_cache",
            "SearchEngine.snippet_cache",
            "SnippetCache._cache",
            "World.evidence_cache",
        }
        assert {
            c.rsplit(".", 1)[-1] for c in table.primitive_classes
        } == {"BoundedCache"}
        assert {
            name: site.kind
            for name, site in table.sites.items()
            if site.kind != "cache-class"
        } == {}

    def test_all_five_rules_registered(self):
        codes = [rule.code for rule in RULES]
        assert codes == [f"CACHE00{i}" for i in range(1, 6)]


class TestWorldClearCompleteness:
    """Satellite meta-test: every cache site reachable from the world is
    covered by ``World.clear_caches()`` — driven by cachelint's own
    discovery pass so the check extends to caches added later."""

    def test_every_world_reachable_site_is_cleared(self, repo_report):
        graph = repo_report.graphs["cachegraph"]
        index = graph.index
        (world,) = [
            cls
            for cls, info in index.classes.items()
            if cls.endswith(".World") and "clear_caches" in info.methods
        ]
        reached = _reachable_classes(graph, world)
        cleared = _clear_walk(graph, index.classes[world].methods["clear_caches"])
        reachable_sites = {
            name
            for name, site in graph.table.sites.items()
            if site.scope == "attr" and site.owner in reached
        }
        assert reachable_sites, "discovery must see the world's caches"
        assert reachable_sites - cleared == set()
