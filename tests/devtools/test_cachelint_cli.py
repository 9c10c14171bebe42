"""Baseline, ``python -m repro lint`` and ``--dump cachegraph``
behaviour on CACHE findings, and the family table."""

import json
from pathlib import Path

from repro.__main__ import main
from repro.devtools.cachelint import RULES
from repro.devtools.common.baseline import write_baseline
from repro.devtools.common.pragmas import NAMESPACES
from repro.devtools.lint import FAMILIES, analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures" / "cachelint"

BAD_SOURCE = '''\
class Table:
    def __init__(self):
        self._rows = {}
        self._epoch = 0

    @property
    def epoch(self):
        return self._epoch

    def add(self, key, value):
        self._rows[key] = value
        self._epoch += 1


class Memo:
    def __init__(self, table: Table):
        self._table = table
        self._memo_cache = {}

    def compute(self, key):
        if key in self._memo_cache:
            return self._memo_cache[key]
        value = str(self._table)
        self._memo_cache[key] = value
        return value
'''


def write_bad_module(tmp_path: Path) -> Path:
    module = tmp_path / "mod.py"
    module.write_text(BAD_SOURCE, encoding="utf-8")
    return module


class TestBaseline:
    def test_baselined_findings_stop_blocking(self, tmp_path):
        module = write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"

        before = analyze([module], baseline=baseline)
        assert len(before.blocking) == 1

        write_baseline(before.findings, baseline)
        after = analyze([module], baseline=baseline)
        assert after.exit_code == 0
        assert len(after.baselined) == 1
        assert after.blocking == []


class TestCli:
    def test_fixture_fails_with_text_report(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "cache002_unkeyed.py"), "--no-baseline"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "CACHE002" in out
        assert "lint:" in out

    def test_json_format(self, capsys):
        code = main(
            [
                "lint", str(FIXTURES / "cache005_contract.py"),
                "--no-baseline", "--format", "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["blocking"] > 0
        assert {f["rule"] for f in payload["findings"]} == {"CACHE005"}

    def test_update_baseline_roundtrip(self, tmp_path, capsys):
        module = write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["lint", str(module), "--baseline", str(baseline),
             "--update-baseline"]
        ) == 0
        assert main(
            ["lint", str(module), "--baseline", str(baseline)]
        ) == 0
        assert main(
            ["lint", str(module), "--baseline", str(baseline),
             "--no-baseline"]
        ) == 1
        entries = json.loads(baseline.read_text())["entries"]
        assert entries and all(e["reason"] for e in entries)

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.code in out

    def test_dump_cachegraph_is_deterministic_json(self, capsys, repo_report):
        # Two independent passes over src/repro: the session's shared
        # one and this CLI run.
        args = [
            "lint", str(REPO_ROOT / "src" / "repro"),
            "--no-baseline", "--dump", "cachegraph",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert first == repo_report.graphs["cachegraph"].to_json() + "\n"
        payload = json.loads(first)
        assert set(payload) == {
            "sites", "epoch_bearing", "epoch_coupled", "primitive_classes", "ops",
        }
        site_names = {s["name"] for s in payload["sites"]}
        assert "SearchEngine._query_cache" in site_names
        assert "World.evidence_cache" in site_names
        # Every insert into the repo's caches carries an epoch component
        # (or the site is content-addressed and exempt from CACHE002).
        epoch_keyed = [
            op["epoch_keyed"]
            for ops in payload["ops"].values()
            for op in ops
            if op["kind"] == "insert" and op["site"] != "SnippetCache._cache"
        ]
        assert epoch_keyed and all(epoch_keyed)


class TestToolRegistry:
    """All four analyzers run as rule families of the one pass."""

    def test_registry_lists_all_four_analyzers(self):
        namespaces = [family.namespace for family in FAMILIES]
        assert namespaces == ["detlint", "conclint", "locklint", "cachelint"]
        # The pragma parser reads exactly the families' namespaces.
        assert namespaces == list(NAMESPACES)
