"""Baseline, ``python -m repro lint`` and ``--dump lockgraph``
behaviour on LOCK findings."""

import json
from pathlib import Path

from repro.__main__ import main
from repro.devtools.common.baseline import write_baseline
from repro.devtools.lint import analyze
from repro.devtools.locklint import RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures" / "locklint"

BAD_SOURCE = """\
import threading
import time


class Holder:
    def __init__(self):
        self._lock = threading.Lock()

    def nap(self):
        with self._lock:
            time.sleep(1.0)
"""


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
            ["lint", str(FIXTURES / "lock001_inversion.py"), "--no-baseline"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "LOCK001" in out
        assert "lint:" in out

    def test_json_format(self, capsys):
        code = main(
            [
                "lint", str(FIXTURES / "lock005_wait.py"),
                "--no-baseline", "--format", "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["blocking"] > 0
        assert {f["rule"] for f in payload["findings"]} == {"LOCK005"}

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

    def test_dump_lockgraph_is_deterministic_json(self, capsys, repo_report):
        # Two independent passes over src/repro: the session's shared
        # one and this CLI run.
        args = [
            "lint", str(REPO_ROOT / "src" / "repro"),
            "--no-baseline", "--dump", "lockgraph",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert first == repo_report.graphs["lockgraph"].to_json() + "\n"
        payload = json.loads(first)
        assert set(payload) == {"sites", "edges", "hierarchy"}
        # The one real held-across edge in the serving/resilience stack:
        # CircuitBreaker.allow() reads its injected clock under its lock.
        assert {
            (e["outer"], e["inner"]) for e in payload["edges"]
        } == {("CircuitBreaker._lock", "SimClock._lock")}
        site_names = {s["name"] for s in payload["sites"]}
        assert "ServeStats._lock" in site_names
        assert "SingleFlight._lock" in site_names

    def test_dump_on_fixture_shows_cycle_in_edges(self, capsys):
        assert main(
            ["lint", str(FIXTURES / "lock001_inversion.py"),
             "--no-baseline", "--dump", "lockgraph"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        pairs = {(e["outer"], e["inner"]) for e in payload["edges"]}
        assert ("Pair._a", "Pair._b") in pairs
        assert ("Pair._b", "Pair._a") in pairs
