"""Baseline, ``python -m repro lint`` and ``--dump callgraph``
behaviour on CONC findings — plus the meta-test that holds
``src/repro`` itself to the parallel sharing contract."""

import json
from pathlib import Path

from repro.__main__ import main
from repro.devtools.common.baseline import write_baseline
from repro.devtools.conclint import RULES
from repro.devtools.lint import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures" / "conclint"

BAD_SOURCE = """\
_STATE = {}


def _worker(item):
    _STATE[item] = True
    return item


def drive(pool, items):
    return [pool.submit(_worker, item) for item in items]
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

    def test_new_findings_still_fail_beyond_allowance(self, tmp_path):
        module = write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"
        write_baseline(
            analyze([module], baseline=baseline).findings, baseline
        )

        # A second identical write exceeds the grandfathered count=1.
        module.write_text(
            BAD_SOURCE.replace(
                "    return item\n",
                "    _STATE[item] = True\n    return item\n",
                1,
            ),
            encoding="utf-8",
        )
        report = analyze([module], baseline=baseline)
        assert len(report.baselined) == 1
        assert len(report.blocking) == 1


class TestCli:
    def test_fixture_fails_with_text_report(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "conc001_globals.py"), "--no-baseline"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "CONC001" in out
        assert "lint:" in out

    def test_json_format(self, capsys):
        code = main(
            [
                "lint", str(FIXTURES / "conc005_rng.py"),
                "--no-baseline", "--format", "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["blocking"] > 0
        # One pass reports every family: the shared module-level
        # random.Random is also an ad-hoc RNG.
        assert {f["rule"] for f in payload["findings"]} == {"CONC005", "DET001"}

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

    def test_dump_callgraph_is_deterministic_json(self, capsys):
        args = [
            "lint", str(FIXTURES / "conc001_globals.py"),
            "--no-baseline", "--dump", "callgraph",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {
            "modules", "functions", "edges", "entry_points", "reachable",
        }
        assert payload["entry_points"]


class TestRepositoryIsClean:
    """The meta-test: the runner's sharing contract holds in src/repro."""

    def test_src_repro_has_zero_nonbaselined_findings(self, repo_report):
        assert repo_report.files_checked > 50
        offenders = [
            f"{f.location()} {f.rule}"
            for f in repo_report.blocking
            if f.rule.startswith("CONC")
        ]
        assert offenders == []

    def test_checked_in_baseline_is_empty_or_documented(self):
        data = json.loads(
            (REPO_ROOT / ".lint-baseline.json").read_text(encoding="utf-8")
        )
        for entry in data["entries"]:
            assert entry["reason"]
            assert "TODO" not in entry["reason"]

    def test_engine_answer_hierarchy_is_worker_reachable(self, repo_report):
        # The reachability premise behind the whole analysis: every
        # engine's answer path must be in the worker-reachable set.
        reachable = repo_report.graphs["callgraph"].reachable
        assert "repro.core.runner._answer_chunk" in reachable
        assert "repro.engines.base.AnswerEngine.answer" in reachable
        assert (
            "repro.engines.generative.GenerativeEngine._answer_uncached"
            in reachable
        )

    def test_all_five_rules_registered(self):
        codes = [rule.code for rule in RULES]
        assert codes == [f"CONC00{i}" for i in range(1, 6)]
