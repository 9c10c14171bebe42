"""Baseline, reporter and ``python -m repro lint`` behaviour on DET
findings — plus the meta-test that holds ``src/repro`` itself to the
determinism contract."""

import json
from pathlib import Path

from repro.__main__ import main
from repro.devtools.common.baseline import load_baseline, write_baseline
from repro.devtools.common.reporters import render_json, render_text
from repro.devtools.detlint import RULES
from repro.devtools.lint import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

BAD_SOURCE = "import random\nrng = random.Random(3)\nother = random.Random(3)\n"


def write_bad_module(tmp_path: Path) -> Path:
    module = tmp_path / "mod.py"
    module.write_text(BAD_SOURCE, encoding="utf-8")
    return module


class TestBaseline:
    def test_baselined_findings_stop_blocking(self, tmp_path):
        module = write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"

        before = analyze([module], baseline=baseline)
        assert len(before.blocking) == 2

        write_baseline(before.findings, baseline)
        after = analyze([module], baseline=baseline)
        assert after.exit_code == 0
        assert len(after.baselined) == 2
        assert after.blocking == []

    def test_new_findings_still_fail_beyond_allowance(self, tmp_path):
        module = write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"
        write_baseline(analyze([module], baseline=baseline).findings, baseline)

        # A third identical occurrence exceeds the grandfathered count=2.
        module.write_text(BAD_SOURCE + "third = random.Random(3)\n", encoding="utf-8")
        report = analyze([module], baseline=baseline)
        assert len(report.baselined) == 2
        # The *latest* occurrence is the one left blocking.
        assert [f.line for f in report.blocking] == [4]

    def test_keys_are_line_number_independent(self, tmp_path):
        module = write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"
        write_baseline(analyze([module], baseline=baseline).findings, baseline)

        # Unrelated edits above the grandfathered lines keep them matched.
        module.write_text("# a new comment\n\n" + BAD_SOURCE, encoding="utf-8")
        assert analyze([module], baseline=baseline).exit_code == 0

    def test_absolute_and_relative_paths_share_keys(self, tmp_path, monkeypatch):
        module = write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"
        write_baseline(analyze([module], baseline=baseline).findings, baseline)
        monkeypatch.chdir(tmp_path)
        assert analyze([Path("mod.py")], baseline=baseline).exit_code == 0
        assert load_baseline(baseline)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}


class TestReporters:
    def test_text_report_mentions_location_and_summary(self, tmp_path):
        report = analyze([write_bad_module(tmp_path)], baseline=None)
        text = render_text(report)
        assert "mod.py:2" in text
        assert "DET001" in text
        assert "2 blocking" in text

    def test_json_report_parses(self, tmp_path):
        report = analyze([write_bad_module(tmp_path)], baseline=None)
        payload = json.loads(render_json(report))
        assert payload["summary"]["blocking"] == 2
        assert {f["rule"] for f in payload["findings"]} == {"DET001"}


class TestCli:
    def test_lint_fixture_dir_fails(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "det001_rng.py"), "--no-baseline"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_json_format(self, capsys):
        code = main(
            [
                "lint", str(FIXTURES / "det002_clock.py"),
                "--no-baseline", "--format", "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["blocking"] > 0

    def test_update_baseline_roundtrip(self, tmp_path, capsys):
        module = write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["lint", str(module), "--baseline", str(baseline), "--update-baseline"]
        ) == 0
        assert main(["lint", str(module), "--baseline", str(baseline)]) == 0
        assert main(
            ["lint", str(module), "--baseline", str(baseline), "--no-baseline"]
        ) == 1
        entries = json.loads(baseline.read_text())["entries"]
        assert entries and all(e["reason"] for e in entries)

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.code in out


class TestRepositoryIsClean:
    """The meta-test: the library itself satisfies its own contract."""

    def test_src_repro_has_zero_nonbaselined_findings(self, repo_report):
        assert repo_report.files_checked > 50
        offenders = [
            f"{f.location()} {f.rule}"
            for f in repo_report.blocking
            if f.rule.startswith("DET")
        ]
        assert offenders == []

    def test_every_baseline_entry_is_documented(self):
        data = json.loads(
            (REPO_ROOT / ".lint-baseline.json").read_text(encoding="utf-8")
        )
        for entry in data["entries"]:
            assert entry["reason"]
            assert "TODO" not in entry["reason"]

    def test_all_six_rules_registered(self):
        codes = [rule.code for rule in RULES]
        assert codes == [f"DET00{i}" for i in range(1, 7)]
