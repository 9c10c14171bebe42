"""``python -m repro lint`` as one command: its options, exit codes,
pragma namespaces, baseline reasons, the ``LINT000``/``LINT001`` codes
of the pass itself, and the parser's import footprint.  Each family's
own findings through the command are pinned in ``test_<family>_cli``.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import _build_parser, main
from repro.devtools.lint import FAMILIES, analyze, rules

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

WORKER_MODULE = """\
from concurrent.futures import ProcessPoolExecutor

_SEEN = []


def _work(item):
    _SEEN.append(item){pragma}
    return item


def drive(items):
    with ProcessPoolExecutor() as pool:
        return [pool.submit(_work, item) for item in items]
"""


def write(path: Path, source: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint_json(capsys, *args: str) -> tuple[int, dict]:
    code = main(["lint", *args, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


class TestOneCommand:
    @pytest.mark.parametrize("command", ["conclint", "locklint", "cachelint"])
    def test_per_family_subcommands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--list-rules"])
        assert exit_info.value.code == 2

    def test_format_sarif_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", str(FIXTURES / "det004_hash.py"), "--format", "sarif"])
        assert exit_info.value.code == 2

    def test_list_rules_prints_every_family(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 21
        assert [line.split()[0] for line in lines] == [r.code for r in rules()]

    def test_dump_choices_are_the_family_graphs(self):
        parser = _build_parser()
        (sub,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (dump,) = [a for a in sub.choices["lint"]._actions if a.dest == "dump"]
        assert list(dump.choices) == [f.graph for f in FAMILIES if f.graph]

    @pytest.mark.parametrize("graph", ["callgraph", "lockgraph", "cachegraph"])
    def test_every_dump_is_deterministic_json(self, graph, capsys):
        args = ["lint", str(FIXTURES / "conclint"), "--dump", graph]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)

    def test_exit_codes_and_json_summary(self, tmp_path, capsys):
        clean = write(tmp_path / "clean.py", "VALUE = 1\n")
        code, payload = lint_json(capsys, str(clean), "--no-baseline")
        assert code == 0
        assert payload["summary"] == {
            "files": 1, "findings": 0, "blocking": 0, "waived": 0,
            "baselined": 0,
        }
        code, payload = lint_json(
            capsys, str(FIXTURES / "det004_hash.py"), "--no-baseline"
        )
        assert code == 1
        assert payload["summary"]["blocking"] == len(payload["findings"]) > 0


class TestMissingPath:
    def test_missing_path_argument_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "src" / "repr"
        assert main(["lint", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"lint: no such file or directory: {missing}"
        assert captured.out == ""

    def test_missing_default_path_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 2
        assert "no such file or directory: src/repro" in capsys.readouterr().err

    def test_path_neither_a_tree_nor_a_py_file_exits_2(self, tmp_path, capsys):
        readme = tmp_path / "README.md"
        readme.write_text("# not python\n")
        assert main(["lint", str(tmp_path), str(readme)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            f"lint: not a directory or a .py file: {readme}"
        )
        assert captured.out == ""


class TestPassFindings:
    def test_same_named_modules_are_not_merged(self, tmp_path, capsys):
        first = write(tmp_path / "a" / "pool.py", WORKER_MODULE.format(pragma=""))
        second = write(tmp_path / "b" / "pool.py", "VALUE = 1\nOTHER = 2\n")
        assert lint_json(capsys, str(first.parent), "--no-baseline")[0] == 1
        code, payload = lint_json(
            capsys, str(first.parent), str(second.parent), "--no-baseline"
        )
        assert code == 1
        by_rule = {f["rule"]: f for f in payload["findings"]}
        assert set(by_rule) == {"CONC001", "LINT001"}
        assert by_rule["CONC001"]["path"] == str(first)
        assert by_rule["LINT001"]["path"] == str(second)
        assert str(first) in by_rule["LINT001"]["message"]

    def test_unparseable_file_is_one_finding(self, tmp_path):
        broken = write(tmp_path / "broken.py", "def broken(:\n")
        findings = analyze([broken]).findings
        assert [(f.rule, f.path) for f in findings] == [("LINT000", str(broken))]


class TestPragmaNamespaces:
    @pytest.mark.parametrize(
        "namespace,waived", [("detlint", False), ("conclint", True)]
    )
    def test_only_the_findings_family_waives_it(
        self, namespace, waived, tmp_path, capsys
    ):
        pragma = f"  # {namespace}: ignore[CONC001] -- test"
        module = write(tmp_path / "mod.py", WORKER_MODULE.format(pragma=pragma))
        code, payload = lint_json(capsys, str(module), "--no-baseline")
        (finding,) = payload["findings"]
        assert finding["rule"] == "CONC001"
        assert finding["waived"] is waived
        assert code == (0 if waived else 1)


class TestBaselineReasons:
    def test_update_baseline_keeps_reasons(self, tmp_path, capsys):
        module = write(tmp_path / "mod.py", WORKER_MODULE.format(pragma=""))
        baseline = tmp_path / "baseline.json"
        args = ["lint", str(module), "--baseline", str(baseline)]
        assert main([*args, "--update-baseline"]) == 0
        data = json.loads(baseline.read_text())
        data["entries"][0]["reason"] = "documented on purpose"
        baseline.write_text(json.dumps(data))
        assert main([*args, "--update-baseline"]) == 0
        (entry,) = json.loads(baseline.read_text())["entries"]
        assert entry["reason"] == "documented on purpose"
        assert main(args) == 0
        assert main([*args, "--no-baseline"]) == 1


def test_building_the_parser_imports_no_analyzer():
    probe = (
        "import sys\n"
        "from repro.__main__ import _build_parser\n"
        "_build_parser()\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.devtools')))\n"
    )
    path = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.stdout.strip() == "[]"
