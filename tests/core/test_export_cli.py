"""Tests for JSON export and the command-line interface."""

import dataclasses
import enum
import json

import pytest

from repro.__main__ import _build_parser, _config, main as cli_main
from repro.core.export import result_to_dict, results_to_json


class Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass(frozen=True)
class Inner:
    values: tuple[float, ...]
    label: Color


@dataclasses.dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    mapping: dict[Color, float]
    maybe: float


class TestExport:
    def test_nested_dataclasses(self):
        result = Outer(
            name="x",
            inner=Inner(values=(1.0, 2.0), label=Color.RED),
            mapping={Color.RED: 0.5},
            maybe=float("nan"),
        )
        payload = result_to_dict(result)
        assert payload == {
            "name": "x",
            "inner": {"values": [1.0, 2.0], "label": "red"},
            "mapping": {"red": 0.5},
            "maybe": None,  # NaN -> null
        }

    def test_round_trips_through_json(self):
        result = Outer(
            name="y", inner=Inner(values=(3.0,), label=Color.RED),
            mapping={}, maybe=1.5,
        )
        text = results_to_json({"exp": result})
        assert json.loads(text)["exp"]["name"] == "y"

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            result_to_dict(42)

    def test_unserializable_value_rejected(self):
        @dataclasses.dataclass
        class Bad:
            thing: object

        with pytest.raises(TypeError, match="cannot serialize"):
            result_to_dict(Bad(thing=object()))

    def test_real_study_result_exports(self, fig1):
        payload = result_to_dict(fig1)
        assert "mean_overlap" in payload
        json.dumps(payload)  # fully serializable

    def test_sets_become_sorted_lists(self):
        @dataclasses.dataclass
        class WithSet:
            items: frozenset

        payload = result_to_dict(WithSet(items=frozenset({"b", "a"})))
        assert payload["items"] == ["a", "b"]


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table3" in out

    def test_calibration(self, capsys):
        assert cli_main(["calibration"]) == 0
        assert "EXPOSURE_ALPHA" in capsys.readouterr().out

    def test_shards_option_is_gone(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        parser = _build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["run", "fig1", "--shards", "4"])
        assert exc.value.code == 2
        # The environment no longer selects a substrate either.
        assert _config(parser.parse_args(["run", "fig1"])).search_shards == 0

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_corpus_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["world", "--corpus-scale", scale])
        assert exc.value.code == 2

    def test_unknown_experiment_is_an_error(self, capsys):
        assert cli_main(["run", "fig9"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_with_json_archive(self, tmp_path, capsys):
        target = tmp_path / "out" / "results.json"
        code = cli_main(["run", "table3", "--json", str(target)])
        assert code == 0
        assert "Table 3" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert "table3" in payload
        assert "overall_miss_rate" in payload["table3"]

    def test_world_command(self, capsys):
        assert cli_main(["world", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "pages:" in out and "engines:" in out

    def test_snapshot_command(self, tmp_path, capsys):
        target = tmp_path / "web.jsonl"
        assert cli_main(["snapshot", str(target), "--seed", "3"]) == 0
        assert "archived" in capsys.readouterr().out
        from repro.webgraph.serialize import load_corpus
        assert len(load_corpus(target)) > 1000

    def test_ask_command(self, capsys):
        assert cli_main(["ask", "most reliable electric cars"]) == 0
        out = capsys.readouterr().out
        assert "vertical: electric_cars" in out
        for engine in ("Google", "GPT-4o", "Claude", "Gemini", "Perplexity"):
            assert f"=== {engine} ===" in out

    def test_ask_with_explicit_vertical_and_full(self, capsys):
        assert cli_main(["ask", "what to choose", "--vertical", "hotels", "--full"]) == 0
        out = capsys.readouterr().out
        assert "vertical: hotels" in out

    def test_ask_uninferrable_vertical_errors(self, capsys):
        assert cli_main(["ask", "zzz qqq vvv"]) == 2
        assert "could not infer" in capsys.readouterr().err

    def test_replicate_command(self, capsys, monkeypatch):
        import repro.core.replication as replication_module
        from repro.core.replication import ReplicationReport
        from repro.stats.bootstrap import BootstrapResult

        def fake_replicate(seeds):
            return ReplicationReport(
                seeds=tuple(seeds),
                per_seed_metrics={s: {"m": 1.0} for s in seeds},
                metric_intervals={
                    "m": BootstrapResult(1.0, 1.0, 1.0, 0.95, 0)
                },
                claim_counts={"claim": len(seeds)},
            )

        monkeypatch.setattr(replication_module, "replicate", fake_replicate)
        assert cli_main(["replicate", "--seeds", "5", "6"]) == 0
        out = capsys.readouterr().out
        assert "Replication over 2 seeds" in out
        assert "2/2  claim" in out

    def test_replicate_rejects_repeated_seeds(self, capsys, monkeypatch):
        import repro.core.replication as replication_module

        def no_replicate(seeds):
            raise AssertionError("replicated with repeated seeds")

        monkeypatch.setattr(replication_module, "replicate", no_replicate)
        assert cli_main(["replicate", "--seeds", "1", "2", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seeds must be distinct, got: 1 2 1" in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [("--qps", "nan"), ("--burstiness", "inf"), ("--zipf-s", "nan")],
    )
    def test_serve_rejects_non_finite_profile_before_building(
        self, flag, value, capsys, monkeypatch
    ):
        from repro.core.world import World

        def no_build(config):
            raise AssertionError("built a world for a bad load profile")

        monkeypatch.setattr(World, "build", no_build)
        assert cli_main(["serve", flag, value]) == 2
        assert "bad load profile" in capsys.readouterr().err
