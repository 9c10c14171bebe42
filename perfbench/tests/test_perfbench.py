"""Self-tests of the benchmark, on tiny sizes of all three workloads.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH
from layers import WORKLOADS, boundaries, layer_metrics, metric_specs
from run import END_TO_END, check, end_to_end, load_pins, per_layer, predictions
from tracing import Boundary, Span, Tracer, self_times
from workloads import run_rep

from repro.engines.base import AnswerEngine
from repro.search.engine import SearchEngine

ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def reps():
    """Untraced and traced tiny reps of every workload, same seed."""
    return {
        (workload, traced): run_rep(workload, seed=3, traced=traced, scale="tiny")
        for workload in WORKLOADS
        for traced in (False, True)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_every_digest_unchanged(reps, workload):
    untraced, traced = reps[workload, False], reps[workload, True]
    assert untraced["digests"] and traced["digests"] == untraced["digests"]
    assert untraced["failed"] == traced["failed"] == 0
    assert all(untraced["checks"].values()) and all(traced["checks"].values())
    assert not traced["missing_layers"]


def test_tracer_puts_every_original_back(reps):
    assert AnswerEngine.answer.__qualname__ == "AnswerEngine.answer"
    assert not hasattr(AnswerEngine.answer, "__wrapped__")
    assert not hasattr(SearchEngine.search, "__wrapped__")
    import repro.search.engine

    assert not hasattr(repro.search.engine.pagerank, "__wrapped__")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_work_where_the_table_says(reps, workload):
    assert not predictions(workload, [reps[workload, True]])


def test_hot_drain_touches_no_compute_layer_and_study_no_serve_layer(reps):
    hot = reps["serve_hot", True]["spans"]["run"]
    assert not [name for name in hot if name.startswith(("engines.retrieval.", "llm.", "search."))]
    study = reps["study", True]["spans"]
    assert not [name for phase in study.values() for name in phase if name.startswith("serve.")]


def test_a_boundary_that_no_longer_exists_is_a_missing_layer():
    tracer = Tracer().install(
        [
            Boundary("gone.module", "repro.no_such_module:function"),
            Boundary("gone.method", "repro.engines.base:AnswerEngine.no_such_method"),
        ]
    )
    tracer.uninstall()
    assert set(tracer.missing) == {"gone.module", "gone.method"}
    metrics = layer_metrics(tracer)
    assert set(metrics) == {name for name, _, _ in metric_specs()} - {"tracing.overhead_share"}
    assert not any(metrics.values())


def test_every_layer_boundary_resolves():
    tracer = Tracer().install(boundaries())
    tracer.uninstall()
    assert tracer.missing == {}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, None, "run", 1),
        Span(2, "child", 1.0, 4.0, 1, None, "run", 2),
        Span(3, "child", 3.0, 6.0, 1, None, "run", 3),
        Span(4, "child", 8.0, 12.0, 1, None, "run", 2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)


def _benchmark_names():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {metric["name"]: metric["unit"] for metric in config["end_to_end"]},
        {metric["name"]: metric["unit"] for metric in config["per_layer"]},
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_printed_name_is_in_benchmark_json(reps, workload):
    untraced, traced = [reps[workload, False]], [reps[workload, True]]
    expected_end_to_end, expected_per_layer = _benchmark_names()
    units = dict(END_TO_END)
    assert {name: units[name] for name in end_to_end(untraced)[0]} == expected_end_to_end
    units = {name: unit for name, unit, _ in metric_specs()}
    assert {name: units[name] for name in per_layer(untraced, traced)} == expected_per_layer
    assert all(NAME.fullmatch(name) for name in {**expected_end_to_end, **expected_per_layer})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_set_up_only_reps_count_only_in_setup_s(reps, workload):
    full = reps[workload, False]
    setup_only = run_rep(workload, seed=3, scale="tiny", setup_only=True)
    assert "run_s" not in setup_only and setup_only["setup_s"] > 0
    values, counts = end_to_end([full, setup_only])
    assert values["setup_s"] == pytest.approx((full["setup_s"] + setup_only["setup_s"]) / 2)
    assert values["run_s"] == full["run_s"]
    assert counts["setup_s"] == "median of 2 set-ups"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_gate_passes_reps_that_match_their_pins(reps, workload):
    rep = reps[workload, False]
    assert check([rep], rep["digests"]) == (rep["ops"], 0, [])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_development_and_held_out_seeds_are_pinned(workload):
    pins = load_pins()[workload]
    assert pins["7"] and pins["11"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_pin_fails_the_gate(reps, workload):
    rep = reps[workload, False]
    wrong = {op: "0" * 64 for op in rep["digests"]}
    attempted, failed, problems = check([rep], wrong)
    assert failed == (len(wrong) if workload == "study" else rep["ops"])
    assert problems


@pytest.mark.parametrize("workload", ["serve_cold", "serve_hot"])
def test_a_broken_serve_invariant_fails_the_drain(reps, workload):
    rep = copy.deepcopy(reps[workload, False])
    rep["checks"] = {name: False for name in rep["checks"]}
    attempted, failed, problems = check([rep], rep["digests"])
    assert failed == attempted == rep["ops"]
    assert problems


def test_a_drain_that_fails_twice_counts_each_request_once(reps):
    rep = copy.deepcopy(reps["serve_cold", False])
    rep["failed"] = 5  # e.g. degraded outcomes
    attempted, failed, problems = check([rep], {"drain": "0" * 64})
    assert failed == attempted == rep["ops"]
    assert problems


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
