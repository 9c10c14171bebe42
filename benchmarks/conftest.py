"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper artifact (figure or table) and saves
the rendered rows/series under ``benchmarks/results/`` so a
``pytest benchmarks/ --benchmark-only`` run leaves the reproduced numbers
on disk next to the timing data.

Scale: ``REPRO_BENCH_SCALE=paper`` runs the paper's full workload sizes
(1,000 ranking queries, 10 perturbation runs, ...); the default ``fast``
profile uses reduced sizes that preserve every shape conclusion and keep
the whole suite within a couple of minutes.
"""

import json
import os
import pathlib

import pytest

from repro.core import StudyConfig, World
from repro.core.config import WorkloadSizes
from repro.core.study import ComparativeStudy

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_search.json"

FAST_SIZES = WorkloadSizes(
    ranking_queries=250,
    comparison_popular=50,
    comparison_niche=50,
    intent_queries=150,
    freshness_queries_per_vertical=30,
    perturbation_queries=16,
    perturbation_runs=8,
    pairwise_queries=8,
    citation_queries=60,
)

PAPER_SIZES = WorkloadSizes()


def _sizes() -> WorkloadSizes:
    if os.environ.get("REPRO_BENCH_SCALE", "fast") == "paper":
        return PAPER_SIZES
    return FAST_SIZES


@pytest.fixture(scope="session")
def world():
    return World.build(StudyConfig(seed=7, sizes=_sizes()))


@pytest.fixture(scope="session")
def study(world):
    return ComparativeStudy(world)


def pytest_sessionfinish(session, exitstatus):
    """Record search-substrate timings into ``BENCH_search.json``.

    Substrate benches are rewritten into the ``last_run`` section.
    The checked-in ``baseline``
    (pre/post fast-path numbers) and ``smoke_ratios`` (consumed by
    ``tools/perf_smoke.py``) sections are preserved.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    timings = {}
    for bench in bench_session.benchmarks:
        if "bench_search_substrate" not in bench.fullname or bench.has_error:
            continue
        stats = bench.stats
        entry = {
            "mean_ns": round(stats.mean * 1e9, 1),
            "median_ns": round(stats.median * 1e9, 1),
            "min_ns": round(stats.min * 1e9, 1),
            "stddev_ns": round(stats.stddev * 1e9, 1),
            "rounds": stats.rounds,
        }
        timings[bench.name] = entry
    if not timings:
        return
    payload = {}
    if BENCH_JSON.exists():
        try:
            payload = json.loads(BENCH_JSON.read_text())
        except ValueError:
            payload = {}
    payload["last_run"] = {
        "scale": os.environ.get("REPRO_BENCH_SCALE", "fast"),
        "benchmarks": timings,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def record_result():
    """Writer that persists a rendered artifact under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(experiment_id: str, text: str) -> None:
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return write
