"""Perf smoke gate for the search-substrate fast path.

Measures the *speedup ratio* between each fast path and its in-tree
reference implementation — search vs ``search_reference`` (cache-cold),
``score_terms`` vs ``score_terms_reference``, and the warm snippet cache
vs ``extract_snippet`` — and fails if any live ratio has regressed more
than 25% below the ratio recorded in ``BENCH_search.json``.

Comparing ratios rather than wall-clock times makes the gate
hardware-independent: a slow CI box slows the fast path and the
reference alike, so the quotient is stable where absolute numbers are
not.

The gate also measures the **sharded index build** at a 10x corpus: a
sequential single-index build vs a 4-shard, 4-builder parallel build
(:func:`repro.search.sharding.build_shard_indexes`).  That quotient is
*not* hardware-independent — it scales with cores — so the gate is
CPU-aware: on a box with >= 4 usable CPUs the parallel build must beat
the sequential one by ``PARALLEL_BUILD_FLOOR``; on narrower boxes (where
fork+pickle overhead makes true speedup impossible) the live quotient is
compared against the recorded one only when both were measured at the
same CPU count, and reported informationally otherwise.

Usage:
    python tools/perf_smoke.py            # gate against recorded ratios
    python tools/perf_smoke.py --update   # re-record ratios after a
                                          # deliberate perf change
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.entities import build_default_catalog
from repro.entities.queries import (
    comparison_queries,
    intent_queries,
    ranking_queries,
)
from repro.search.bm25 import BM25Scorer
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.sharding import build_shard_indexes, partition_pages
from repro.search.snippets import SnippetCache, extract_snippet
from repro.search.tokenize import tokenize
from repro.webgraph.corpus import CorpusConfig, CorpusGenerator
from repro.webgraph.domains import build_default_registry

BENCH_JSON = REPO_ROOT / "BENCH_search.json"

#: A live ratio below ``TOLERANCE`` x the recorded ratio fails the gate.
TOLERANCE = 0.75

#: Timing repeats; best-of-N suppresses scheduler noise.
REPEATS = 5

#: Sharded-build measurement: shards/builders and the corpus multiplier
#: (10x the default page density) the acceptance target is stated at.
BUILD_SHARDS = 4
BUILD_SCALE = 10.0

#: On a box with >= PARALLEL_BUILD_MIN_CPUS usable CPUs the parallel
#: build must be at least PARALLEL_BUILD_FLOOR x faster than the
#: sequential single-index build.  Below that the floor cannot
#: physically hold (the builders share cores) and the gate falls back
#: to comparing against the recorded same-CPU-count quotient.
PARALLEL_BUILD_MIN_CPUS = 4
PARALLEL_BUILD_FLOOR = 2.0

#: Build timing repeats (each repeat is seconds, not microseconds).
BUILD_REPEATS = 2


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _workload(catalog) -> list[str]:
    texts = [q.text for q in ranking_queries(catalog, count=15, seed=7)]
    texts += [
        q.text
        for q in comparison_queries(catalog, n_popular=5, n_niche=5, seed=7)
    ]
    texts += [q.text for q in intent_queries(catalog, count=8, seed=7)]
    return texts


def _best_of(fn, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` wall time of ``fn()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_ratios() -> dict[str, float]:
    catalog = build_default_catalog()
    registry = build_default_registry()
    corpus = CorpusGenerator(registry, catalog, CorpusConfig(seed=7)).generate()
    engine = SearchEngine(corpus, registry)
    scorer = BM25Scorer(engine.index)
    texts = _workload(catalog)
    term_lists = [tokenize(text) for text in texts]
    pages = corpus.pages[:200]

    def search_fast():
        # Cold ranking: the query cache must not absorb the work.
        engine.clear_query_cache()
        for text in texts:
            engine.search(text, 10)

    def search_reference():
        for text in texts:
            engine.search_reference(text, 10)

    def bm25_fast():
        for terms in term_lists:
            scorer.score_terms(terms)

    def bm25_reference():
        for terms in term_lists:
            scorer.score_terms_reference(terms)

    snippet_cache = SnippetCache()
    query = texts[0]
    for page in pages:  # warm the sentence cache: steady-state behaviour
        snippet_cache.extract(page, query)

    def snippets_fast():
        for page in pages:
            snippet_cache.extract(page, query)

    def snippets_reference():
        for page in pages:
            extract_snippet(page, query)

    # Warm every path once before timing.
    search_fast(), search_reference(), bm25_fast(), bm25_reference()
    return {
        "organic_search": _best_of(search_reference) / _best_of(search_fast),
        "bm25_score_terms": _best_of(bm25_reference) / _best_of(bm25_fast),
        "snippet_extraction": _best_of(snippets_reference)
        / _best_of(snippets_fast),
    }


def measure_sharded_build() -> dict:
    """Sequential single-index vs parallel sharded build at 10x corpus."""
    catalog = build_default_catalog()
    registry = build_default_registry()
    corpus = CorpusGenerator(
        registry,
        catalog,
        CorpusConfig(seed=7, pages_per_volume_unit=2.0 * BUILD_SCALE),
    ).generate()
    pages = corpus.pages
    groups = partition_pages(pages, BUILD_SHARDS)

    def sequential_single():
        index = InvertedIndex()
        index.add_all(pages)
        index.freeze()

    def parallel_sharded():
        build_shard_indexes(
            groups, builders=BUILD_SHARDS, executor="process"
        )

    sequential_single(), parallel_sharded()  # warm allocators/pools once
    sequential = _best_of(sequential_single, BUILD_REPEATS)
    parallel = _best_of(parallel_sharded, BUILD_REPEATS)
    return {
        "speedup": sequential / parallel,
        "sequential_s": round(sequential, 3),
        "parallel_s": round(parallel, 3),
        "cpus": _usable_cpus(),
        "corpus_pages": len(pages),
        "corpus_scale": BUILD_SCALE,
        "shards": BUILD_SHARDS,
        "builders": BUILD_SHARDS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update",
        action="store_true",
        help="record the measured ratios into BENCH_search.json",
    )
    args = parser.parse_args(argv)

    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    live = measure_ratios()
    live_build = measure_sharded_build()

    if args.update:
        payload["smoke_ratios"] = {
            name: round(ratio, 2) for name, ratio in live.items()
        }
        gate = dict(live_build)
        gate["speedup"] = round(gate["speedup"], 2)
        payload.setdefault("sharded_build", {})["gate"] = gate
        BENCH_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        for name, ratio in sorted(live.items()):
            print(f"recorded {name}: {ratio:.2f}x")
        print(
            f"recorded sharded_build_speedup: {gate['speedup']:.2f}x "
            f"({gate['cpus']} cpus, {gate['corpus_pages']} pages)"
        )
        return 0

    recorded = payload.get("smoke_ratios")
    if not recorded:
        print("no smoke_ratios in BENCH_search.json; run with --update first")
        return 2

    failures = []
    for name, floor_ratio in sorted(recorded.items()):
        measured = live.get(name)
        if measured is None:
            failures.append(f"{name}: recorded but not measured")
            continue
        threshold = TOLERANCE * floor_ratio
        verdict = "ok" if measured >= threshold else "REGRESSED"
        print(
            f"{name}: {measured:.2f}x live vs {floor_ratio:.2f}x recorded "
            f"(floor {threshold:.2f}x) {verdict}"
        )
        if measured < threshold:
            failures.append(
                f"{name}: {measured:.2f}x < {threshold:.2f}x "
                f"(>25% below recorded {floor_ratio:.2f}x)"
            )

    # Sharded-build gate: CPU-aware (see module docstring).
    speedup = live_build["speedup"]
    cpus = live_build["cpus"]
    recorded_build = payload.get("sharded_build", {}).get("gate")
    if cpus >= PARALLEL_BUILD_MIN_CPUS:
        verdict = "ok" if speedup >= PARALLEL_BUILD_FLOOR else "REGRESSED"
        print(
            f"sharded_build_speedup: {speedup:.2f}x live on {cpus} cpus "
            f"(absolute floor {PARALLEL_BUILD_FLOOR:.2f}x) {verdict}"
        )
        if speedup < PARALLEL_BUILD_FLOOR:
            failures.append(
                f"sharded_build_speedup: {speedup:.2f}x < "
                f"{PARALLEL_BUILD_FLOOR:.2f}x on {cpus} cpus"
            )
    elif recorded_build and recorded_build.get("cpus") == cpus:
        floor = TOLERANCE * recorded_build["speedup"]
        verdict = "ok" if speedup >= floor else "REGRESSED"
        print(
            f"sharded_build_speedup: {speedup:.2f}x live vs "
            f"{recorded_build['speedup']:.2f}x recorded on {cpus} cpus "
            f"(floor {floor:.2f}x) {verdict}"
        )
        if speedup < floor:
            failures.append(
                f"sharded_build_speedup: {speedup:.2f}x < {floor:.2f}x "
                f"(>25% below recorded {recorded_build['speedup']:.2f}x)"
            )
    else:
        # Too few CPUs for the absolute floor and no same-width
        # baseline: report without gating rather than compare quotients
        # measured under different parallelism.
        print(
            f"sharded_build_speedup: {speedup:.2f}x live on {cpus} cpus "
            "(informational: no same-CPU-count baseline recorded)"
        )

    if failures:
        print("perf smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
