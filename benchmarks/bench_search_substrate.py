"""Performance micro-benchmarks for the search substrate.

Not a paper artifact: these time the hot paths a downstream user pays
for — index construction, BM25 scoring, organic search end-to-end, and
PageRank over the link graph.

A ``pytest benchmarks/ --benchmark-only`` run records the substrate
timings into ``BENCH_search.json`` at the repo root (see
``conftest.pytest_sessionfinish``); ``tools/perf_smoke.py`` compares
live fast-vs-reference speedups against the ratios pinned there.
"""

from repro.search.bm25 import BM25Scorer
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.pagerank import pagerank


def test_bench_index_build(benchmark, world):
    def build():
        index = InvertedIndex()
        index.add_all(world.corpus.pages)
        return index

    index = benchmark(build)
    assert index.doc_count == len(world.corpus)


def test_bench_bm25_query(benchmark, world):
    scorer = BM25Scorer(world.search_engine.index)
    scores = benchmark(scorer.score_all, "top 10 most reliable smartphones 2025")
    assert scores


def test_bench_organic_search(benchmark, world):
    results = benchmark(world.search_engine.search, "best laptops for students", 10)
    assert results


def test_bench_pagerank(benchmark, world):
    ranks = benchmark(pagerank, world.corpus.link_graph)
    assert abs(sum(ranks.values()) - 1.0) < 1e-6


def test_bench_engine_answer(benchmark, world):
    from repro.entities.queries import ranking_queries

    query = ranking_queries(world.catalog, count=1, seed=9)[0]
    answer = benchmark(world.engines["GPT-4o"].answer, query)
    assert answer.citations


def test_bench_mixed_query_workload(benchmark, world):
    """Paper-shaped query mix through the full query path, cache-cold.

    The workload mirrors the study's query composition (ranking-heavy,
    plus comparison and intent queries) and runs both ``search`` and
    ``search_with_snippets``.  The query-result cache is cleared every
    round so the number measures ranking work, not cache hits; the
    snippet and index-side tables stay warm, as they do mid-study.
    """
    from repro.entities.queries import (
        comparison_queries,
        intent_queries,
        ranking_queries,
    )

    catalog = world.catalog
    texts = [q.text for q in ranking_queries(catalog, count=40, seed=5)]
    texts += [
        q.text
        for q in comparison_queries(catalog, n_popular=10, n_niche=10, seed=5)
    ]
    texts += [q.text for q in intent_queries(catalog, count=20, seed=5)]
    engine = world.search_engine

    def run() -> int:
        engine.clear_query_cache()
        hits = 0
        for text in texts:
            hits += len(engine.search(text, 10))
        for text in texts[:15]:
            hits += len(engine.search_with_snippets(text, k=6))
        return hits

    assert benchmark(run) > 0


def test_bench_search_engine_construction(benchmark, world):
    engine = benchmark.pedantic(
        lambda: SearchEngine(world.corpus, world.registry), rounds=2, iterations=1
    )
    assert engine.search("best hotels", k=5)
