"""Perf smoke gate for the search-substrate fast path.

Measures the *speedup ratio* between each fast path and its in-tree
reference implementation — search vs ``search_reference`` (cache-cold),
``score_terms`` vs ``score_terms_reference``, and the warm snippet cache
vs ``extract_snippet`` — and fails if any live ratio has regressed more
than 25% below the ratio recorded in ``BENCH_search.json``.

Comparing ratios rather than wall-clock times makes the gate
hardware-independent: a slow CI box slows the fast path and the
reference alike, so the quotient is stable where absolute numbers are
not.  Each round times the reference and the fast path back to back and
the gate reads the median of the per-round quotients, the idiom of
``tools/serve_smoke.py``'s ``warm_overhead``: both halves of a quotient
run under the same passing load, so a host slowdown between rounds
moves no quotient much.

Usage:
    python tools/perf_smoke.py            # gate against recorded ratios
    python tools/perf_smoke.py --update   # re-record ratios after a
                                          # deliberate perf change
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
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
from repro.search.snippets import SnippetCache, extract_snippet
from repro.search.tokenize import tokenize
from repro.webgraph.corpus import CorpusConfig, CorpusGenerator
from repro.webgraph.domains import build_default_registry

BENCH_JSON = REPO_ROOT / "BENCH_search.json"

#: A live ratio below ``TOLERANCE`` x the recorded ratio fails the gate.
TOLERANCE = 0.75

#: Timing rounds per quotient; the gate reads their median.
REPEATS = 5


def _workload(catalog) -> list[str]:
    texts = [q.text for q in ranking_queries(catalog, count=15, seed=7)]
    texts += [
        q.text
        for q in comparison_queries(catalog, n_popular=5, n_niche=5, seed=7)
    ]
    texts += [q.text for q in intent_queries(catalog, count=8, seed=7)]
    return texts


def _paired_ratio(reference, fast) -> float:
    """Median over ``REPEATS`` rounds of ``reference`` time / ``fast``
    time, the two timed back to back within each round."""
    ratios = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference()
        middle = time.perf_counter()
        fast()
        ratios.append((middle - start) / (time.perf_counter() - middle))
    return statistics.median(ratios)


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
        "organic_search": _paired_ratio(search_reference, search_fast),
        "bm25_score_terms": _paired_ratio(bm25_reference, bm25_fast),
        "snippet_extraction": _paired_ratio(snippets_reference, snippets_fast),
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

    if args.update:
        payload["smoke_ratios"] = {
            name: round(ratio, 2) for name, ratio in live.items()
        }
        BENCH_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        for name, ratio in sorted(live.items()):
            print(f"recorded {name}: {ratio:.2f}x")
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

    if failures:
        print("perf smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
