"""Oracle tests: the partial merge over surviving shards is exact.

When a shard is lost past the resilience ladder, the scatter degrades
to a merge over the survivors.  The contract is still float-exactness,
just over a smaller universe: for *any* seed and shard count, killing
shard ``i`` with an unrecoverable ``search.shard@i`` plan must produce
exactly the reference-style ranking of the documents the surviving
shards scored — same urls, same floats, same crowding — with
``max_bm25`` renormalized over the survivors.  The oracle below is the
reference pipeline rebuilt from per-shard score dicts (full sort, then
crowding), deliberately independent of ``_rank_fast``'s bounded-heap
prefix and fallback machinery.

Recoverable plans must leave no trace at all: they recover inside the
retry ladder, so results, the coverage log, and the query cache all
match a clean run byte for byte.
"""

import pytest

from repro.resilience import (
    FaultPlan,
    ResilienceConfig,
    ResilienceContext,
)
from repro.search.engine import SearchEngine
from repro.search.sharding import ShardedSearchEngine
from repro.search.tokenize import tokenize

from tests.search.test_sharded_equivalence import (
    SHARD_COUNTS,
    _sparse_page,
    _tiny_corpus,
    _workload,
    shard_world,  # noqa: F401 - module-scoped fixture, re-registered here
    sharded_engines,  # noqa: F401 - module-scoped fixture, re-registered here
)


def _context(plan_text: str, seed: int = 0) -> ResilienceContext:
    return ResilienceContext(
        ResilienceConfig(plan=FaultPlan.parse(plan_text, seed=seed))
    )


def _expected_partial(engine, query: str, dead: set[int], k: int):
    """The reference oracle: blend + full sort + crowding over exactly
    the documents the surviving shards would score."""
    terms = tuple(tokenize(query))
    merged: dict[int, float] = {}
    for shard_id, scorer in enumerate(engine._shard_scorers()):
        if shard_id in dead:
            continue
        merged.update(scorer.score_terms(terms))
    if not merged:
        return []
    max_bm25 = max(merged.values())
    index = engine.index
    clock = engine._corpus.clock
    candidates = []
    for doc_id, raw in merged.items():
        page = index.page(doc_id)
        relevance = raw / max_bm25 if max_bm25 else 0.0
        blended = engine._weights.blend(
            relevance=relevance,
            authority=engine.domain_authority(page.domain),
            on_page_seo=page.seo_score,
            age_days=clock.age_days(page.published),
        )
        candidates.append((blended, doc_id, page))
    candidates.sort(key=lambda item: (-item[0], item[1]))
    results = []
    per_domain: dict[str, int] = {}
    for score, doc_id, page in candidates:
        seen = per_domain.get(page.domain, 0)
        if seen >= engine._max_per_domain:
            continue
        per_domain[page.domain] = seen + 1
        results.append((page.url, score))
        if len(results) == k:
            break
    return results


class TestPartialMergeOracle:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_single_dead_shard_matches_survivor_oracle(
        self, shard_world, sharded_engines, shards
    ):
        """Every seed x shard count x dead shard: the degraded page is
        float-exact equal to the survivors-only reference ranking."""
        seed, catalog, __, __, __ = shard_world
        engine = sharded_engines(shards)
        engine.clear_query_cache()
        queries = _workload(catalog, seed)[:6]
        try:
            for dead in range(shards):
                ctx = _context(f"search.shard@{dead}:1.0:inf")
                engine.set_resilience(ctx)
                for query in queries:
                    got = [
                        (r.url, r.score) for r in engine.search(query, 10)
                    ]
                    assert got == _expected_partial(
                        engine, query, {dead}, 10
                    )
                # Non-empty queries each record exactly one coverage loss.
                records = ctx.coverage.records()
                assert all(r.missing == (dead,) for r in records)
                assert all(r.total_shards == shards for r in records)
                assert all(r.surviving == shards - 1 for r in records)
        finally:
            engine.set_resilience(None)

    def test_two_dead_shards(self, shard_world, sharded_engines):
        seed, catalog, __, __, __ = shard_world
        engine = sharded_engines(4)
        engine.clear_query_cache()
        ctx = _context("search.shard@1:1.0:inf,search.shard@3:1.0:inf")
        engine.set_resilience(ctx)
        try:
            for query in _workload(catalog, seed)[:6]:
                got = [(r.url, r.score) for r in engine.search(query, 10)]
                assert got == _expected_partial(engine, query, {1, 3}, 10)
            records = ctx.coverage.records()
            assert all(r.missing == (1, 3) for r in records)
            assert all(r.fraction == 0.5 for r in records)
        finally:
            engine.set_resilience(None)

    def test_all_shards_dead_is_an_empty_page(
        self, shard_world, sharded_engines
    ):
        """Total loss degrades to an empty page with provenance — never
        a hang, an exception, or a silently truncated ranking."""
        seed, catalog, __, __, __ = shard_world
        engine = sharded_engines(2)
        engine.clear_query_cache()
        ctx = _context("search.shard:1.0:inf")
        engine.set_resilience(ctx)
        try:
            query = _workload(catalog, seed)[0]
            assert engine.search(query, 10) == []
            (record,) = ctx.coverage.records()
            assert record.missing == (0, 1)
            assert record.surviving == 0
            assert record.fraction == 0.0
        finally:
            engine.set_resilience(None)

    def test_crowding_fallback_inside_partial_merge(
        self, shard_world, monkeypatch
    ):
        """max_per_domain=1 exhausts the merged headroom prefix; the
        full-union fallback must reproduce the survivor oracle too."""
        seed, catalog, registry, corpus, __ = shard_world
        engine = ShardedSearchEngine(
            corpus, registry, max_per_domain=1, shards=4
        )
        engine.set_resilience(_context("search.shard@2:1.0:inf"))
        crowd_calls = []
        original = SearchEngine._crowd

        def spy(self, ordered, k):
            crowd_calls.append(len(ordered))
            return original(self, ordered, k)

        monkeypatch.setattr(SearchEngine, "_crowd", spy)
        fallbacks = 0
        for query in _workload(catalog, seed):
            for k in (5, 10):
                crowd_calls.clear()
                got = [(r.url, r.score) for r in engine.search(query, k)]
                if len(crowd_calls) == 2:
                    fallbacks += 1
                assert got == _expected_partial(engine, query, {2}, k)
        assert fallbacks > 0, "workload never exhausted the merged headroom"

    def test_tiny_corpus_shard_loss(self):
        """A shard whose loss removes specific known documents: the
        survivors' documents still rank, the dead shard's never appear."""
        pages = [
            _sparse_page(0, "Best smartphones", "Apple and Samsung lead."),
            _sparse_page(1, "Smartphone cameras", "Quality by smartphone."),
            _sparse_page(2, "Smartphone batteries", "Lasting smartphone."),
            _sparse_page(3, "Smartphone screens", "Bright smartphone."),
        ]
        corpus = _tiny_corpus(pages)
        from repro.webgraph.domains import build_default_registry

        engine = ShardedSearchEngine(
            corpus, build_default_registry(), shards=2, max_per_domain=4
        )
        engine.set_resilience(_context("search.shard@1:1.0:inf"))
        results = engine.search("smartphone", 4)
        # Shard 1 owns the odd doc_ids; only even ids survive.
        assert sorted(r.page.doc_id for r in results) == [0, 2]
        assert [(r.url, r.score) for r in results] == _expected_partial(
            engine, "smartphone", {1}, 4
        )


class TestRecoverablePlansAreInvisible:
    @pytest.mark.parametrize("kind", ["error", "crash"])
    def test_results_and_cache_identical_to_clean_run(
        self, shard_world, sharded_engines, kind
    ):
        """failures=2 recovers at attempt 3 (inside the default ladder):
        results, coverage, and cacheability all match a clean run."""
        seed, catalog, __, __, single = shard_world
        engine = sharded_engines(4)
        ctx = _context(f"search.shard:0.5:2:{kind}", seed=7)
        engine.set_resilience(ctx)
        try:
            engine.clear_query_cache()
            for query in _workload(catalog, seed)[:8]:
                chaotic = [(r.url, r.score) for r in engine.search(query, 10)]
                clean = [(r.url, r.score) for r in single.search(query, 10)]
                assert chaotic == clean
            assert ctx.coverage.count() == 0
            assert ctx.events.get("faults_injected") > 0
            assert ctx.events.get("retries") == ctx.events.get(
                "faults_injected"
            )
            assert ctx.events.get("exhausted") == 0
            # Recovered pages are full coverage, so they memoize.
            before = engine.query_cache_stats()
            query = _workload(catalog, seed)[0]
            engine.search(query, 10)
            assert engine.query_cache_stats().hits == before.hits + 1
        finally:
            engine.set_resilience(None)

    def test_partial_pages_never_enter_the_query_cache(
        self, shard_world, sharded_engines
    ):
        """A degraded page must not be memoized: the moment the plan is
        lifted (the shard 'recovers'), the same query regains full
        coverage instead of replaying the cached partial merge."""
        seed, catalog, __, __, single = shard_world
        engine = sharded_engines(4)
        query = _workload(catalog, seed)[0]
        engine.clear_query_cache()
        engine.set_resilience(_context("search.shard@0:1.0:inf"))
        try:
            partial = engine.search(query, 10)
            counters = engine.query_cache_stats()
            assert counters.misses == 0 and counters.hits == 0
        finally:
            engine.set_resilience(None)
        recovered = engine.search(query, 10)
        full = [(r.url, r.score) for r in single.search(query, 10)]
        assert [(r.url, r.score) for r in recovered] == full
        assert [(r.url, r.score) for r in partial] != full

    @pytest.mark.parametrize("kind", ["error", "crash"])
    def test_degraded_scatter_is_quarantined_with_provenance(
        self, shard_world, sharded_engines, kind
    ):
        seed, catalog, __, __, __ = shard_world
        engine = sharded_engines(4)
        engine.clear_query_cache()
        ctx = _context(f"search.shard@1:1.0:inf:{kind}")
        engine.set_resilience(ctx)
        try:
            query = _workload(catalog, seed)[0]
            engine.search(query, 10)
        finally:
            engine.set_resilience(None)
        (record,) = ctx.quarantine.records()
        assert record.site == "search.shard"
        assert record.kind == "degraded"
        assert record.reason == f"shard 1: {kind} fault persisted"
        assert record.attempts == 3  # the full default ladder
        assert ctx.events.get("shard_scatter_losses") == 1
