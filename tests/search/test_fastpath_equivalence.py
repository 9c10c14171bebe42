"""Property tests: the query fast path is byte-identical to the reference.

The tentpole contract of the search substrate: ``SearchEngine.search``,
``search_with_snippets``, and ``BM25Scorer.score_terms`` must reproduce
their reference implementations *bit for bit* — same rankings, same
float scores, same snippet strings — across seeds and corpus scales.
Every assertion here is exact equality, never ``approx``.
"""

import datetime as dt

import pytest

from repro.entities import build_default_catalog
from repro.entities.queries import (
    comparison_queries,
    intent_queries,
    ranking_queries,
)
from repro.search.bm25 import BM25Scorer
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.seo import SeoWeights
from repro.search.snippets import SnippetCache, extract_snippet
from repro.search.tokenize import tokenize
from repro.webgraph.corpus import CorpusConfig, CorpusGenerator
from repro.webgraph.domains import build_default_registry
from repro.webgraph.pages import DateMarkup, Page, PageKind

SEEDS = (3, 11, 23)
SCALES = (0.7, 1.4)  # pages_per_volume_unit: half and 1.4x default density


@pytest.fixture(
    scope="module",
    params=[(seed, scale) for seed in SEEDS for scale in SCALES],
    ids=[f"seed{seed}-ppu{scale}" for seed in SEEDS for scale in SCALES],
)
def eq_world(request):
    seed, scale = request.param
    catalog = build_default_catalog()
    registry = build_default_registry()
    corpus = CorpusGenerator(
        registry, catalog, CorpusConfig(seed=seed, pages_per_volume_unit=scale)
    ).generate()
    return seed, catalog, registry, corpus, SearchEngine(corpus, registry)


def _workload(catalog, seed):
    """A mixed query workload: every query shape plus edge probes."""
    texts = [q.text for q in ranking_queries(catalog, count=10, seed=seed)]
    texts += [
        q.text
        for q in comparison_queries(catalog, n_popular=4, n_niche=4, seed=seed)
    ]
    texts += [q.text for q in intent_queries(catalog, count=6, seed=seed)]
    texts += [
        "qwzx flibber",          # matches nothing
        "best smartphones",      # broad head query
        "where to buy running shoes deals",
    ]
    return texts


class TestSearchEquivalence:
    @pytest.mark.parametrize("k", (1, 3, 10))
    def test_search_matches_reference_exactly(self, eq_world, k):
        seed, catalog, __, __, engine = eq_world
        for query in _workload(catalog, seed):
            fast = engine.search(query, k)
            ref = engine.search_reference(query, k)
            assert len(fast) == len(ref)
            for a, b in zip(fast, ref):
                assert a.rank == b.rank
                assert a.url == b.url
                assert a.domain == b.domain
                assert a.score == b.score  # exact float equality
                assert a.page is b.page

    def test_bm25_scores_bit_identical(self, eq_world):
        seed, catalog, __, __, engine = eq_world
        scorer = BM25Scorer(engine.index)
        for query in _workload(catalog, seed):
            terms = tokenize(query)
            assert scorer.score_terms(terms) == scorer.score_terms_reference(terms)

    def test_snippets_match_reference_exactly(self, eq_world):
        seed, catalog, __, __, engine = eq_world
        for query in _workload(catalog, seed)[:12]:
            fast = engine.search_with_snippets(query, k=6)
            ref = engine.search_with_snippets_reference(query, k=6)
            assert [(s.text, s.url) for s in fast] == [
                (s.text, s.url) for s in ref
            ]

    def test_query_cache_hit_returns_equal_results(self, eq_world):
        seed, catalog, __, __, engine = eq_world
        query = _workload(catalog, seed)[0]
        engine.clear_query_cache()
        cold = engine.search(query, k=10)
        before = engine.query_cache_stats()
        warm = engine.search(query, k=10)
        after = engine.query_cache_stats()
        assert warm == cold
        assert after.hits == before.hits + 1
        # Callers get fresh lists: mutating one never corrupts the cache.
        warm.clear()
        assert engine.search(query, k=10) == cold


class TestCrowdingFallback:
    def test_fallback_is_exercised_and_exact(self, eq_world, monkeypatch):
        """With max_per_domain=1 the headroom prefix can run dry; the
        full-sort fallback must then reproduce the reference exactly."""
        seed, catalog, registry, corpus, __ = eq_world
        engine = SearchEngine(corpus, registry, max_per_domain=1)
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
                fast = engine.search(query, k)
                if len(crowd_calls) == 2:
                    fallbacks += 1
                ref = engine.search_reference(query, k)
                assert [(r.url, r.score) for r in fast] == [
                    (r.url, r.score) for r in ref
                ]
        assert fallbacks > 0, "workload never exhausted the crowding headroom"


class _BoostedAuthority(SeoWeights):
    """A blend override, which the engine must refuse."""

    def blend(self, relevance, authority, on_page_seo, age_days):
        return super().blend(relevance, authority, on_page_seo, age_days) + 0.5 * authority


class TestWeightsGate:
    def test_custom_seo_weights_instance_stays_on_fast_path(self, eq_world):
        __, __, registry, corpus, __ = eq_world
        engine = SearchEngine(
            corpus,
            registry,
            SeoWeights(relevance=0.6, authority=0.2, on_page_seo=0.1, freshness=0.1),
        )
        fast = engine.search("best smartphones", k=10)
        ref = engine.search_reference("best smartphones", k=10)
        assert [(r.url, r.score) for r in fast] == [(r.url, r.score) for r in ref]

    def test_blend_subclass_routes_to_reference(self, eq_world):
        """A blend subclass is rejected at construction: the ranking
        precomputes the blend's page terms and would ignore it."""
        __, __, registry, corpus, __ = eq_world
        with pytest.raises(TypeError, match="_BoostedAuthority"):
            SearchEngine(corpus, registry, _BoostedAuthority())


class TestSnippetCacheRegression:
    def test_cached_extraction_pins_reference_output(self, eq_world):
        seed, catalog, __, corpus, __ = eq_world
        cache = SnippetCache()
        queries = _workload(catalog, seed)[:6]
        pages = corpus.pages[:40]
        for _round in range(2):  # second round exercises the hit path
            for page in pages:
                for query in queries:
                    assert cache.extract(page, query) == extract_snippet(page, query)
        counters = cache.counters()
        assert counters.hits > 0
        assert counters.misses == len(pages)

    def test_extract_with_terms_matches_extract(self, eq_world):
        seed, catalog, __, corpus, __ = eq_world
        cache = SnippetCache()
        query = _workload(catalog, seed)[0]
        terms = frozenset(tokenize(query))
        for page in corpus.pages[:20]:
            assert cache.extract_with_terms(page, terms) == cache.extract(
                page, query
            )


def _sparse_page(doc_id: int, title: str, body: str) -> Page:
    return Page(
        doc_id=doc_id,
        url=f"https://example.com/p/{doc_id}",
        domain="example.com",
        kind=PageKind.REVIEW,
        vertical="smartphones",
        title=title,
        body=body,
        published=dt.date(2025, 1, 1),
        date_markup=DateMarkup.NONE,
    )


class TestSparseDocIds:
    """Non-contiguous doc ids take the mapping branch of the norm table."""

    def test_scores_bit_identical_on_sparse_index(self):
        index = InvertedIndex()
        index.add_all(
            [
                _sparse_page(3, "Best smartphones", "Apple and Samsung lead."),
                _sparse_page(7, "Laptop guide", "Battery and weight balance."),
                _sparse_page(11, "Smartphone cameras", "Quality varies by smartphone."),
            ]
        )
        dense, table = index.doc_length_table()
        assert not dense
        scorer = BM25Scorer(index)
        for query in ("smartphone camera", "laptop battery", "apple"):
            terms = tokenize(query)
            assert scorer.score_terms(terms) == scorer.score_terms_reference(terms)
