"""Property tests: sharded search is float-exact equal to single-shard.

The sharding tentpole's contract: for any shard count,
``ShardedSearchEngine`` must reproduce the single-shard ``SearchEngine``
— and therefore ``search_reference`` — *bit for bit*: same rankings,
same float scores, same snippet strings, same page identities.  Every
assertion here is exact equality, never ``approx``.

Edge cases the merge must survive: a term present in only one shard, an
entirely empty shard, crowding-fallback engagement inside the merge
step, and sparse/non-contiguous doc ids.
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
from repro.search.seo import SeoWeights
from repro.search.sharding import (
    ShardedIndex,
    ShardedSearchEngine,
    build_shard_indexes,
    exchange_global_stats,
    partition_pages,
    shard_of,
)
from repro.search.tokenize import tokenize
from repro.webgraph.corpus import Corpus, CorpusConfig, CorpusGenerator
from repro.webgraph.dates import StudyClock
from repro.webgraph.domains import build_default_registry
from repro.webgraph.linkgraph import LinkGraph
from repro.webgraph.pages import DateMarkup, Page, PageKind

SEEDS = (3, 11, 23)
SHARD_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module", params=SEEDS, ids=[f"seed{s}" for s in SEEDS])
def shard_world(request):
    seed = request.param
    catalog = build_default_catalog()
    registry = build_default_registry()
    corpus = CorpusGenerator(
        registry, catalog, CorpusConfig(seed=seed)
    ).generate()
    return seed, catalog, registry, corpus, SearchEngine(corpus, registry)


def _chaos_context():
    """A resilience context from ``REPRO_CHAOS``, or ``None``.

    The chaos leg of ``make sharded`` sets a *recoverable*
    ``search.shard`` plan, so this whole suite re-runs with
    deterministic faults inside every scatter — and every byte-identity
    assertion must still hold, because recoverable faults recover
    inside the retry ladder.
    """
    from repro.core.config import default_chaos_plan
    from repro.resilience import (
        FaultPlan,
        ResilienceConfig,
        ResilienceContext,
    )

    text, seed = default_chaos_plan()
    if not text:
        return None
    return ResilienceContext(
        ResilienceConfig(plan=FaultPlan.parse(text, seed=seed))
    )


@pytest.fixture(scope="module")
def sharded_engines(shard_world):
    """Memoized sharded engines, so each (shards, kwargs) builds once."""
    __, __, registry, corpus, __ = shard_world
    built = {}

    def get(shards, **kwargs):
        key = (shards, tuple(sorted(kwargs.items())))
        if key not in built:
            engine = ShardedSearchEngine(
                corpus, registry, shards=shards, **kwargs
            )
            ctx = _chaos_context()
            if ctx is not None:
                engine.set_resilience(ctx)
            built[key] = engine
        return built[key]

    return get


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


def _tiny_corpus(pages):
    """A hand-built corpus (no links): authority falls back to the
    engine's unknown-domain default on both sides of the comparison."""
    return Corpus(
        pages=list(pages), link_graph=LinkGraph(), clock=StudyClock()
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


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_search_matches_single_shard_exactly(
        self, shard_world, sharded_engines, shards
    ):
        seed, catalog, __, __, single = shard_world
        sharded = sharded_engines(shards)
        for query in _workload(catalog, seed):
            for k in (1, 3, 10):
                a = single.search(query, k)
                b = sharded.search(query, k)
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    assert x.rank == y.rank
                    assert x.url == y.url
                    assert x.domain == y.domain
                    assert x.score == y.score  # exact float equality
                    assert x.page is y.page

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_search_matches_reference_exactly(
        self, shard_world, sharded_engines, shards
    ):
        seed, catalog, __, __, single = shard_world
        sharded = sharded_engines(shards)
        for query in _workload(catalog, seed):
            fast = sharded.search(query, 10)
            ref = single.search_reference(query, 10)
            assert [(r.url, r.score) for r in fast] == [
                (r.url, r.score) for r in ref
            ]

    @pytest.mark.parametrize("shards", (2, 8))
    def test_snippets_identical(self, shard_world, sharded_engines, shards):
        seed, catalog, __, __, single = shard_world
        sharded = sharded_engines(shards)
        for query in _workload(catalog, seed)[:8]:
            a = single.search_with_snippets(query, k=6)
            b = sharded.search_with_snippets(query, k=6)
            assert [(s.text, s.url, s.domain) for s in a] == [
                (s.text, s.url, s.domain) for s in b
            ]
            for x, y in zip(a, b):
                assert x.page is y.page

    def test_global_stats_match_single_index(self, shard_world):
        __, __, __, corpus, single = shard_world
        index = single.index
        for shards in SHARD_COUNTS:
            groups = partition_pages(corpus.pages, shards)
            stats = exchange_global_stats(build_shard_indexes(groups))
            assert stats.doc_count == index.doc_count
            assert stats.total_length == index.total_length
            # avgdl is the same int/int division -> the same float.
            assert stats.average_doc_length == index.average_doc_length
            for term in ("best", "smartphone", "review", "zzz-unseen"):
                assert stats.document_frequency(
                    term
                ) == index.document_frequency(term)

    def test_facade_index_reads_match_single_index(self, shard_world):
        __, __, __, corpus, single = shard_world
        facade = ShardedIndex(
            build_shard_indexes(partition_pages(corpus.pages, 4))
        )
        index = single.index
        assert facade.doc_count == index.doc_count
        assert facade.epoch == index.epoch  # composite == total adds
        dense_a, table_a = facade.doc_length_table()
        dense_b, table_b = index.doc_length_table()
        assert dense_a == dense_b
        assert list(table_a) == list(table_b)
        probe = corpus.pages[17]
        assert facade.page(probe.doc_id) is probe

    def test_shard_scorer_scores_bit_identical(self, shard_world):
        """The broadcast half: per-shard scores with global stats union
        to exactly the single-index score dict."""
        seed, catalog, __, corpus, single = shard_world
        shard_indexes = build_shard_indexes(partition_pages(corpus.pages, 4))
        stats = exchange_global_stats(shard_indexes)
        scorers = [
            BM25Scorer(index, stats=stats) for index in shard_indexes
        ]
        reference = BM25Scorer(single.index)
        for query in _workload(catalog, seed)[:10]:
            terms = tokenize(query)
            merged = {}
            for scorer in scorers:
                merged.update(scorer.score_terms(terms))
            assert merged == reference.score_terms(terms)

    def test_query_cache_hit_returns_equal_results(
        self, shard_world, sharded_engines
    ):
        seed, catalog, __, __, __ = shard_world
        sharded = sharded_engines(4)
        query = _workload(catalog, seed)[0]
        sharded.clear_query_cache()
        cold = sharded.search(query, k=10)
        before = sharded.query_cache_stats()
        warm = sharded.search(query, k=10)
        after = sharded.query_cache_stats()
        assert warm == cold
        assert after.hits == before.hits + 1
        # Callers get fresh lists: mutating one never corrupts the cache.
        warm.clear()
        assert sharded.search(query, k=10) == cold


class TestShardEdgeCases:
    def test_term_present_in_only_one_shard(self, shard_world):
        """A df=1 term's postings live in exactly one shard; idf and
        avgdl must still be global — a per-shard-stats bug would
        misscore exactly these queries."""
        __, __, registry, corpus, __ = shard_world
        next_id = max(p.doc_id for p in corpus.pages) + 1
        extra = _sparse_page(
            next_id, "Zephyrblat review", "The zephyrblat outshines rivals."
        )
        extended = Corpus(
            pages=corpus.pages + [extra],
            link_graph=corpus.link_graph,
            clock=corpus.clock,
        )
        single = SearchEngine(extended, registry)
        sharded = ShardedSearchEngine(extended, registry, shards=4)
        facade = sharded.index
        assert isinstance(facade, ShardedIndex)
        assert single.index.document_frequency("zephyrblat") == 1
        owners = [
            shard
            for shard in facade.shards
            if shard.postings_arrays("zephyrblat")[0]
        ]
        assert len(owners) == 1
        for query in ("zephyrblat", "zephyrblat smartphone review"):
            assert [
                (r.url, r.score) for r in single.search(query, 10)
            ] == [(r.url, r.score) for r in sharded.search(query, 10)]

    def test_empty_shard(self):
        """More shards than documents leaves shards empty; stats and
        ranking must be unaffected."""
        pages = [
            _sparse_page(0, "Best smartphones", "Apple and Samsung lead."),
            _sparse_page(1, "Laptop guide", "Battery and weight balance."),
            _sparse_page(2, "Smartphone cameras", "Quality by smartphone."),
        ]
        corpus = _tiny_corpus(pages)
        registry = build_default_registry()
        single = SearchEngine(corpus, registry)
        sharded = ShardedSearchEngine(corpus, registry, shards=8)
        facade = sharded.index
        assert isinstance(facade, ShardedIndex)
        assert sum(1 for s in facade.shards if s.doc_count == 0) == 5
        assert (
            facade.global_stats().average_doc_length
            == single.index.average_doc_length
        )
        for query in ("smartphone camera", "laptop battery", "nothing here"):
            assert [
                (r.url, r.score) for r in single.search(query, 5)
            ] == [(r.url, r.score) for r in sharded.search(query, 5)]

    def test_merge_crowding_fallback_is_exercised_and_exact(
        self, shard_world, monkeypatch
    ):
        """With max_per_domain=1 the headroom prefix over the shards'
        union can run dry; the full-sort fallback must reproduce the
        single-index reference."""
        seed, catalog, registry, corpus, __ = shard_world
        sharded = ShardedSearchEngine(
            corpus, registry, max_per_domain=1, shards=4
        )
        single = SearchEngine(corpus, registry, max_per_domain=1)
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
                fast = sharded.search(query, k)
                if len(crowd_calls) == 2:
                    fallbacks += 1
                ref = single.search_reference(query, k)
                assert [(r.url, r.score) for r in fast] == [
                    (r.url, r.score) for r in ref
                ]
        assert fallbacks > 0, "workload never exhausted the merged headroom"

    def test_blend_subclass_routes_to_reference(self, shard_world):
        """A blend subclass is rejected at construction: the ranking
        precomputes the blend's page terms and would ignore it."""
        __, __, registry, corpus, __ = shard_world
        with pytest.raises(TypeError, match="_BoostedAuthority"):
            ShardedSearchEngine(corpus, registry, _BoostedAuthority(), shards=4)

    def test_sparse_doc_ids(self):
        """Non-contiguous ids: routing stays pure-arithmetic and the
        merged length table takes the mapping branch."""
        pages = [
            _sparse_page(3, "Best smartphones", "Apple and Samsung lead."),
            _sparse_page(7, "Laptop guide", "Battery and weight balance."),
            _sparse_page(11, "Smartphone cameras", "Quality by smartphone."),
            _sparse_page(42, "Hotel reviews", "Rooms and breakfast rated."),
        ]
        corpus = _tiny_corpus(pages)
        registry = build_default_registry()
        single = SearchEngine(corpus, registry)
        for shards in (2, 3, 4):
            sharded = ShardedSearchEngine(corpus, registry, shards=shards)
            facade = sharded.index
            assert isinstance(facade, ShardedIndex)
            dense, __ = facade.doc_length_table()
            assert not dense
            for page in pages:
                owner = facade.shard_for(page.doc_id)
                assert owner is facade.shards[shard_of(page.doc_id, shards)]
                assert facade.page(page.doc_id) is page
            for query in ("smartphone camera", "laptop battery", "hotel"):
                assert [
                    (r.url, r.score) for r in single.search(query, 4)
                ] == [(r.url, r.score) for r in sharded.search(query, 4)]

    def test_add_through_facade_bumps_composite_epoch(self):
        pages = [
            _sparse_page(0, "Best smartphones", "Apple and Samsung lead."),
            _sparse_page(1, "Laptop guide", "Battery and weight balance."),
        ]
        corpus = _tiny_corpus(pages)
        registry = build_default_registry()
        sharded = ShardedSearchEngine(corpus, registry, shards=2)
        facade = sharded.index
        assert isinstance(facade, ShardedIndex)
        before = facade.epoch
        assert before == len(pages)
        extra = _sparse_page(2, "Smartphone cameras", "Quality varies.")
        facade.add(extra)
        assert facade.epoch == before + 1
        assert facade.page(2) is extra
        # The re-exchange sees the new document...
        assert facade.global_stats().doc_count == 3
        # ...and the epoch-keyed query path serves it.
        results = sharded.search("smartphone cameras", 3)
        assert any(r.page is extra for r in results)


class TestParallelBuildEquivalence:
    def test_parallel_builds_match_sequential(self, shard_world):
        __, __, __, corpus, __ = shard_world
        groups = partition_pages(corpus.pages, 4)
        sequential = build_shard_indexes(groups, builders=1)
        for executor in ("process", "thread"):
            parallel = build_shard_indexes(
                groups, builders=4, executor=executor
            )
            for a, b in zip(parallel, sequential):
                assert a.doc_count == b.doc_count
                assert a.total_length == b.total_length
                assert a.epoch == b.epoch
                assert a.doc_length_table() == b.doc_length_table()
                for term in ("best", "smartphone", "review"):
                    assert a.postings_arrays(term) == b.postings_arrays(term)

    def test_parallel_built_engine_is_exact(
        self, shard_world, sharded_engines
    ):
        seed, catalog, __, __, single = shard_world
        sharded = sharded_engines(4, builders=4)
        for query in _workload(catalog, seed)[:8]:
            assert [
                (r.url, r.score) for r in single.search(query, 10)
            ] == [(r.url, r.score) for r in sharded.search(query, 10)]

    def test_shipped_index_takes_add(self, shard_world):
        """A worker-built shard, reconstituted from shipped arrays,
        accepts later adds: the new postings appear and the epoch keeps
        counting."""
        __, __, __, corpus, __ = shard_world
        groups = partition_pages(corpus.pages[:40], 2)
        index, __ = build_shard_indexes(groups, builders=2, executor="thread")
        epoch = index.epoch
        extra = _sparse_page(100001, "Fresh arrival", "Entirely new words.")
        index.add(extra)
        assert index.epoch == epoch + 1
        assert index.document_frequency("fresh") >= 1
        assert index.page(100001) is extra


class _BoostedAuthority(SeoWeights):
    """A blend override, which the engines must refuse."""

    def blend(self, relevance, authority, on_page_seo, age_days):
        return (
            super().blend(relevance, authority, on_page_seo, age_days)
            + 0.5 * authority
        )
