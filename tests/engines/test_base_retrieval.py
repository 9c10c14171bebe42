"""Tests for the Answer model, intent detection and the retriever."""

import random

import pytest

from repro.engines.base import Answer, Citation
from repro.engines.retrieval import Retriever, SourcingPolicy, detect_intent
from repro.entities.intents import Intent
from repro.search.bm25 import BM25Scorer
from repro.search.index import InvertedIndex
from repro.webgraph.domains import SourceType

#: Queries of all three intents, for real pools and jitter draws.
QUERIES = (
    "best airlines",
    "best smartphones 2025",
    "Buy iPhone 15 best price deals",
    "How does Wi-Fi 7 work?",
)


class TestCitationAnswer:
    def test_citation_requires_url(self):
        with pytest.raises(ValueError):
            Citation(url="", domain="x.com")

    def test_cited_domains_normalizes_and_dedupes(self):
        answer = Answer(
            engine="E",
            query_id="q",
            text="t",
            citations=(
                Citation(url="https://www.techradar.com/a", domain="techradar.com"),
                Citation(url="https://techradar.com/b", domain="techradar.com"),
                Citation(url="https://reddit.com/r/x", domain="reddit.com"),
            ),
        )
        assert answer.cited_domains() == {"techradar.com", "reddit.com"}

    def test_unparseable_citations_dropped(self):
        answer = Answer(
            engine="E", query_id="q", text="t",
            citations=(Citation(url="not a url", domain="?"),),
        )
        assert answer.cited_domains() == set()

    def test_cited_urls_order(self):
        answer = Answer(
            engine="E", query_id="q", text="t",
            citations=(
                Citation(url="https://a.com/1", domain="a.com"),
                Citation(url="https://b.com/2", domain="b.com"),
            ),
        )
        assert answer.cited_urls() == ["https://a.com/1", "https://b.com/2"]


class TestDetectIntent:
    def test_transactional_prefix(self):
        assert detect_intent("Buy iPhone 15 online") is Intent.TRANSACTIONAL
        assert detect_intent("Order Pixel with fast shipping") is Intent.TRANSACTIONAL

    def test_deal_language(self):
        assert detect_intent("iPhone 15 best price deals") is Intent.TRANSACTIONAL

    def test_ranking_query_is_consideration(self):
        # "to buy" inside a ranking query must NOT read as transactional.
        assert detect_intent("Top 10 best SUVs to buy in 2025") is Intent.CONSIDERATION

    def test_informational(self):
        assert detect_intent("How does Wi-Fi 7 work?") is Intent.INFORMATIONAL
        assert detect_intent("What is retinol?") is Intent.INFORMATIONAL

    def test_default_consideration(self):
        assert detect_intent("Best laptops for students") is Intent.CONSIDERATION


class TestSourcingPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourcingPolicy(candidate_pool=0)
        with pytest.raises(ValueError):
            SourcingPolicy(citations_per_answer=0)
        with pytest.raises(ValueError):
            SourcingPolicy(freshness_half_life_days=0)

    def test_transactional_adaptation(self):
        policy = SourcingPolicy(earned_affinity=0.5, brand_affinity=0.1)
        adapted = policy.adapted_to(Intent.TRANSACTIONAL)
        assert adapted.brand_affinity > policy.brand_affinity
        assert adapted.earned_affinity < policy.earned_affinity
        assert adapted.retailer_affinity > policy.retailer_affinity

    def test_informational_adaptation(self):
        policy = SourcingPolicy(brand_affinity=0.1)
        adapted = policy.adapted_to(Intent.INFORMATIONAL)
        assert adapted.brand_affinity > policy.brand_affinity

    def test_consideration_is_identity(self):
        policy = SourcingPolicy()
        assert policy.adapted_to(Intent.CONSIDERATION) is policy


class TestRetriever:
    def test_candidates_are_relevance_sorted(self, world):
        policy = SourcingPolicy(candidate_pool=20)
        pool = world.retriever.candidates("best smartphones 2025", policy)
        assert pool
        relevances = [r for r, __ in pool]
        assert relevances == sorted(relevances, reverse=True)
        assert relevances[0] == pytest.approx(1.0)

    def test_candidate_pool_capped(self, world):
        policy = SourcingPolicy(candidate_pool=5)
        assert len(world.retriever.candidates("best smartphones", policy)) <= 5

    def test_reformulation_changes_pool(self, world):
        plain = SourcingPolicy(candidate_pool=20)
        reformulated = SourcingPolicy(
            candidate_pool=20, reformulation_terms=("expert", "review")
        )
        a = {p.doc_id for __, p in world.retriever.candidates("best laptops", plain)}
        b = {p.doc_id for __, p in world.retriever.candidates("best laptops", reformulated)}
        assert a != b

    def test_select_sources_respects_count_and_domain_cap(self, world):
        policy = SourcingPolicy(citations_per_answer=6, max_per_domain=1)
        pages = world.retriever.select_sources("best smartwatches 2025", policy)
        assert len(pages) == 6
        assert len({p.domain for p in pages}) == 6

    def test_selection_is_deterministic(self, world):
        policy = SourcingPolicy()
        a = [p.url for p in world.retriever.select_sources("best hotels", policy)]
        b = [p.url for p in world.retriever.select_sources("best hotels", policy)]
        assert a == b

    def test_earned_affinity_shifts_composition(self, world):
        earned_policy = SourcingPolicy(
            earned_affinity=1.5, brand_affinity=0.0, social_affinity=0.0,
            citations_per_answer=8, selection_jitter=0.0,
        )
        brand_policy = SourcingPolicy(
            earned_affinity=0.0, brand_affinity=1.5, social_affinity=0.0,
            citations_per_answer=8, selection_jitter=0.0,
        )
        def earned_share(policy):
            # A navigational-ish query whose candidate pool mixes brand
            # product pages with editorial coverage.
            pages = world.retriever.select_sources(
                "Apple iPhone smartphone", policy, intent=Intent.CONSIDERATION
            )
            earned = sum(
                1 for p in pages
                if world.registry.get(p.domain).source_type is SourceType.EARNED
            )
            return earned / len(pages)
        assert earned_share(earned_policy) > earned_share(brand_policy)

    def test_freshness_weight_prefers_young_pages(self, world):
        fresh = SourcingPolicy(freshness_weight=1.5, selection_jitter=0.0)
        stale = SourcingPolicy(freshness_weight=0.0, selection_jitter=0.0)
        clock = world.corpus.clock
        def mean_age(policy):
            pages = world.retriever.select_sources("best laptops 2025", policy)
            return sum(clock.age_days(p.published) for p in pages) / len(pages)
        assert mean_age(fresh) < mean_age(stale)

    def test_familiarity_bounds(self, world):
        for domain in world.corpus.domains()[:40]:
            assert 0.0 <= world.retriever.familiarity(domain) <= 1.0
        assert world.retriever.familiarity("unknown.example") == 0.0

    def test_nonsense_query_yields_nothing(self, world):
        assert world.retriever.select_sources("qzxv flibbertigibbet", SourcingPolicy()) == []


class TestExplain:
    def test_explain_matches_selection(self, world):
        policy = SourcingPolicy(citations_per_answer=6)
        query = "best smartwatches for running 2025"
        selected = {p.url for p in world.retriever.select_sources(query, policy)}
        explained = world.retriever.explain(query, policy, top=40)
        assert {c.page.url for c in explained if c.selected} == selected

    def test_components_sum_to_total(self, world):
        policy = SourcingPolicy()
        for candidate in world.retriever.explain("best laptops", policy, top=10):
            assert candidate.total == pytest.approx(sum(candidate.components.values()))
            assert set(candidate.components) == {
                "relevance", "type_affinity", "freshness", "authority",
                "quality", "familiarity", "jitter",
            }

    def test_explain_is_sorted_by_total(self, world):
        totals = [c.total for c in world.retriever.explain("best hotels", SourcingPolicy(), top=15)]
        assert totals == sorted(totals, reverse=True)

    def test_persona_score_consistent_with_components(self, world):
        # Bit-for-bit: selection ranks by persona_score, explain() by the
        # sum of the component dict; the two must never disagree.
        retriever = world.retriever
        for engine in world.ai_engines().values():
            for intent in Intent:
                policy = engine.policy.adapted_to(intent)
                for query in QUERIES:
                    for relevance, page in retriever.candidates(query, policy):
                        total = retriever.persona_score(policy, page, relevance, query)
                        parts = retriever.score_components(policy, page, relevance, query)
                        assert total == sum(parts.values())

    def test_invalid_top(self, world):
        with pytest.raises(ValueError):
            world.retriever.explain("q", SourcingPolicy(), top=0)


def full_sort_pool(scores, n, page):
    """The full-sort oracle for :meth:`Retriever.candidates`."""
    if not scores:
        return []
    max_score = max(scores.values())
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    return [(score / max_score, page(doc_id)) for doc_id, score in ranked]


class TestCandidatePool:
    """``candidates`` picks exactly the full sort's top ``candidate_pool``."""

    def test_real_queries_match_full_sort(self, world):
        # A single index of its own: the world's may be a sharded view.
        index = InvertedIndex()
        index.add_all(world.corpus.pages)
        scorer = BM25Scorer(index)
        page = world.search_engine.index.page
        policies = [engine.policy for engine in world.ai_engines().values()]
        policies += [SourcingPolicy(candidate_pool=n) for n in (1, 7, 500)]
        for policy in policies:
            for query in QUERIES:
                reformulated = " ".join((query, *policy.reformulation_terms))
                expected = full_sort_pool(
                    scorer.score_all(reformulated), policy.candidate_pool, page
                )
                assert world.retriever.candidates(query, policy) == expected

    @pytest.mark.parametrize("draw", range(6))
    def test_ties_straddling_the_cutoff(self, world, monkeypatch, draw):
        # Few distinct values over many docs, inserted out of doc_id
        # order: every cutoff falls inside a tie.
        rng = random.Random(draw)
        doc_ids = rng.sample(range(world.search_engine.index.doc_count), 30)
        scores = {doc_id: rng.choice((0.5, 1.25, 2.0, 3.5)) for doc_id in doc_ids}
        retriever = Retriever(world.corpus, world.registry, world.search_engine)
        monkeypatch.setattr(world.search_engine, "score_terms", lambda terms: dict(scores))
        page = world.search_engine.index.page
        for n in (1, 2, 5, 13, 29, 30, 31, 64):
            expected = full_sort_pool(scores, n, page)
            assert retriever.candidates("q", SourcingPolicy(candidate_pool=n)) == expected

    def test_pool_sizes_around_candidate_pool(self, world, monkeypatch):
        retriever = Retriever(world.corpus, world.registry, world.search_engine)
        page = world.search_engine.index.page
        policy = SourcingPolicy(candidate_pool=8)
        for size in (0, 1, 7, 8, 9, 40):
            # Every doc ties with its neighbour, so cutoffs split ties.
            scores = {doc_id: float(1 + doc_id // 2) for doc_id in range(size)}
            monkeypatch.setattr(
                world.search_engine, "score_terms", lambda terms, scores=scores: dict(scores)
            )
            assert retriever.candidates("q", policy) == full_sort_pool(scores, 8, page)
