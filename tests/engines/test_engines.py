"""Behavioural tests for the five engines."""

import pytest

from repro.engines.claude import ClaudeEngine
from repro.engines.registry import AI_ENGINE_NAMES, ENGINE_NAMES, build_engines
from repro.entities.intents import Intent
from repro.entities.queries import Query, QueryKind, intent_queries, ranking_queries
from repro.webgraph.urls import registrable_domain


@pytest.fixture(scope="module")
def queries(world):
    return ranking_queries(world.catalog, count=20, seed=21)


class TestRegistry:
    def test_five_engines(self, world):
        assert set(world.engines) == set(ENGINE_NAMES)
        assert set(world.ai_engines()) == set(AI_ENGINE_NAMES)

    def test_engine_names_match_keys(self, world):
        for name, engine in world.engines.items():
            assert engine.name == name

    def test_rebuild_is_identical(self, world):
        engines = build_engines(
            world.corpus, world.catalog, world.search_engine, world.retriever,
            study_seed=world.config.seed,
        )
        query = ranking_queries(world.catalog, count=1, seed=3)[0]
        for name in ENGINE_NAMES:
            a = world.engines[name].answer(query)
            b = engines[name].answer(query)
            assert a.cited_urls() == b.cited_urls()

    def test_different_study_seed_changes_ai_answers(self, world):
        engines = build_engines(
            world.corpus, world.catalog, world.search_engine, world.retriever,
            study_seed=world.config.seed + 1,
        )
        query = ranking_queries(world.catalog, count=1, seed=3)[0]
        ours = world.engines["GPT-4o"].answer(query)
        theirs = engines["GPT-4o"].answer(query)
        assert ours.ranked_entities != theirs.ranked_entities


class TestGoogle:
    def test_answers_are_result_lists(self, world, queries):
        answer = world.google().answer(queries[0])
        assert answer.engine == "Google"
        assert len(answer.citations) <= 10
        assert "Results for:" in answer.text
        assert not answer.ranked_entities  # Google does not synthesize

    def test_citation_domains_match_urls(self, world, queries):
        for query in queries[:5]:
            for citation in world.google().answer(query).citations:
                assert registrable_domain(citation.url) == citation.domain


class TestGenerativeEngines:
    def test_answers_cite_sources(self, world, queries):
        for name, engine in world.ai_engines().items():
            answer = engine.answer(queries[0])
            assert answer.engine == name
            assert answer.citations, name
            assert "Sources:" in answer.text

    def test_ranking_queries_get_ranked_entities(self, world, queries):
        for engine in world.ai_engines().values():
            answer = engine.answer(queries[0])
            assert answer.ranked_entities
            assert len(answer.ranked_entities) <= queries[0].top_k
            for entity_id in answer.ranked_entities:
                assert entity_id in world.catalog

    def test_determinism(self, world, queries):
        for engine in world.ai_engines().values():
            a = engine.answer(queries[1])
            b = engine.answer(queries[1])
            assert a == b

    def test_citation_count_respects_policy(self, world, queries):
        for name, engine in world.ai_engines().items():
            answer = engine.answer(queries[2])
            assert len(answer.citations) <= engine.policy.citations_per_answer

    def test_engines_disagree_on_sources(self, world, queries):
        answers = {
            name: engine.answer(queries[3]).cited_domains()
            for name, engine in world.ai_engines().items()
        }
        distinct = {frozenset(domains) for domains in answers.values()}
        assert len(distinct) >= 3

    def test_transactional_queries_pull_brand_pages(self, world):
        query = Query(
            id="tq", text="Buy Apple iPhone online with fast shipping",
            kind=QueryKind.INTENT, vertical="smartphones",
            intent=Intent.TRANSACTIONAL,
        )
        engine = world.engines["Perplexity"]
        answer = engine.answer(query)
        brand_like = sum(
            1 for c in answer.citations
            if world.registry.get(c.domain).source_type.value == "brand"
        )
        assert answer.citations
        assert brand_like / len(answer.citations) >= 0.5


class TestClaudeReluctance:
    def test_claude_skips_search_for_most_informational_and_transactional(self, world):
        claude = world.engines["Claude"]
        queries = intent_queries(world.catalog, count=150, seed=9)
        skipped = {Intent.INFORMATIONAL: 0, Intent.TRANSACTIONAL: 0, Intent.CONSIDERATION: 0}
        totals = dict(skipped)
        for query in queries:
            totals[query.intent] += 1
            if not claude.answer(query).citations:
                skipped[query.intent] += 1
        assert skipped[Intent.INFORMATIONAL] / totals[Intent.INFORMATIONAL] > 0.5
        assert skipped[Intent.TRANSACTIONAL] / totals[Intent.TRANSACTIONAL] > 0.5
        assert skipped[Intent.CONSIDERATION] / totals[Intent.CONSIDERATION] < 0.2

    def test_explicit_search_prompting_restores_citations(self, world):
        claude = world.engines["Claude"]
        prompted = ClaudeEngine(
            world.retriever, claude.llm, world.catalog,
            explicit_search_prompting=True,
        )
        queries = intent_queries(world.catalog, count=30, seed=9)
        for query in queries:
            assert prompted.answer(query).citations

    def test_prior_only_answers_still_rank(self, world):
        claude = world.engines["Claude"]
        query = Query(
            id="pq", text="How does battery chemistry work in smartphones?",
            kind=QueryKind.INTENT, vertical="smartphones",
            intent=Intent.INFORMATIONAL,
            entities=("smartphones:apple",),
        )
        # Find the propensity outcome deterministically: answer twice.
        a = claude.answer(query)
        b = claude.answer(query)
        assert a == b


class TestGeminiGrounding:
    def test_gemini_cites_within_googles_reach(self, world, queries):
        gemini = world.engines["Gemini"]
        google_pool = {
            r.domain for r in world.search_engine.search(queries[4].text, k=60)
        }
        answer = gemini.answer(queries[4])
        assert answer.citations
        for citation in answer.citations:
            assert citation.domain in google_pool

    def test_gemini_reranks_rather_than_copies(self, world, queries):
        gemini = world.engines["Gemini"]
        google = world.google()
        diverged = 0
        for query in queries[:10]:
            gemini_domains = gemini.answer(query).cited_domains()
            google_domains = google.answer(query).cited_domains()
            if gemini_domains - google_domains:
                diverged += 1
        assert diverged >= 7
