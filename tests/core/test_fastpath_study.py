"""Study-level determinism of the search-substrate caches.

The query-result and snippet caches are world-level memos under the same
sharing contract as the evidence cache (see ``repro.core.runner``): a
warm cache must never change an experiment's output, under any worker
count, and ``render_stats`` must surface their counters.
"""

from repro.core.config import StudyConfig
from repro.core.report import render_fig1, render_fig3, render_stats
from repro.core.runner import StudyRunner
from repro.core.study import ComparativeStudy


def _study(world, workers) -> ComparativeStudy:
    return ComparativeStudy(world, runner=StudyRunner(world, workers=workers))


class TestCacheDeterminism:
    def test_cold_and_warm_aggregates_identical(self, tiny_world):
        tiny_world.clear_caches()
        cold = _study(tiny_world, 1).source_typology()
        # Second run hits every memo layer; output must not move.
        warm = _study(tiny_world, 1).source_typology()
        assert cold == warm
        assert render_fig3(cold) == render_fig3(warm)

    def test_clear_caches_resets_every_counter(self, tiny_world):
        _study(tiny_world, 1).domain_overlap_ranking()
        tiny_world.clear_caches()
        engine = tiny_world.search_engine
        assert engine.query_cache_stats().lookups == 0
        assert engine.snippet_cache.counters().lookups == 0
        assert tiny_world.evidence_cache.stats.lookups == 0
        for answer_engine in tiny_world.engines.values():
            assert answer_engine.cache_stats() == (0, 0)

    def test_query_and_snippet_caches_fill_during_a_study(self, tiny_world):
        tiny_world.clear_caches()
        _study(tiny_world, 1).domain_overlap_ranking()
        engine = tiny_world.search_engine
        query_stats = engine.query_cache_stats()
        snippet_stats = engine.snippet_cache.counters()
        assert query_stats.misses > 0
        assert snippet_stats.misses > 0
        # Five engines revisit the same corpus pages: hits dominate.
        assert snippet_stats.hits > snippet_stats.misses

    def test_warm_caches_under_workers_match_sequential(self, tiny_world):
        tiny_world.clear_caches()
        sequential = _study(tiny_world, 1).domain_overlap_ranking()
        # Caches deliberately left warm: pooled runs must agree with the
        # sequential result whether they hit or recompute.
        pooled = _study(tiny_world, 3).domain_overlap_ranking()
        assert sequential == pooled
        assert render_fig1(sequential) == render_fig1(pooled)

    def test_repro_workers_env_flows_into_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert StudyConfig().workers == 3


class TestStatsRendering:
    def test_render_stats_surfaces_cache_counters(self, tiny_world):
        tiny_world.clear_caches()
        study = _study(tiny_world, 1)
        study.source_typology()
        text = render_stats(study)
        assert "query cache:" in text
        assert "snippet cache:" in text
        assert "hit rate" in text
