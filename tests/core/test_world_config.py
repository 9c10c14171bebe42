"""Tests for study configuration and world assembly."""

import pytest

from repro.core import StudyConfig, World
from repro.core.config import WorkloadSizes
from repro.engines.registry import ENGINE_NAMES


class TestConfig:
    def test_defaults_follow_paper(self):
        sizes = WorkloadSizes()
        assert sizes.ranking_queries == 1000
        assert sizes.comparison_popular == sizes.comparison_niche == 100
        assert sizes.intent_queries == 300
        assert sizes.perturbation_runs == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSizes(ranking_queries=0)
        for scale in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="corpus_scale"):
                StudyConfig(corpus_scale=scale)
        with pytest.raises(ValueError, match="always run in-process"):
            StudyConfig(resident_shards=True)
        assert StudyConfig(resident_shards=False).resident_shards is False
        with pytest.raises(ValueError, match="one index"):
            StudyConfig(search_shards=4)
        assert StudyConfig(search_shards=0).search_shards == 0


class TestWorld:
    def test_assembly(self, world):
        assert set(world.engines) == set(ENGINE_NAMES)
        assert len(world.corpus) > 1000
        assert len(world.catalog) > 100
        assert world.google().name == "Google"
        assert "Google" not in world.ai_engines()

    def test_reference_llm_matches_gpt4o(self, world):
        gpt = world.engines["GPT-4o"]
        assert world.reference_llm.config.seed == gpt.llm.config.seed
        # Same pre-training: identical beliefs.
        entity = "suvs:toyota"
        assert (
            world.reference_llm.knowledge.prior_mean(entity)
            == gpt.llm.knowledge.prior_mean(entity)
        )

    def test_rebuild_identical(self, world):
        rebuilt = World.build(world.config)
        assert len(rebuilt.corpus) == len(world.corpus)
        assert [p.url for p in rebuilt.corpus.pages[:100]] == [
            p.url for p in world.corpus.pages[:100]
        ]

    def test_corpus_scale(self):
        small = World.build(StudyConfig(seed=1, corpus_scale=0.5))
        default = World.build(StudyConfig(seed=1))
        assert len(small.corpus) < len(default.corpus)
