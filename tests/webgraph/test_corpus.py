"""Tests for corpus generation and the link graph."""

import pytest

from repro.entities import build_default_catalog
from repro.webgraph.corpus import CorpusConfig, CorpusGenerator
from repro.webgraph.domains import SourceType, build_default_registry
from repro.webgraph.linkgraph import LinkGraph
from repro.webgraph.pages import PageKind
from repro.webgraph.urls import registrable_domain


@pytest.fixture(scope="module")
def world():
    catalog = build_default_catalog()
    registry = build_default_registry()
    corpus = CorpusGenerator(registry, catalog, CorpusConfig(seed=7)).generate()
    return catalog, registry, corpus


class TestLinkGraph:
    def test_add_edge_accumulates_weight(self):
        graph = LinkGraph()
        graph.add_edge("a.com", "b.com")
        graph.add_edge("a.com", "b.com", weight=2.0)
        assert graph.out_edges("a.com") == {"b.com": 3.0}
        assert graph.out_weight("a.com") == 3.0

    def test_self_edges_ignored(self):
        graph = LinkGraph()
        graph.add_edge("a.com", "a.com")
        assert graph.edge_count() == 0
        assert "a.com" in graph

    def test_invalid_weight_raises(self):
        with pytest.raises(ValueError):
            LinkGraph().add_edge("a.com", "b.com", weight=0)

    def test_empty_node_raises(self):
        with pytest.raises(ValueError):
            LinkGraph().add_node("")

    def test_edges_iteration(self):
        graph = LinkGraph()
        graph.add_edge("a.com", "b.com")
        graph.add_edge("b.com", "c.com", weight=2.0)
        assert set(graph.edges()) == {("a.com", "b.com", 1.0), ("b.com", "c.com", 2.0)}


class TestCorpusGeneration:
    def test_determinism(self):
        catalog = build_default_catalog()
        a = CorpusGenerator(build_default_registry(), catalog, CorpusConfig(seed=3)).generate()
        b = CorpusGenerator(build_default_registry(), build_default_catalog(), CorpusConfig(seed=3)).generate()
        assert len(a) == len(b)
        assert [p.url for p in a.pages[:50]] == [p.url for p in b.pages[:50]]
        assert [p.published for p in a.pages[:50]] == [p.published for p in b.pages[:50]]

    def test_different_seeds_differ(self):
        catalog = build_default_catalog()
        a = CorpusGenerator(build_default_registry(), catalog, CorpusConfig(seed=1)).generate()
        b = CorpusGenerator(build_default_registry(), build_default_catalog(), CorpusConfig(seed=2)).generate()
        assert [p.title for p in a.pages] != [p.title for p in b.pages]

    def test_urls_normalize_to_their_domain(self, world):
        __, __, corpus = world
        for page in corpus.pages[::17]:
            assert registrable_domain(page.url) == page.domain

    def test_doc_ids_unique(self, world):
        __, __, corpus = world
        ids = [p.doc_id for p in corpus.pages]
        assert len(ids) == len(set(ids))

    def test_exposure_tracks_popularity_within_suvs(self, world):
        catalog, __, corpus = world
        toyota = corpus.entity_exposure("suvs:toyota")
        infiniti = corpus.entity_exposure("suvs:infiniti")
        assert toyota > 2 * infiniti

    def test_every_entity_has_some_exposure(self, world):
        catalog, __, corpus = world
        for entity in catalog:
            assert corpus.entity_exposure(entity.id) > 0, entity.id

    def test_brand_pages_only_cover_own_entities(self, world):
        catalog, registry, corpus = world
        for page in corpus.pages:
            record = registry.get(page.domain)
            if record.source_type is SourceType.BRAND and not record.is_retailer:
                for entity_id in page.entities:
                    assert catalog.get(entity_id).brand_domain == page.domain

    def test_social_pages_are_threads(self, world):
        __, registry, corpus = world
        for page in corpus.pages:
            if registry.get(page.domain).source_type is SourceType.SOCIAL:
                assert page.kind is PageKind.FORUM_THREAD

    def test_earned_fresher_than_brand_in_same_vertical(self, world):
        __, registry, corpus = world
        earned_ages, brand_ages = [], []
        for page in corpus.by_vertical("smartphones"):
            age = corpus.clock.age_days(page.published)
            record = registry.get(page.domain)
            if record.source_type is SourceType.EARNED:
                earned_ages.append(age)
            elif record.source_type is SourceType.BRAND and not record.is_retailer:
                brand_ages.append(age)
        assert earned_ages and brand_ages
        earned_ages.sort()
        brand_ages.sort()
        assert earned_ages[len(earned_ages) // 2] < brand_ages[len(brand_ages) // 2]

    def test_automotive_older_than_electronics(self, world):
        __, __, corpus = world
        def median_age(vertical):
            ages = sorted(
                corpus.clock.age_days(p.published) for p in corpus.by_vertical(vertical)
            )
            return ages[len(ages) // 2]
        assert median_age("suvs") > median_age("smartphones")

    def test_stances_correlate_with_quality(self, world):
        catalog, __, corpus = world
        high = catalog.get("suvs:toyota")       # quality 0.92
        low = catalog.get("suvs:jeep")          # quality 0.68
        def mean_stance(entity_id):
            values = [
                p.entity_stance[entity_id]
                for p in corpus.by_entity(entity_id)
                if entity_id in p.entity_stance
            ]
            return sum(values) / len(values)
        assert mean_stance(high.id) > mean_stance(low.id)

    def test_link_graph_connects_earned_to_brands(self, world):
        __, __, corpus = world
        edges = corpus.link_graph.out_edges("caranddriver.com")
        assert "toyota.com" in edges

    def test_by_url_lookup(self, world):
        __, __, corpus = world
        page = corpus.pages[0]
        assert corpus.by_url(page.url) is page
        with pytest.raises(KeyError):
            corpus.by_url("https://nope.example/x")

    def test_config_validation(self):
        for unit in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="pages_per_volume_unit"):
                CorpusConfig(pages_per_volume_unit=unit)
        with pytest.raises(ValueError):
            CorpusConfig(general_interest_factor=0)
        with pytest.raises(ValueError):
            CorpusConfig(brand_pages_per_entity=0)
