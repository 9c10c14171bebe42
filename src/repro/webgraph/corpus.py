"""Seeded corpus generation: the synthetic web itself.

The generator walks every (vertical, domain) pair in the world, decides how
many pages the domain publishes there, and emits :class:`Page` objects with
realistic titles, bodies, stances, dates and URLs.  Three properties are
deliberate and load-bearing:

* **Exposure tracks popularity.**  Entity mentions are sampled with weight
  ``popularity ** EXPOSURE_ALPHA``, so popular entities accumulate far more
  coverage than niche ones.  This single mechanism later drives both the
  pre-training prior strength (Section 3) and the citation-miss gradient
  (Table 3).
* **Dates come from domain age profiles scaled per vertical**, so earned
  media is fresher than brand pages, and automotive is older than
  electronics (Figure 4's shape).
* **The link graph is built from the same pages**, so Google's authority
  signal reflects actual coverage rather than a hand-picked ranking.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.entities.catalog import Entity, EntityCatalog
from repro.entities.verticals import Vertical, get_vertical
from repro.webgraph.dates import DEFAULT_STUDY_DATE, StudyClock
from repro.webgraph.domains import DomainRecord, DomainRegistry, SourceType
from repro.webgraph.linkgraph import LinkGraph
from repro.webgraph.pages import DateMarkup, Page, PageKind

import datetime as dt

__all__ = ["Corpus", "CorpusConfig", "CorpusGenerator", "EXPOSURE_ALPHA"]


# Exponent shaping how strongly page coverage concentrates on popular
# entities.  >1 means super-linear concentration, matching the long-tailed
# attention economy of the real web.
EXPOSURE_ALPHA = 1.8

_DATE_MARKUP_WEIGHTS = (
    (DateMarkup.META, 0.30),
    (DateMarkup.JSON_LD, 0.25),
    (DateMarkup.TIME_TAG, 0.20),
    (DateMarkup.BODY_TEXT, 0.15),
    (DateMarkup.NONE, 0.10),
)


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs for corpus generation.

    ``pages_per_volume_unit`` scales the whole corpus: each domain
    publishes ``publish_volume * pages_per_volume_unit`` pages per covered
    vertical (general-interest domains publish at reduced depth).
    """

    seed: int = 7
    pages_per_volume_unit: float = 2.0
    general_interest_factor: float = 0.4
    brand_pages_per_entity: int = 4
    study_date: dt.date = DEFAULT_STUDY_DATE

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.pages_per_volume_unit)
            and self.pages_per_volume_unit > 0
        ):
            raise ValueError("pages_per_volume_unit must be positive and finite")
        if not 0 < self.general_interest_factor <= 1:
            raise ValueError("general_interest_factor must be in (0, 1]")
        if self.brand_pages_per_entity < 1:
            raise ValueError("brand_pages_per_entity must be at least 1")


@dataclass
class Corpus:
    """The generated web: pages plus the derived link graph and indexes."""

    pages: list[Page]
    link_graph: LinkGraph
    clock: StudyClock
    _by_domain: dict[str, list[Page]] = field(default_factory=dict)
    _by_entity: dict[str, list[Page]] = field(default_factory=dict)
    _by_vertical: dict[str, list[Page]] = field(default_factory=dict)
    _by_url: dict[str, Page] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for page in self.pages:
            self._by_domain.setdefault(page.domain, []).append(page)
            self._by_vertical.setdefault(page.vertical, []).append(page)
            self._by_url[page.url] = page
            for entity_id in page.entities:
                self._by_entity.setdefault(entity_id, []).append(page)

    def __len__(self) -> int:
        return len(self.pages)

    def by_domain(self, domain: str) -> list[Page]:
        """Pages hosted on ``domain`` (empty if unknown)."""
        return list(self._by_domain.get(domain, []))

    def by_entity(self, entity_id: str) -> list[Page]:
        """Pages substantively covering ``entity_id``."""
        return list(self._by_entity.get(entity_id, []))

    def by_vertical(self, vertical_id: str) -> list[Page]:
        """Pages in ``vertical_id``."""
        return list(self._by_vertical.get(vertical_id, []))

    def by_url(self, url: str) -> Page:
        """The page at ``url``; raises ``KeyError`` for unknown URLs."""
        return self._by_url[url]

    def entity_exposure(self, entity_id: str) -> int:
        """Number of pages covering the entity — the pre-training proxy."""
        return len(self._by_entity.get(entity_id, []))

    def domains(self) -> list[str]:
        """All domains that actually published at least one page."""
        return list(self._by_domain)


class CorpusGenerator:
    """Deterministic generator of a :class:`Corpus` from a seed."""

    def __init__(
        self,
        registry: DomainRegistry,
        catalog: EntityCatalog,
        config: CorpusConfig | None = None,
    ) -> None:
        self._registry = registry
        self._catalog = catalog
        self._config = config or CorpusConfig()
        self._clock = StudyClock(self._config.study_date)

    def generate(self) -> Corpus:
        """Build the corpus: register brand domains, emit pages, link them."""
        self._register_brand_domains()
        rng = random.Random(self._config.seed)
        pages: list[Page] = []
        graph = LinkGraph()
        graph.add_nodes(self._registry.names())

        doc_id = 0
        for vertical_id in self._catalog.verticals():
            vertical = get_vertical(vertical_id)
            entities = self._catalog.in_vertical(vertical_id)
            # The registry is complete once brands are registered, so
            # each vertical's domain lists are computed once, not per page.
            covering = self._registry.covering(vertical_id)
            social = [d for d in covering if d.source_type is SourceType.SOCIAL]
            earned = [d for d in covering if d.source_type is SourceType.EARNED]
            for domain in covering:
                for page in self._domain_pages(
                    rng, domain, vertical, entities, doc_id
                ):
                    pages.append(page)
                    doc_id += 1
                    self._link_page(rng, graph, page, domain, social, earned)
        return Corpus(pages=pages, link_graph=graph, clock=self._clock)

    # ------------------------------------------------------------------
    # Brand domains

    def _register_brand_domains(self) -> None:
        for entity in self._catalog:
            if entity.brand_domain is None:
                continue
            authority = 0.4 + 0.5 * entity.popularity
            self._registry.ensure_brand_domain(
                entity.brand_domain,
                entity.vertical,
                authority=authority,
                publish_volume=1.0 + 2.0 * entity.popularity,
            )

    # ------------------------------------------------------------------
    # Page emission

    def _page_budget(self, domain: DomainRecord, vertical: Vertical) -> int:
        budget = domain.publish_volume * self._config.pages_per_volume_unit
        if not domain.verticals:  # general-interest: shallow everywhere
            budget *= self._config.general_interest_factor
        return max(1, round(budget))

    def _domain_pages(
        self,
        rng: random.Random,
        domain: DomainRecord,
        vertical: Vertical,
        entities: Sequence[Entity],
        next_doc_id: int,
    ) -> Iterator[Page]:
        if not entities:
            return
        if domain.source_type is SourceType.BRAND and not domain.is_retailer:
            own = [e for e in entities if e.brand_domain == domain.name]
            if not own:
                return
            emitted = 0
            for entity in own:
                # Big brands run big content operations.
                count = max(
                    1,
                    round(self._config.brand_pages_per_entity * (0.3 + entity.popularity)),
                )
                for _ in range(count):
                    yield self._make_page(
                        rng, domain, vertical, [entity],
                        PageKind.PRODUCT, next_doc_id + emitted,
                    )
                    emitted += 1
            return

        budget = self._page_budget(domain, vertical)
        for i in range(budget):
            kind = self._choose_kind(rng, domain)
            chosen = self._sample_entities(rng, entities, kind)
            yield self._make_page(
                rng, domain, vertical, chosen, kind, next_doc_id + i
            )

    def _choose_kind(self, rng: random.Random, domain: DomainRecord) -> PageKind:
        if domain.source_type is SourceType.SOCIAL:
            return PageKind.FORUM_THREAD
        if domain.is_retailer:
            return PageKind.PRODUCT
        roll = rng.random()
        if roll < 0.30:
            return PageKind.RANKING
        if roll < 0.62:
            return PageKind.REVIEW
        if roll < 0.74:
            return PageKind.COMPARISON
        if roll < 0.88:
            return PageKind.NEWS
        return PageKind.GUIDE

    def _sample_entities(
        self, rng: random.Random, entities: Sequence[Entity], kind: PageKind
    ) -> list[Entity]:
        weights = [e.popularity ** EXPOSURE_ALPHA + 0.005 for e in entities]
        if kind is PageKind.RANKING:
            target = min(len(entities), rng.randint(6, 10))
        elif kind is PageKind.COMPARISON:
            target = min(len(entities), 2)
        elif kind in (PageKind.REVIEW, PageKind.PRODUCT):
            target = min(len(entities), rng.randint(1, 2))
        elif kind is PageKind.FORUM_THREAD:
            target = min(len(entities), rng.randint(1, 4))
        else:  # NEWS, GUIDE
            target = min(len(entities), rng.randint(1, 3))

        chosen: list[Entity] = []
        pool = list(entities)
        pool_weights = list(weights)
        for _ in range(target):
            pick = rng.choices(range(len(pool)), weights=pool_weights, k=1)[0]
            chosen.append(pool.pop(pick))
            pool_weights.pop(pick)
        if len(chosen) > 2:
            # Multi-entity pieces usually lead with the famous names --
            # listicles put Toyota above Infiniti -- but editorial angle
            # adds noise (a "hidden gem" roundup leads with a mid-tier
            # pick).  Page entity order is prominence order, which
            # downstream snippet visibility (the first few entities)
            # depends on.
            chosen.sort(key=lambda e: -(e.popularity + rng.gauss(0.0, 0.25)))
        return chosen

    def _stance(self, rng: random.Random, entity: Entity, domain: DomainRecord) -> float:
        base = 2.0 * entity.true_quality - 1.0
        sigma = 0.25 if domain.source_type is SourceType.EARNED else 0.45
        if domain.source_type is SourceType.BRAND:
            # Owned media is promotional: stance skews positive.
            base = 0.5 + 0.5 * base
            sigma = 0.15
        return max(-1.0, min(1.0, rng.gauss(base, sigma)))

    def _sample_markup(self, rng: random.Random) -> DateMarkup:
        roll = rng.random()
        cumulative = 0.0
        for markup, weight in _DATE_MARKUP_WEIGHTS:
            cumulative += weight
            if roll < cumulative:
                return markup
        return DateMarkup.NONE

    def _make_page(
        self,
        rng: random.Random,
        domain: DomainRecord,
        vertical: Vertical,
        entities: Sequence[Entity],
        kind: PageKind,
        doc_id: int,
    ) -> Page:
        profile = domain.effective_age_profile().scaled(vertical.age_scale)
        age = profile.sample_age(rng)
        published = self._clock.date_for_age(age)

        title = self._title(rng, domain, vertical, entities, kind)
        body = self._body(rng, vertical, entities, kind)
        stance = {e.id: self._stance(rng, e, domain) for e in entities}

        if domain.source_type is SourceType.EARNED:
            # Editorial quality correlates only loosely with authority, and
            # topic specialists out-review general-interest giants: an
            # RTINGS deep dive beats a wire-service listicle even though
            # Forbes has a hundred times the backlinks.  This decoupling is
            # what lets "prefer quality" (the AI engines) and "prefer
            # authority" (SEO) select genuinely different sources.
            specialist_bonus = 0.14 if domain.verticals else 0.0
            quality = min(
                1.0,
                max(0.0, rng.gauss(0.38 + 0.2 * domain.authority + specialist_bonus, 0.15)),
            )
            seo = min(1.0, max(0.0, rng.gauss(0.62, 0.15)))
        elif domain.source_type is SourceType.SOCIAL:
            quality = min(1.0, max(0.0, rng.gauss(0.48, 0.15)))
            # Big UGC platforms rank remarkably well in organic search.
            seo = min(1.0, max(0.0, rng.gauss(0.66, 0.15)))
        else:
            quality = min(1.0, max(0.0, rng.gauss(0.52, 0.1)))
            seo = min(1.0, max(0.0, rng.gauss(0.64, 0.12)))

        slug = "-".join(title.lower().split()[:6])
        slug = "".join(ch for ch in slug if ch.isalnum() or ch == "-")
        # A sprinkle of subdomain/path variety keeps URL normalization honest.
        host = domain.name if rng.random() < 0.7 else f"www.{domain.name}"
        url = f"https://{host}/{vertical.id.replace('_', '-')}/{slug}-{doc_id}"

        return Page(
            doc_id=doc_id,
            url=url,
            domain=domain.name,
            kind=kind,
            vertical=vertical.id,
            title=title,
            body=body,
            published=published,
            date_markup=self._sample_markup(rng),
            entities=tuple(e.id for e in entities),
            entity_stance=stance,
            quality=quality,
            seo_score=seo,
        )

    # ------------------------------------------------------------------
    # Text generation

    def _title(
        self,
        rng: random.Random,
        domain: DomainRecord,
        vertical: Vertical,
        entities: Sequence[Entity],
        kind: PageKind,
    ) -> str:
        primary = entities[0] if entities else None
        year = rng.choice(("2024", "2025", "2025"))
        if kind is PageKind.RANKING:
            qualifier = rng.choice(vertical.qualifiers)
            return f"The {len(entities)} {qualifier} {vertical.noun} of {year}"
        if kind is PageKind.REVIEW and primary:
            return f"{primary.name} review: {rng.choice(vertical.keywords)} tested"
        if kind is PageKind.COMPARISON and len(entities) >= 2:
            return f"{entities[0].name} vs {entities[1].name}: which {vertical.noun} win?"
        if kind is PageKind.NEWS and primary:
            return f"{primary.name} announces new {rng.choice(vertical.keywords)} update"
        if kind is PageKind.GUIDE:
            return f"How {rng.choice(vertical.keywords)} works: a guide to {vertical.noun}"
        if kind is PageKind.PRODUCT and primary:
            if domain.is_retailer:
                return f"Buy {primary.name} — deals and availability"
            return f"{primary.name} official: explore {vertical.noun}"
        if kind is PageKind.FORUM_THREAD and primary:
            # Community threads often *are* ranking questions verbatim,
            # which is why UGC ranks so well for consideration queries.
            roll = rng.random()
            if roll < 0.45:
                qualifier = rng.choice(vertical.qualifiers)
                return f"What are the {qualifier} {vertical.noun} right now? (discussion)"
            if roll < 0.7:
                return f"{primary.name} owners: worth it? ({vertical.noun} thread)"
            return f"Is {primary.name} actually good? ({vertical.noun} discussion)"
        return f"Notes on {vertical.noun}"

    _POSITIVE = ("excellent", "outstanding", "reliable", "impressive", "superb")
    _NEUTRAL = ("decent", "acceptable", "average", "serviceable")
    _NEGATIVE = ("disappointing", "inconsistent", "underwhelming", "flawed")

    def _stance_word(self, rng: random.Random, stance: float) -> str:
        if stance > 0.25:
            return rng.choice(self._POSITIVE)
        if stance < -0.25:
            return rng.choice(self._NEGATIVE)
        return rng.choice(self._NEUTRAL)

    def _body(
        self,
        rng: random.Random,
        vertical: Vertical,
        entities: Sequence[Entity],
        kind: PageKind,
    ) -> str:
        if kind is PageKind.PRODUCT and entities:
            # Product pages are promotional and topically thin: they name
            # the product and one or two features, not the vertical's full
            # vocabulary — which is why they rank for navigational and
            # transactional queries but poorly for consideration ones.
            entity = entities[0]
            form = rng.choice(entity.surface_forms())
            keyword = rng.choice(vertical.keywords)
            return "\n".join(
                (
                    f"{form}: engineered for {keyword}.",
                    f"Discover what makes {form} stand out. Order today "
                    "with free shipping and easy returns.",
                )
            )
        sentences = []
        keywords = list(vertical.keywords)
        rng.shuffle(keywords)
        lead_kw = ", ".join(keywords[:3])
        sentences.append(
            f"We looked closely at {vertical.noun}, focusing on {lead_kw}."
        )
        for entity in entities:
            stance = 2.0 * entity.true_quality - 1.0
            word = self._stance_word(rng, stance)
            form = rng.choice(entity.surface_forms())
            kw = rng.choice(vertical.keywords)
            sentences.append(
                f"{form} proved {word} in our {kw} assessment."
            )
        if kind is PageKind.RANKING and entities:
            ordered = sorted(entities, key=lambda e: -e.true_quality)
            listing = ", ".join(e.name for e in ordered)
            sentences.append(f"Our final order: {listing}.")
        if kind is PageKind.FORUM_THREAD:
            sentences.append(
                "Several commenters disagreed, citing personal experience."
            )
        sentences.append(
            f"For anyone choosing among {vertical.noun}, "
            f"{rng.choice(keywords)} remains the deciding factor."
        )
        return "\n".join(sentences)

    # ------------------------------------------------------------------
    # Link emission

    def _link_page(
        self,
        rng: random.Random,
        graph: LinkGraph,
        page: Page,
        domain: DomainRecord,
        social: Sequence[DomainRecord],
        earned: Sequence[DomainRecord],
    ) -> None:
        """Emit ``page``'s links; ``social``/``earned`` cover its vertical."""
        graph.add_node(domain.name)
        if domain.source_type is SourceType.EARNED:
            # Editorial pages link to the brands they cover...
            for entity_id in page.entities:
                entity = self._catalog.get(entity_id)
                if entity.brand_domain and entity.brand_domain in self._registry:
                    graph.add_edge(domain.name, entity.brand_domain)
            # ...and frequently embed or cite UGC (YouTube videos, Reddit
            # threads), which is where the social platforms' enormous
            # real-world link authority comes from.
            if rng.random() < 0.5 and social:
                graph.add_edge(domain.name, rng.choice(social).name)
        elif domain.source_type is SourceType.SOCIAL:
            # Threads link to the editorial pieces they discuss.
            if earned:
                target = rng.choice(earned)
                graph.add_edge(domain.name, target.name)
            for entity_id in page.entities:
                entity = self._catalog.get(entity_id)
                if entity.brand_domain and rng.random() < 0.3:
                    if entity.brand_domain in self._registry:
                        graph.add_edge(domain.name, entity.brand_domain)
        elif domain.is_retailer:
            for entity_id in page.entities:
                entity = self._catalog.get(entity_id)
                if entity.brand_domain and entity.brand_domain in self._registry:
                    graph.add_edge(domain.name, entity.brand_domain)
