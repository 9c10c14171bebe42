"""Engine-side retrieval: reformulation, persona reranking, selection.

The paper's central observation is that generative engines select sources
by a different logic than SEO ranking.  :class:`SourcingPolicy` encodes an
engine's persona: its affinity for each source type, its freshness and
authority appetites, its pull toward domains it "knows" from pre-training,
and how it reformulates queries before searching.  :class:`Retriever`
applies a policy: BM25 candidates -> persona scores -> diversified
selection.

Intent adaptation (Figure 3's sharpest finding) happens here: engines
detect transactional intent from surface cues and swing toward
brand/owned sources.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

from repro.entities.intents import Intent
from repro.llm.rng import derive_rng
from repro.search.engine import SearchEngine
from repro.search.seo import freshness_decay
from repro.search.tokenize import tokenize
from repro.webgraph.corpus import Corpus
from repro.webgraph.domains import DomainRegistry, SourceType
from repro.webgraph.pages import Page

__all__ = ["Retriever", "ScoredCandidate", "SourcingPolicy", "detect_intent"]


_TRANSACTIONAL_CUES = (
    "where to buy", "best price", "price deals", "deals", "discount",
    "shipping", "availability", "in stock",
)
_TRANSACTIONAL_PREFIXES = ("buy ", "order ", "purchase ", "shop ")
_INFORMATIONAL_CUES = ("how ", "what ", "why ", "explain", "works", "work?")


def detect_intent(query_text: str) -> Intent:
    """Surface-cue intent detection, as commercial engines perform it.

    "Buy iPhone 15" is transactional; "Top 10 SUVs to buy in 2025" is a
    consideration (commercial-investigation) query — the purchase verb
    alone is not enough, it must lead the query or come with price/deal
    language.
    """
    lowered = query_text.lower()
    if lowered.startswith(_TRANSACTIONAL_PREFIXES) or any(
        cue in lowered for cue in _TRANSACTIONAL_CUES
    ):
        return Intent.TRANSACTIONAL
    if any(cue in lowered for cue in _INFORMATIONAL_CUES):
        return Intent.INFORMATIONAL
    return Intent.CONSIDERATION


@dataclass(frozen=True)
class SourcingPolicy:
    """An engine's sourcing persona.

    All affinities are additive bonuses on the persona score of a
    candidate page whose domain has the matching type; the remaining
    weights multiply normalized signals.  ``transactional_brand_boost``
    is added to brand affinity when the query is transactional (and
    ``transactional_earned_drop`` subtracted from earned), reproducing the
    intent swing of Figure 3.
    """

    earned_affinity: float = 0.5
    brand_affinity: float = 0.1
    social_affinity: float = 0.1
    retailer_affinity: float = 0.0
    freshness_weight: float = 0.3
    freshness_half_life_days: float = 120.0
    authority_weight: float = 0.2
    quality_weight: float = 0.2
    relevance_weight: float = 0.8
    familiarity_pull: float = 0.3
    candidate_pool: int = 40
    citations_per_answer: int = 6
    max_per_domain: int = 2
    reformulation_terms: tuple[str, ...] = ()
    transactional_brand_boost: float = 0.45
    transactional_earned_drop: float = 0.3
    informational_brand_boost: float = 0.2
    selection_jitter: float = 0.15

    def __post_init__(self) -> None:
        if self.candidate_pool < 1:
            raise ValueError("candidate_pool must be at least 1")
        if self.citations_per_answer < 1:
            raise ValueError("citations_per_answer must be at least 1")
        if self.max_per_domain < 1:
            raise ValueError("max_per_domain must be at least 1")
        if self.freshness_half_life_days <= 0:
            raise ValueError("freshness_half_life_days must be positive")

    def adapted_to(self, intent: Intent) -> "SourcingPolicy":
        """The persona after intent adaptation.

        Transactional queries swing hard toward brand/retailer sources
        (every engine in Figure 3 does); informational queries swing
        mildly toward brand (manufacturer documentation answers "how does
        X work" questions authoritatively).
        """
        if intent is Intent.TRANSACTIONAL:
            return replace(
                self,
                brand_affinity=self.brand_affinity + self.transactional_brand_boost,
                retailer_affinity=self.retailer_affinity + self.transactional_brand_boost / 2,
                earned_affinity=max(0.0, self.earned_affinity - self.transactional_earned_drop),
            )
        if intent is Intent.INFORMATIONAL:
            return replace(
                self,
                brand_affinity=self.brand_affinity + self.informational_brand_boost,
            )
        return self


@dataclass(frozen=True)
class ScoredCandidate:
    """One candidate page with its persona-score breakdown.

    ``components`` maps signal name -> weighted contribution; their sum
    is :attr:`total`.  Produced by :meth:`Retriever.explain` so an AEO
    analyst can see exactly why a page was (not) selected.
    """

    page: Page
    relevance: float
    components: dict[str, float]
    total: float
    selected: bool


class Retriever:
    """Applies a :class:`SourcingPolicy` against the corpus."""

    def __init__(
        self,
        corpus: Corpus,
        registry: DomainRegistry,
        search_engine: SearchEngine,
    ) -> None:
        self._corpus = corpus
        self._registry = registry
        # The engines score candidates through Google's BM25 seam
        # (SearchEngine.score_terms) but with pure BM25 — persona logic
        # replaces SEO.  On a sharded world the pools thus go through
        # the same scatter, fault site and coverage record as organic
        # search.
        self._index = search_engine.index
        self._search_engine = search_engine
        #: Optional ResilienceContext guarding select_sources (the
        #: "retrieval.select_sources" fault site); None = untouched path.
        self._resilience = None

        # Pre-training familiarity: how prominent each domain is in the
        # (pre-)training corpus, log-scaled to [0, 1].
        counts = {d: len(corpus.by_domain(d)) for d in corpus.domains()}
        max_count = max(counts.values()) if counts else 1
        self._familiarity = {
            domain: math.log1p(count) / math.log1p(max_count)
            for domain, count in counts.items()
        }

    @property
    def snippet_cache(self):
        """The world's shared per-page sentence cache (one per engine)."""
        return self._search_engine.snippet_cache

    @property
    def index_epoch(self) -> int:
        """Mutation generation of the index retrieval reads.

        Generative engines embed this in their memo keys so cached
        answers cannot outlive the postings they were computed from.
        """
        return self._index.epoch

    def set_resilience(self, context) -> None:
        """Attach (or detach, with ``None``) a resilience context.

        With one attached, :meth:`select_sources` runs behind the
        ``"retrieval.select_sources"`` fault site — simulated retrieval
        timeouts retry with deterministic backoff; exhaustion surfaces
        as ``ResilienceExhausted`` for the engine's degradation path
        (prior-only answers).
        """
        self._resilience = context

    def familiarity(self, domain: str) -> float:
        """Pre-training prominence of a domain in ``[0, 1]``."""
        return self._familiarity.get(domain, 0.0)

    def _type_affinity(self, policy: SourcingPolicy, page: Page) -> float:
        record = self._registry.get(page.domain)
        if record.source_type is SourceType.SOCIAL:
            return policy.social_affinity
        if record.source_type is SourceType.BRAND:
            base = policy.brand_affinity
            if record.is_retailer:
                base += policy.retailer_affinity
            return base
        return policy.earned_affinity

    def persona_score(
        self,
        policy: SourcingPolicy,
        page: Page,
        relevance: float,
        query_text: str = "",
    ) -> float:
        """The persona's appeal score for one candidate page.

        The jitter term is a deterministic per-(query, page) perturbation:
        a commercial engine's retrieval stack is not a fixed linear scorer,
        and its source choices vary idiosyncratically from query to query.
        The jitter reproduces that variety (occasional UGC citations, long-
        tail discoveries) while keeping every answer bit-reproducible.

        See :meth:`score_components` for the per-signal breakdown.
        """
        return sum(
            self.score_components(policy, page, relevance, query_text).values()
        )

    def candidates(self, query_text: str, policy: SourcingPolicy) -> list[tuple[float, Page]]:
        """BM25 candidate pool under the policy's reformulated query.

        Returns (relevance, page) pairs, relevance normalized to [0, 1],
        best-first, truncated to ``policy.candidate_pool``.
        """
        reformulated = query_text
        if policy.reformulation_terms:
            reformulated = f"{query_text} {' '.join(policy.reformulation_terms)}"
        scores = self._search_engine.score_terms(tokenize(reformulated))
        if not scores:
            return []
        # Only docs scoring at least the pool-th best score can make the
        # pool, so sort just those: the same (-score, doc_id) prefix as a
        # full sort, ties at the cutoff included.
        top = heapq.nlargest(policy.candidate_pool, scores.values())
        max_score, cutoff = top[0], top[-1]
        ranked = sorted(
            (kv for kv in scores.items() if kv[1] >= cutoff),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return [
            (score / max_score, self._index.page(doc_id))
            for doc_id, score in ranked[: policy.candidate_pool]
        ]

    def score_components(
        self,
        policy: SourcingPolicy,
        page: Page,
        relevance: float,
        query_text: str = "",
    ) -> dict[str, float]:
        """The persona score broken into named weighted contributions."""
        age = self._corpus.clock.age_days(page.published)
        jitter = 0.0
        if policy.selection_jitter:
            jitter = derive_rng("select", query_text, page.url).uniform(
                -policy.selection_jitter, policy.selection_jitter
            )
        return {
            "relevance": policy.relevance_weight * relevance,
            "type_affinity": self._type_affinity(policy, page),
            "freshness": policy.freshness_weight
            * freshness_decay(age, policy.freshness_half_life_days),
            "authority": policy.authority_weight
            * self._search_engine.domain_authority(page.domain),
            "quality": policy.quality_weight * page.quality,
            "familiarity": policy.familiarity_pull * self.familiarity(page.domain),
            "jitter": jitter,
        }

    def explain(
        self,
        query_text: str,
        policy: SourcingPolicy,
        *,
        intent: Intent | None = None,
        pool: list[tuple[float, Page]] | None = None,
        top: int = 20,
    ) -> list[ScoredCandidate]:
        """The scored candidate list behind :meth:`select_sources`.

        Returns the ``top`` candidates by persona score, each with its
        component breakdown and whether the selection (same policy, same
        diversity caps) would actually cite it.  Deterministic, and
        consistent with :meth:`select_sources` by construction.
        """
        if top < 1:
            raise ValueError("top must be at least 1")
        effective = policy.adapted_to(
            intent if intent is not None else detect_intent(query_text)
        )
        if pool is None:
            pool = self.candidates(query_text, effective)
        selected_urls = {
            page.url
            for page in self.select_sources(
                query_text, policy, intent=intent, pool=pool
            )
        }
        scored = []
        for relevance, page in pool:
            components = self.score_components(
                effective, page, relevance, query_text
            )
            scored.append(
                ScoredCandidate(
                    page=page,
                    relevance=relevance,
                    components=components,
                    total=sum(components.values()),
                    selected=page.url in selected_urls,
                )
            )
        scored.sort(key=lambda c: (-c.total, c.page.doc_id))
        return scored[:top]

    def select_sources(
        self,
        query_text: str,
        policy: SourcingPolicy,
        *,
        intent: Intent | None = None,
        pool: list[tuple[float, Page]] | None = None,
    ) -> list[Page]:
        """Full pipeline: candidates -> persona rerank -> diversified pick.

        ``pool`` overrides candidate retrieval (Gemini reranks Google's
        results instead of issuing its own search).  ``intent`` defaults
        to surface-cue detection on the query text.

        With a resilience context attached this is the
        ``"retrieval.select_sources"`` fault site, keyed by the query
        text: injected timeouts retry with deterministic backoff and
        exhaustion raises ``ResilienceExhausted``.
        """
        ctx = getattr(self, "_resilience", None)
        if ctx is not None:
            return ctx.call(
                "retrieval.select_sources",
                query_text,
                lambda: self._select_sources_impl(
                    query_text, policy, intent=intent, pool=pool
                ),
            )
        return self._select_sources_impl(query_text, policy, intent=intent, pool=pool)

    def _select_sources_impl(
        self,
        query_text: str,
        policy: SourcingPolicy,
        *,
        intent: Intent | None = None,
        pool: list[tuple[float, Page]] | None = None,
    ) -> list[Page]:
        effective = policy.adapted_to(
            intent if intent is not None else detect_intent(query_text)
        )
        if pool is None:
            pool = self.candidates(query_text, effective)
        scored = [
            (self.persona_score(effective, page, relevance, query_text), page)
            for relevance, page in pool
        ]
        scored.sort(key=lambda item: (-item[0], item[1].doc_id))

        selected: list[Page] = []
        per_domain: dict[str, int] = {}
        for __, page in scored:
            seen = per_domain.get(page.domain, 0)
            if seen >= effective.max_per_domain:
                continue
            per_domain[page.domain] = seen + 1
            selected.append(page)
            if len(selected) == effective.citations_per_answer:
                break
        return selected
