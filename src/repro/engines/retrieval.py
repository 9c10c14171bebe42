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
from collections.abc import Iterable
from dataclasses import dataclass, replace

from repro.entities.intents import Intent
from repro.llm.rng import derive_rng
from repro.search.engine import SearchEngine
from repro.search.seo import freshness_decay
from repro.search.tokenize import tokenize
from repro.webgraph.corpus import Corpus
from repro.webgraph.domains import DomainRegistry, SourceType
from repro.webgraph.pages import Page

__all__ = ["Retriever", "ScoredCandidate", "SourcingPolicy", "detect_intent", "left_sum"]


_TRANSACTIONAL_CUES = (
    "where to buy", "best price", "price deals", "deals", "discount",
    "shipping", "availability", "in stock",
)
_TRANSACTIONAL_PREFIXES = ("buy ", "order ", "purchase ", "shop ")
_INFORMATIONAL_CUES = ("how ", "what ", "why ", "explain", "works", "work?")


def left_sum(values: Iterable[float]) -> float:
    """``values`` summed left to right, as builtin ``sum()`` does up to 3.11.

    Python 3.12 made ``sum()`` over floats compensated, which rounds
    differently in the last bits.  The persona score, its breakdown and
    the pruned selection all fold through here, so on every interpreter
    they agree with each other and with the 3.10/3.11 pins.
    """
    total: float = 0
    for value in values:
        total += value
    return total


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
        # The selection prunes by base + selection_jitter as an upper
        # bound on each total; a negative spread would make it a lower one.
        if not (math.isfinite(self.selection_jitter) and self.selection_jitter >= 0):
            raise ValueError("selection_jitter must be finite and non-negative")

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


#: Row codes of the source types: rows hold numbers, not enum members.
_SOCIAL, _BRAND, _EARNED = 0, 1, 2
_TYPE_CODES = {
    SourceType.SOCIAL: _SOCIAL, SourceType.BRAND: _BRAND, SourceType.EARNED: _EARNED,
}

#: A page's persona signals, fixed once the world is built: source-type
#: code, retailer flag, age in days, domain authority, quality and
#: domain familiarity.
_Row = tuple[int, bool, int, float, float, float]

#: The persona score's components, in the order they are summed.
_COMPONENTS = (
    "relevance", "type_affinity", "freshness", "authority",
    "quality", "familiarity", "jitter",
)


def _weighted(
    policy: SourcingPolicy, row: _Row, relevance: float
) -> tuple[float, float, float, float, float, float]:
    """The jitter-free components of one page's persona score, weighted."""
    kind, is_retailer, age, authority, quality, familiarity = row
    if kind == _SOCIAL:
        affinity = policy.social_affinity
    elif kind == _BRAND:
        affinity = policy.brand_affinity
        if is_retailer:
            affinity += policy.retailer_affinity
    else:
        affinity = policy.earned_affinity
    return (
        policy.relevance_weight * relevance,
        affinity,
        policy.freshness_weight * freshness_decay(age, policy.freshness_half_life_days),
        policy.authority_weight * authority,
        policy.quality_weight * quality,
        policy.familiarity_pull * familiarity,
    )


def _jitter(policy: SourcingPolicy, query_text: str, page: Page) -> float:
    """The deterministic per-(query, page) draw in ``[-j, j]``."""
    if not policy.selection_jitter:
        return 0.0
    return derive_rng("select", query_text, page.url).uniform(
        -policy.selection_jitter, policy.selection_jitter
    )


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
        # replaces SEO.
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

        # Every indexed page's persona signals, read once here instead of
        # from the registry, clock, authority and familiarity tables on
        # every rerank.  A page without a row (unregistered domain, or
        # indexed after this) is read from the page itself.
        index = self._index
        dense, lengths = index.doc_length_table()
        self._rows: dict[int, _Row] = {}
        for doc_id in range(len(lengths)) if dense else lengths:
            page = index.page(doc_id)
            if page.domain in registry:
                self._rows[doc_id] = self._page_row(page)

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

    def _page_row(self, page: Page) -> _Row:
        record = self._registry.get(page.domain)
        return (
            _TYPE_CODES[record.source_type],
            record.is_retailer,
            self._corpus.clock.age_days(page.published),
            self._search_engine.domain_authority(page.domain),
            page.quality,
            self.familiarity(page.domain),
        )

    def _row(self, page: Page) -> _Row:
        """``page``'s persona signals: its table row if the index holds
        this very page at its doc id, else read from the page."""
        row = self._rows.get(page.doc_id)
        if row is None or self._index.page(page.doc_id) is not page:
            return self._page_row(page)
        return row

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
        return left_sum(
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
        return dict(
            zip(
                _COMPONENTS,
                (
                    *_weighted(policy, self._row(page), relevance),
                    _jitter(policy, query_text, page),
                ),
            )
        )

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
                    total=left_sum(components.values()),
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
        # Every total is left_sum(base parts) + jitter, and the jitter
        # never exceeds the spread, so base + spread bounds a total from
        # above (rounding is monotone).  Walk the pages best base first
        # and draw a jitter only while the next page's bound reaches the
        # best drawn total: an undrawn page below it cannot outrank any
        # page drawn so far.  Drawn pages leave the heap in the
        # (-total, doc_id) order a full sort gives, pool order on ties.
        spread = effective.selection_jitter
        row = self._row
        walk = sorted(
            (-left_sum(_weighted(effective, row(page), relevance)), page.doc_id, position)
            for position, (relevance, page) in enumerate(pool)
        )
        drawn: list[tuple[float, int, int]] = []
        walked = 0
        selected: list[Page] = []
        per_domain: dict[str, int] = {}
        while len(selected) < effective.citations_per_answer:
            while walked < len(walk) and (
                not drawn or -walk[walked][0] + spread >= -drawn[0][0]
            ):
                neg_base, doc_id, position = walk[walked]
                walked += 1
                total = -neg_base + _jitter(effective, query_text, pool[position][1])
                heapq.heappush(drawn, (-total, doc_id, position))
            if not drawn:
                break
            page = pool[heapq.heappop(drawn)[2]][1]
            seen = per_domain.get(page.domain, 0)
            if seen >= effective.max_per_domain:
                continue
            per_domain[page.domain] = seen + 1
            selected.append(page)
        return selected
