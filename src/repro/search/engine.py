"""The search engine: BM25 + PageRank + SEO signals -> ranked results.

This is the study's Google stand-in.  ``search(query, k)`` returns the
organic top-``k`` with host crowding (at most ``max_per_domain`` results
per registrable domain, as Google clusters same-site results), and
``search_with_snippets`` additionally attaches query-biased snippets —
the evidence format the generative engines consume.

:meth:`SearchEngine.score_terms` is the one BM25 seam: organic ranking
and the generative engines' candidate pools (:class:`repro.engines.
retrieval.Retriever`) both score through it.

The query path is an *exact fast path*: term-at-a-time BM25 accumulation
over the frozen index (:meth:`BM25Scorer.score_terms`), per-page static
blend components precomputed once per index epoch, bounded-heap top-m
selection with host-crowding headroom (falling back to full selection
when crowding exhausts the headroom), and a lock-guarded bounded query
cache keyed on ``(analyzed terms, k, index epoch)``.  Every float it
produces comes from the same operations in the same order as
:meth:`search_reference` — the original score-everything-then-sort
pipeline, kept verbatim as the single-index equivalence oracle — so
rankings, scores, and snippets are byte-identical (see
``tests/search/test_fastpath_equivalence.py`` and the "Query fast path"
section of ``docs/architecture.md``).
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.caching import BoundedCache, CacheCounters
from repro.search.bm25 import BM25Scorer
from repro.search.index import InvertedIndex
from repro.search.pagerank import pagerank
from repro.search.seo import SeoWeights, freshness_decay
from repro.search.snippets import SnippetCache, extract_snippet
from repro.search.tokenize import tokenize
from repro.webgraph.corpus import Corpus
from repro.webgraph.domains import DomainRegistry
from repro.webgraph.pages import Page

__all__ = ["SearchEngine", "SearchResult", "Snippet"]


@dataclass(frozen=True)
class SearchResult:
    """One organic result."""

    rank: int  # 1-based
    url: str
    domain: str
    score: float
    page: Page


@dataclass(frozen=True)
class Snippet:
    """A (text, url) evidence pair, as retrieved for LLM grounding."""

    text: str
    url: str
    domain: str
    page: Page


#: (authority, on-page SEO, freshness) blend terms for one page, each
#: already multiplied by its weight.  Kept as three separate floats — not
#: pre-summed — because float addition is non-associative and the blend
#: must reproduce the reference's left-to-right ``a + b + c + d``.
_Statics = Sequence[tuple[float, float, float]] | Mapping[int, tuple[float, float, float]]


class SearchEngine:
    """Organic web search over a :class:`Corpus`."""

    #: Authority assumed for domains absent from the registry: the wider
    #: web's median, unexceptional site.  One documented default shared
    #: by organic blending and :meth:`domain_authority`, so the Google
    #: stand-in and the persona retrievers score unknown domains
    #: consistently (neither buries them at 0 nor trusts them).
    UNKNOWN_DOMAIN_AUTHORITY = 0.3

    #: Bound on distinct ``(terms, k, epoch)`` entries the query cache
    #: holds.  A full study issues a few hundred distinct queries; the
    #: bound only matters to ad-hoc exploratory use.
    QUERY_CACHE_LIMIT = 4096

    def __init__(
        self,
        corpus: Corpus,
        registry: DomainRegistry,
        weights: SeoWeights | None = None,
        max_per_domain: int = 2,
    ) -> None:
        if max_per_domain < 1:
            raise ValueError("max_per_domain must be at least 1")
        weights = weights or SeoWeights()
        if type(weights) is not SeoWeights:
            raise TypeError(
                "weights must be exactly SeoWeights, not "
                f"{type(weights).__name__}: the ranking precomputes the "
                "blend's page terms, so a blend() override would be ignored"
            )
        self._corpus = corpus
        self._registry = registry
        self._weights = weights
        self._max_per_domain = max_per_domain

        self._index = InvertedIndex()
        self._index.add_all(corpus.pages)
        self._scorer = BM25Scorer(self._index)

        raw_rank = pagerank(corpus.link_graph)
        max_rank = max(raw_rank.values()) if raw_rank else 1.0
        # Authority blends the graph-derived PageRank with the registry's
        # curated baseline.  The synthetic graph is brand-heavy (editorial
        # pages link to the brands they review far more than anyone links
        # back), so the baseline carries most of the weight — it stands in
        # for the wider web's links that the corpus doesn't model.
        self._authority: dict[str, float] = {}
        for domain in registry.names():
            graph_part = raw_rank.get(domain, 0.0) / max_rank if max_rank else 0.0
            baseline = registry.get(domain).authority
            self._authority[domain] = 0.3 * graph_part + 0.7 * baseline

        #: ``(epoch, table)`` of per-page static blend components,
        #: rebuilt lazily when the index epoch moves (published by a
        #: single attribute store; a racing rebuild swaps in an
        #: identical table).
        self._static_table: tuple[int, _Statics] | None = None
        #: World-level query-result cache: ``(terms, k, epoch)`` ->
        #: tuple of :class:`SearchResult`.  Lock-guarded and bounded.
        self._query_cache = BoundedCache(
            limit=self.QUERY_CACHE_LIMIT,
            site="SearchEngine._query_cache",
            epochs=lambda: self._index.epoch,
        )
        #: Per-page sentence cache shared by ``search_with_snippets``
        #: and the generative engines' evidence builders.
        self.snippet_cache = SnippetCache()
        self._warm()

    def _warm(self) -> None:
        """Precompute everything the query path reads, so forked pool
        workers inherit built state instead of each rebuilding it (see
        the sharing contract in repro.core.runner)."""
        self._index.freeze()
        self._scorer.warm()
        if self._corpus.pages:
            self._statics()

    @property
    def index(self) -> InvertedIndex:
        """The underlying index (read-only use)."""
        return self._index

    def domain_authority(self, domain: str) -> float:
        """Blended authority in ``[0, 1]``.

        Unknown domains get :data:`UNKNOWN_DOMAIN_AUTHORITY`, the same
        default the organic blend uses.
        """
        return self._authority.get(domain, self.UNKNOWN_DOMAIN_AUTHORITY)

    # ------------------------------------------------------------------
    # Fast path

    def score_terms(self, terms: Sequence[str]) -> dict[int, float]:
        """BM25 scores of every document matching ``terms``: the one seam.

        Organic ranking (:meth:`_rank_fast`) and the generative
        engines' candidate pools both score through here.  Callers
        select by ``(-score, doc_id)``, ``max`` or ``nlargest`` over
        the values, never by the dict's order.
        """
        return self._scorer.score_terms(terms)

    def _statics(self) -> _Statics:
        """Per-doc ``(authority, seo, freshness)`` blend terms, weighted.

        Epoch-tagged like the scorer's norm table; each term is exactly
        the product the reference blend computes for that page, so
        summing them left-to-right after the relevance term reproduces
        :meth:`SeoWeights.blend` bit-for-bit.
        """
        epoch = self._index.epoch
        cached = self._static_table
        if cached is not None and cached[0] == epoch:
            return cached[1]
        w = self._weights
        w_auth, w_seo, w_fresh = w.authority, w.on_page_seo, w.freshness
        half_life = w.freshness_half_life_days
        age_days = self._corpus.clock.age_days
        authority = self.domain_authority
        dense, lengths = self._index.doc_length_table()
        page = self._index.page
        table: _Statics
        if dense:
            table = [
                (
                    w_auth * authority((p := page(doc_id)).domain),
                    w_seo * p.seo_score,
                    w_fresh * freshness_decay(age_days(p.published), half_life),
                )
                for doc_id in range(len(lengths))
            ]
        else:
            table = {
                doc_id: (
                    w_auth * authority((p := page(doc_id)).domain),
                    w_seo * p.seo_score,
                    w_fresh * freshness_decay(age_days(p.published), half_life),
                )
                for doc_id in lengths
            }
        self._static_table = (epoch, table)
        return table

    def _rank_fast(self, terms: Sequence[str], k: int) -> list[SearchResult]:
        """Exact top-``k``: accumulate, bounded-heap select, crowd.

        ``heapq.nsmallest(m, items)`` is documented to equal
        ``sorted(items)[:m]``; the items are ``(-blended, doc_id)`` pairs
        (negation of a float is exact, ``doc_id`` is unique), so the
        heap's order is exactly the reference's ``(-score, doc_id)``
        sort.  Host crowding then scans that prefix; if the ``m = k ×
        max_per_domain`` headroom is exhausted before ``k`` results are
        found, the selection falls back to the fully sorted pool, which
        *is* the reference pipeline's order.  Nothing here reads the
        score dict's order.
        """
        bm25 = self.score_terms(terms)
        if not bm25:
            return []
        max_bm25 = max(bm25.values())
        statics = self._statics()
        w_rel = self._weights.relevance
        if max_bm25:
            items = [
                (
                    -(
                        (w_rel * (raw / max_bm25) + (s := statics[doc_id])[0] + s[1])
                        + s[2]
                    ),
                    doc_id,
                )
                for doc_id, raw in bm25.items()
            ]
        else:
            items = [
                (
                    -(
                        (w_rel * 0.0 + (s := statics[doc_id])[0] + s[1])
                        + s[2]
                    ),
                    doc_id,
                )
                for doc_id, raw in bm25.items()
            ]
        headroom = k * self._max_per_domain
        if headroom < len(items):
            top: Sequence[tuple[float, int]] = heapq.nsmallest(headroom, items)
        else:
            items.sort()
            top = items
        results = self._crowd(top, k)
        if len(results) < k and len(top) < len(items):
            # Crowding ate the headroom: fall back to the full ordering.
            items.sort()
            results = self._crowd(items, k)
        return results

    def _crowd(
        self, ordered: Sequence[tuple[float, int]], k: int
    ) -> list[SearchResult]:
        """Apply host crowding over ``(-score, doc_id)`` pairs in order."""
        page_of = self._index.page
        results: list[SearchResult] = []
        per_domain: dict[str, int] = {}
        for neg_score, doc_id in ordered:
            page = page_of(doc_id)
            seen = per_domain.get(page.domain, 0)
            if seen >= self._max_per_domain:
                continue
            per_domain[page.domain] = seen + 1
            results.append(
                SearchResult(
                    rank=len(results) + 1,
                    url=page.url,
                    domain=page.domain,
                    score=-neg_score,
                    page=page,
                )
            )
            if len(results) == k:
                break
        return results

    # ------------------------------------------------------------------
    # Public query API

    def search(self, query: str, k: int = 10) -> list[SearchResult]:
        """Organic top-``k`` for ``query``."""
        if k < 1:
            raise ValueError("k must be at least 1")
        terms = tuple(tokenize(query))
        return list(
            self._query_cache.get_or_compute(
                (terms, k, self._index.epoch),
                lambda: tuple(self._rank_fast(terms, k)),
            )
        )

    def search_with_snippets(self, query: str, k: int = 10) -> list[Snippet]:
        """Top-``k`` results as (snippet, url) evidence pairs."""
        results = self.search(query, k)
        if not results:
            return []
        query_terms = frozenset(tokenize(query))
        extract = self.snippet_cache.extract_with_terms
        return [
            Snippet(
                text=extract(result.page, query_terms),
                url=result.url,
                domain=result.domain,
                page=result.page,
            )
            for result in results
        ]

    # ------------------------------------------------------------------
    # Reference pipeline (equivalence oracle)

    def search_reference(self, query: str, k: int = 10) -> list[SearchResult]:
        """The original score-everything-then-sort pipeline, verbatim.

        Property tests hold :meth:`search` to bit-identical output; do
        not "optimize" it — its value is being the unchanged original.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        bm25 = self._scorer.score_all_reference(query)
        if not bm25:
            return []
        max_bm25 = max(bm25.values())

        candidates = []
        for doc_id, raw in bm25.items():
            page = self._index.page(doc_id)
            relevance = raw / max_bm25 if max_bm25 else 0.0
            blended = self._weights.blend(
                relevance=relevance,
                authority=self.domain_authority(page.domain),
                on_page_seo=page.seo_score,
                age_days=self._corpus.clock.age_days(page.published),
            )
            candidates.append((blended, doc_id, page))
        # Deterministic order: score desc, then doc_id for exact ties.
        candidates.sort(key=lambda item: (-item[0], item[1]))

        results: list[SearchResult] = []
        per_domain: dict[str, int] = {}
        for score, doc_id, page in candidates:
            seen = per_domain.get(page.domain, 0)
            if seen >= self._max_per_domain:
                continue
            per_domain[page.domain] = seen + 1
            results.append(
                SearchResult(
                    rank=len(results) + 1,
                    url=page.url,
                    domain=page.domain,
                    score=score,
                    page=page,
                )
            )
            if len(results) == k:
                break
        return results

    def search_with_snippets_reference(
        self, query: str, k: int = 10
    ) -> list[Snippet]:
        """Reference evidence pairs via :func:`extract_snippet`."""
        return [
            Snippet(
                text=extract_snippet(result.page, query),
                url=result.url,
                domain=result.domain,
                page=result.page,
            )
            for result in self.search_reference(query, k)
        ]

    # ------------------------------------------------------------------
    # Administration

    def query_cache_stats(self) -> CacheCounters:
        """Hit/miss/eviction counters of the query-result cache."""
        return self._query_cache.counters()

    def clear_query_cache(self) -> None:
        """Drop cached query results (e.g. between benchmark rounds)."""
        self._query_cache.clear()
