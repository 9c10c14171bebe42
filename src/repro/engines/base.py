"""Engine interface and answer model.

Every system under comparison — Google included — implements
:class:`AnswerEngine`: a query goes in, an :class:`Answer` with cited URLs
comes out.  The analysis pipeline only ever sees answers, which is exactly
the paper's measurement boundary (it scrapes citations from live engine
output).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.caching import BoundedCache
from repro.entities.queries import Query
from repro.webgraph.pages import Page
from repro.webgraph.urls import normalize_url

__all__ = ["Answer", "AnswerEngine", "Citation"]


@dataclass(frozen=True)
class Citation:
    """One cited source."""

    url: str
    domain: str
    page: Page | None = None

    def __post_init__(self) -> None:
        if not self.url:
            raise ValueError("citation URL must be non-empty")


@dataclass(frozen=True)
class Answer:
    """An engine's response to a query."""

    engine: str
    query_id: str
    text: str
    citations: tuple[Citation, ...] = ()
    ranked_entities: tuple[str, ...] = ()

    def cited_urls(self) -> list[str]:
        """Cited URLs in citation order."""
        return [c.url for c in self.citations]

    def cited_domains(self) -> set[str]:
        """Registrable domains of the citations (normalized, deduplicated).

        Citations that cannot be normalized are dropped, as the analysis
        pipeline treats unusable citations.
        """
        domains = set()
        for citation in self.citations:
            domain = normalize_url(citation.url)
            if domain is not None:
                domains.add(domain)
        return domains


class AnswerEngine(abc.ABC):
    """A system that answers queries with cited sources.

    Engines are deterministic — the same query always yields the same
    answer — so :meth:`answer` memoizes per query identity.  Audits and
    intervention studies that revisit the same workload pay for each
    query once.  Subclasses implement :meth:`_answer_uncached`.
    """

    #: Display name used in figures and tables ("Google", "GPT-4o", ...).
    name: str = "engine"

    #: Cache entries kept per engine; oldest (FIFO, by first insertion)
    #: evicted only once the cache *exceeds* this after an insert.
    #: Read once, at construction.
    cache_limit: int = 4096

    def __init__(self) -> None:
        #: The memo, keyed ``(query.cache_key, self._cache_epoch())``:
        #: every identity-bearing Query field plus the generation of the
        #: corpus state the answers derive from.  The epoch supplier
        #: lets the staleness witness catch a key built without it.
        self._answer_cache = BoundedCache(
            self.cache_limit,
            site=f"AnswerEngine._answer_cache[{self.name}]",
            epochs=self._cache_epoch,
        )
        #: Optional ResilienceContext guarding _answer_uncached (the
        #: "engine.answer" fault site); None leaves the path untouched.
        self._resilience = None

    def set_resilience(self, context) -> None:
        """Attach (or detach, with ``None``) a resilience context.

        With one attached, cache misses compute behind the
        ``"engine.answer"`` fault site: injected faults retry with
        deterministic backoff, the engine's circuit breaker gates the
        call, and exhaustion raises ``ResilienceExhausted`` for the
        runner's containment layer.  Cache hits never re-enter the
        site — a memoized answer already survived it.
        """
        self._resilience = context

    @abc.abstractmethod
    def _answer_uncached(self, query: Query) -> Answer:
        """Answer ``query``; must be deterministic per (engine, query)."""

    def _cache_epoch(self) -> int:
        """Generation of whatever corpus state the answers derive from.

        The memo key embeds this (the cache-coherence contract in
        docs/architecture.md), so index growth moves every key instead
        of serving answers computed against the old postings.  The base
        engine is corpus-free and pins generation 0; engines that read
        an index override this with the index's epoch.
        """
        return 0

    def cached_answer(self, query: Query) -> Answer | None:
        """The memoized answer for ``query``, or ``None`` — no counters.

        An uncounted peek for callers that do their own hit/miss
        accounting (the serving tier classifies hit vs coalesced vs
        miss before deciding whether to enter the single-flight group).
        """
        return self._answer_cache.peek((query.cache_key, self._cache_epoch()))

    def answer(self, query: Query) -> Answer:
        """Answer ``query`` (memoized).

        With a resilience context the compute runs behind the
        ``"engine.answer"`` site.
        """
        key = (query.cache_key, self._cache_epoch())
        ctx = self._resilience
        if ctx is None:
            return self._answer_cache.get_or_compute(
                key, lambda: self._answer_uncached(query)
            )
        return self._answer_cache.get_or_compute(
            key,
            lambda: ctx.call(
                "engine.answer",
                (self.name, query.id),
                lambda: self._answer_uncached(query),
                engine=self.name,
            ),
        )

    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) of this engine's memo, in this process."""
        counters = self._answer_cache.counters()
        return counters.hits, counters.misses

    def clear_cache(self) -> None:
        """Drop memoized answers and reset the hit/miss counters."""
        self._answer_cache.clear()

    def answer_all(self, queries: list[Query]) -> list[Answer]:
        """Answer a workload; convenience for experiment runners."""
        return [self.answer(query) for query in queries]
