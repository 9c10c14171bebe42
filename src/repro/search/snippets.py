"""Query-biased snippet extraction.

Generative engines consume retrieved evidence as (snippet, url) pairs —
the paper's Section 3.1 retrieves "pairs of text snippets and urls".  The
extractor picks the body sentences with the highest query-term overlap,
which is how real result snippets are built.

Two implementations share the algorithm:

* :func:`extract_snippet` — the original stateless function, which
  re-splits and re-tokenizes the page body on every call.  Kept as the
  equivalence oracle and for one-off callers.
* :class:`SnippetCache` — the fast path: a lock-guarded, bounded
  per-page cache of pre-split sentences with pre-tokenized term sets,
  so the tens of thousands of repeated retrievals a study performs pay
  tokenization once per page instead of once per (page, query, arm).
  Output is byte-identical to :func:`extract_snippet` (pinned by a
  regression test).
"""

from __future__ import annotations

from repro.caching import BoundedCache, CacheCounters
from repro.search.tokenize import tokenize
from repro.webgraph.pages import Page

__all__ = ["SnippetCache", "extract_snippet"]


def _sentences(body: str) -> list[str]:
    """Split a page body into sentences (generator bodies use newlines)."""
    pieces = []
    for line in body.split("\n"):
        start = 0
        for i, ch in enumerate(line):
            if ch in ".!?":
                piece = line[start : i + 1].strip()
                if piece:
                    pieces.append(piece)
                start = i + 1
        tail = line[start:].strip()
        if tail:
            pieces.append(tail)
    return pieces


def _split(body: str) -> tuple[tuple[str, ...], tuple[frozenset[str], ...]]:
    """A body's sentences plus one analyzed term set per sentence."""
    sentences = tuple(_sentences(body))
    return sentences, tuple(frozenset(tokenize(s)) for s in sentences)


def extract_snippet(page: Page, query: str, max_sentences: int = 2) -> str:
    """The ``max_sentences`` body sentences most relevant to ``query``.

    Sentences are scored by overlap with the analyzed query terms (ties
    break toward earlier sentences); selected sentences are returned in
    document order so the snippet reads naturally.  Falls back to the
    page's leading sentences when nothing overlaps.

    This is the reference implementation the snippet cache is held to;
    do not "optimize" it — its value is being the unchanged original.
    """
    if max_sentences < 1:
        raise ValueError("max_sentences must be at least 1")
    sentences = _sentences(page.body)
    if not sentences:
        return page.title
    query_terms = set(tokenize(query))
    scored = []
    for position, sentence in enumerate(sentences):
        overlap = len(query_terms & set(tokenize(sentence)))
        scored.append((overlap, position, sentence))
    # Highest overlap first, earliest position as tiebreak.
    scored.sort(key=lambda item: (-item[0], item[1]))
    chosen = sorted(scored[:max_sentences], key=lambda item: item[1])
    return " ".join(sentence for __, __, sentence in chosen)


class SnippetCache:
    """Per-page sentence cache behind query-biased snippet extraction.

    Entries are keyed on the page *body* (CPython caches a string's hash,
    and repeated lookups see the same body object, so keying is cheap and
    stays correct across worlds that happen to reuse doc ids).  Each entry
    holds the pre-split sentences and one frozen term set per sentence;
    per-query work is then a set intersection per sentence.

    Sharing contract: the cache is an instance attribute of the world's
    :class:`~repro.search.engine.SearchEngine`; forked pool workers
    inherit independent copies, the serving tier's thread pool shares
    one through :class:`~repro.caching.BoundedCache`'s lock.
    """

    def __init__(self, limit: int = 8192) -> None:
        # Content-addressed: the key IS the page body, so entries can
        # never go stale under index growth and the staleness witness
        # needs no epoch supplier (see the cache-coherence contract in
        # docs/architecture.md).
        self._cache = BoundedCache(limit=limit, site="SnippetCache._cache")

    def __len__(self) -> int:
        return len(self._cache)

    def page_sentences(
        self, page: Page
    ) -> tuple[tuple[str, ...], tuple[frozenset[str], ...]]:
        """``(sentences, per-sentence term sets)`` for a page, memoized."""
        body = page.body
        return self._cache.get_or_compute(body, lambda: _split(body))

    def extract(self, page: Page, query: str, max_sentences: int = 2) -> str:
        """Byte-identical to :func:`extract_snippet`, via the cache."""
        return self.extract_with_terms(
            page, frozenset(tokenize(query)), max_sentences
        )

    def extract_with_terms(
        self,
        page: Page,
        query_terms: frozenset[str],
        max_sentences: int = 2,
    ) -> str:
        """Extraction with the query analyzed once by the caller.

        ``search_with_snippets`` and the evidence builders tokenize the
        query a single time and reuse the term set across every retrieved
        page.
        """
        if max_sentences < 1:
            raise ValueError("max_sentences must be at least 1")
        sentences, term_sets = self.page_sentences(page)
        if not sentences:
            return page.title
        scored = [
            (len(query_terms & term_sets[position]), position, sentence)
            for position, sentence in enumerate(sentences)
        ]
        # Same selection as the reference: highest overlap first,
        # earliest position as tiebreak, then back to document order.
        scored.sort(key=lambda item: (-item[0], item[1]))
        chosen = sorted(scored[:max_sentences], key=lambda item: item[1])
        return " ".join(sentence for __, __, sentence in chosen)

    def counters(self) -> CacheCounters:
        """Hit/miss/eviction counters of the sentence cache."""
        return self._cache.counters()

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._cache.clear()
