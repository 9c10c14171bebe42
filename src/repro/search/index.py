"""Inverted index over the synthetic corpus.

Classic postings-list design: term -> [(doc_id, term_frequency)], plus
per-document lengths and the corpus statistics BM25 needs.  Title terms
are indexed with a configurable boost (counted multiple times), a standard
trick that stands in for field-weighted scoring.

The index has two phases.  During *build* (:meth:`add` / :meth:`add_all`)
each term's postings accumulate in two parallel int lists, ``doc_ids``
and ``term_frequencies`` — the one build-time store, with no object per
posting.  The first read through :meth:`freeze`, :meth:`postings_arrays`,
:meth:`postings_table` or :meth:`doc_length_table` freezes that state
into immutable parallel arrays — the same pair as tuples per term, plus
a doc-length table laid out densely when doc ids are contiguous — which
the query fast path scans without per-call copies.  The lists stay
behind after a freeze, so a later ``add`` simply appends to them and
bumps :attr:`epoch`; the next read freezes afresh, and anything keyed on
``(..., epoch)`` can never serve stale results.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from repro.search.tokenize import tokenize
from repro.webgraph.pages import Page

__all__ = ["InvertedIndex"]


@dataclass(frozen=True)
class _FrozenPostings:
    """An immutable snapshot of the index's postings at one epoch.

    Built entirely off to the side and published through a single
    attribute store, so a racing rebuild under the thread executor can
    only ever swap in an identical snapshot — never expose a torn one.
    """

    epoch: int
    #: term -> (doc_ids, term_frequencies), parallel and build-ordered.
    arrays: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
    #: doc lengths; a dense list indexed by doc_id when ids are the
    #: contiguous range 0..n-1 (the corpus generator's layout), else a dict.
    lengths: Sequence[int] | Mapping[int, int]
    dense: bool


_EMPTY_ARRAYS: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


def _length_table(
    pages: Mapping[int, Page], doc_lengths: Mapping[int, int]
) -> tuple[bool, Sequence[int] | Mapping[int, int]]:
    """``(dense, lengths)`` — dense list when ids are 0..n-1, else dict."""
    count = len(pages)
    dense = count > 0 and min(pages) == 0 and max(pages) == count - 1
    if dense:
        table = [0] * count
        for doc_id, length in doc_lengths.items():
            table[doc_id] = length
        return True, table
    return False, dict(doc_lengths)


class InvertedIndex:
    """Term -> postings mapping with document statistics.

    Build once with :meth:`add` / :meth:`add_all`; the index is append-only
    (re-adding a ``doc_id`` raises).  Read accessors hand out **immutable
    views** onto frozen internal state — callers share storage with the
    index and must not (and cannot) mutate it; there is no defensive
    copying anywhere on the query path.
    """

    def __init__(self, title_boost: int = 3) -> None:
        if title_boost < 1:
            raise ValueError("title_boost must be at least 1")
        self._title_boost = title_boost
        #: term -> ``(doc_ids, term_frequencies)``: parallel int lists
        #: in build order, appended to by :meth:`add` and kept after a
        #: freeze.
        self._lists: dict[str, tuple[list[int], list[int]]] = {}
        self._doc_lengths: dict[int, int] = {}
        self._pages: dict[int, Page] = {}
        self._total_length = 0
        self._mutations = 0
        self._frozen: _FrozenPostings | None = None

    def add(self, page: Page) -> None:
        """Index one page (appends to the build lists; bumps the epoch)."""
        doc_id = page.doc_id
        if doc_id in self._pages:
            raise ValueError(f"doc_id {doc_id} already indexed")
        term_counts: dict[str, int] = {}
        title_terms = tokenize(page.title)
        body_terms = tokenize(page.body)
        for term in title_terms:
            term_counts[term] = term_counts.get(term, 0) + self._title_boost
        for term in body_terms:
            term_counts[term] = term_counts.get(term, 0) + 1

        length = self._title_boost * len(title_terms) + len(body_terms)
        self._doc_lengths[doc_id] = length
        self._total_length += length
        self._pages[doc_id] = page
        lists = self._lists
        for term, count in term_counts.items():
            entry = lists.get(term)
            if entry is None:
                lists[term] = ([doc_id], [count])
            else:
                entry[0].append(doc_id)
                entry[1].append(count)
        self._mutations += 1

    def add_all(self, pages: Iterable[Page]) -> None:
        for page in pages:
            self.add(page)

    # ------------------------------------------------------------------
    # Frozen read path

    @property
    def epoch(self) -> int:
        """Mutation counter; bumps on every :meth:`add`.

        Caches keyed on ``(..., epoch)`` — the search engine's query
        cache — are invalidated by construction when the index grows.
        """
        return self._mutations

    def freeze(self) -> "InvertedIndex":
        """Materialize the frozen snapshot now (idempotent; returns self).

        Called eagerly by :class:`repro.search.engine.SearchEngine` after
        ``add_all`` so forked pool workers inherit the arrays instead of
        each rebuilding them.
        """
        self._snapshot()
        return self

    def _snapshot(self) -> _FrozenPostings:
        snapshot = self._frozen
        if snapshot is not None and snapshot.epoch == self._mutations:
            return snapshot
        arrays = {
            term: (tuple(doc_ids), tuple(tfs))
            for term, (doc_ids, tfs) in self._lists.items()
        }
        dense, lengths = _length_table(self._pages, self._doc_lengths)
        snapshot = _FrozenPostings(
            epoch=self._mutations, arrays=arrays, lengths=lengths, dense=dense
        )
        self._frozen = snapshot
        return snapshot

    def postings_arrays(
        self, term: str
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Parallel ``(doc_ids, term_frequencies)`` views for a term.

        Zero-copy: both tuples belong to the frozen snapshot and are
        shared across calls.  Empty pair if the term is unseen.
        """
        return self._snapshot().arrays.get(term, _EMPTY_ARRAYS)

    def postings_table(
        self,
    ) -> Mapping[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Every term's :meth:`postings_arrays`, in one read-only view."""
        return MappingProxyType(self._snapshot().arrays)

    def doc_length_table(self) -> tuple[bool, Sequence[int] | Mapping[int, int]]:
        """``(dense, table)`` view of per-doc lengths.

        When ``dense`` is true the table is a list indexed by ``doc_id``;
        otherwise a mapping.  Read-only — shared with the snapshot.
        """
        snapshot = self._snapshot()
        return snapshot.dense, snapshot.lengths

    # ------------------------------------------------------------------
    # Classic accessors

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self.postings_arrays(term)[0])

    def doc_length(self, doc_id: int) -> int:
        """Token count of a document (title boost included)."""
        return self._doc_lengths[doc_id]

    def page(self, doc_id: int) -> Page:
        """The indexed page for ``doc_id``."""
        return self._pages[doc_id]

    @property
    def doc_count(self) -> int:
        return len(self._pages)

    @property
    def average_doc_length(self) -> float:
        if not self._pages:
            return 0.0
        return self._total_length / len(self._pages)

    @property
    def total_length(self) -> int:
        """Sum of all document lengths (the avgdl numerator)."""
        return self._total_length

    def vocabulary_size(self) -> int:
        """Number of distinct indexed terms."""
        return len(self._lists)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._pages
