"""Inverted index over the synthetic corpus.

Classic postings-list design: term -> [(doc_id, term_frequency)], plus
per-document lengths and the corpus statistics BM25 needs.  Title terms
are indexed with a configurable boost (counted multiple times), a standard
trick that stands in for field-weighted scoring.

The index has two phases.  During *build* (:meth:`add` / :meth:`add_all`)
postings accumulate in per-term lists.  The first read through
:meth:`freeze`, :meth:`postings_arrays`, :meth:`postings_table` or
:meth:`doc_length_table` freezes that state into immutable parallel
arrays — one ``doc_ids`` tuple and one ``term_frequencies`` tuple per
term, plus a doc-length table laid out densely when doc ids are
contiguous — which the query fast path scans without per-call copies or
per-posting object dispatch.  A later ``add`` thaws the snapshot and
bumps :attr:`epoch`, so anything keyed on ``(..., epoch)`` can never
serve stale results.

For parallel shard builds (:mod:`repro.search.sharding`) the frozen
arrays double as a wire format: a worker process builds an index, ships
:meth:`frozen_parts` home (plain tuples and ints — no ``Posting`` or
``Page`` objects cross the pipe), and the parent reconstitutes it with
:meth:`from_frozen_parts` against its own page objects.  An index built
that way starts *lazy* — postings lists materialize from the arrays
only if a later :meth:`add` thaws it — so reconstruction costs O(vocab)
dict inserts, not O(postings) object builds.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from repro.search.tokenize import tokenize
from repro.webgraph.pages import Page

__all__ = ["InvertedIndex", "Posting"]


@dataclass(frozen=True)
class Posting:
    """One document's entry in a term's postings list."""

    doc_id: int
    term_frequency: int


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
        #: ``None`` marks a *lazy* index (built by
        #: :meth:`from_frozen_parts`): the frozen snapshot is the
        #: canonical store and postings lists materialize on demand.
        self._postings: dict[str, list[Posting]] | None = {}
        self._doc_lengths: dict[int, int] = {}
        self._pages: dict[int, Page] = {}
        self._total_length = 0
        self._mutations = 0
        self._frozen: _FrozenPostings | None = None
        #: Per-term tuple views handed out by :meth:`postings`, built
        #: lazily and invalidated wholesale by :meth:`add`.
        self._views: dict[str, tuple[Posting, ...]] = {}

    @classmethod
    def from_frozen_parts(
        cls,
        pages: Iterable[Page],
        arrays: dict[str, tuple[tuple[int, ...], tuple[int, ...]]],
        doc_lengths: Mapping[int, int],
        total_length: int,
        title_boost: int = 3,
    ) -> "InvertedIndex":
        """Reconstitute an index from :meth:`frozen_parts` plus pages.

        The counterpart of a worker-side build: ``arrays``,
        ``doc_lengths`` and ``total_length`` crossed the pipe as plain
        tuples/ints, and ``pages`` are the *parent's* page objects for
        the same documents — so every accessor returns the parent's
        instances, exactly as if the parent had built the index itself.
        The result is read-equivalent to ``add_all(pages)`` (same epoch,
        same arrays, same statistics); a later :meth:`add` thaws the
        snapshot into ordinary postings lists first.
        """
        index = cls(title_boost)
        index._pages = {page.doc_id: page for page in pages}
        if set(doc_lengths) != set(index._pages):
            raise ValueError("doc_lengths and pages disagree on doc ids")
        index._doc_lengths = dict(doc_lengths)
        index._total_length = total_length
        index._mutations = len(index._pages)
        dense, lengths = _length_table(index._pages, index._doc_lengths)
        index._frozen = _FrozenPostings(
            epoch=index._mutations, arrays=arrays, lengths=lengths, dense=dense
        )
        index._postings = None
        return index

    def frozen_parts(
        self,
    ) -> tuple[
        dict[str, tuple[tuple[int, ...], tuple[int, ...]]],
        dict[int, int],
        int,
    ]:
        """``(arrays, doc_lengths, total_length)`` — the picklable core.

        Everything :meth:`from_frozen_parts` needs except the pages:
        plain string/int containers, cheap to ship across a process
        pipe relative to re-tokenizing the documents.
        """
        return self._snapshot().arrays, dict(self._doc_lengths), self._total_length

    def _thaw(self) -> dict[str, list[Posting]]:
        """Materialize postings lists from the frozen arrays (lazy mode)."""
        snapshot = self._frozen
        assert snapshot is not None  # lazy mode always carries a snapshot
        postings = {
            term: [
                Posting(doc_id=doc_id, term_frequency=tf)
                for doc_id, tf in zip(doc_ids, tfs)
            ]
            for term, (doc_ids, tfs) in snapshot.arrays.items()
        }
        self._postings = postings
        return postings

    def add(self, page: Page) -> None:
        """Index one page (thaws any frozen snapshot; bumps the epoch)."""
        if page.doc_id in self._pages:
            raise ValueError(f"doc_id {page.doc_id} already indexed")
        term_counts: dict[str, int] = {}
        title_terms = tokenize(page.title)
        body_terms = tokenize(page.body)
        for term in title_terms:
            term_counts[term] = term_counts.get(term, 0) + self._title_boost
        for term in body_terms:
            term_counts[term] = term_counts.get(term, 0) + 1

        length = self._title_boost * len(title_terms) + len(body_terms)
        self._doc_lengths[page.doc_id] = length
        self._total_length += length
        self._pages[page.doc_id] = page
        postings = self._postings if self._postings is not None else self._thaw()
        for term, count in term_counts.items():
            postings.setdefault(term, []).append(
                Posting(doc_id=page.doc_id, term_frequency=count)
            )
        self._mutations += 1
        if self._views:
            self._views = {}

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
        assert self._postings is not None  # lazy snapshots never go stale
        arrays = {
            term: (
                tuple(p.doc_id for p in plist),
                tuple(p.term_frequency for p in plist),
            )
            for term, plist in self._postings.items()
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

    def postings(self, term: str) -> Sequence[Posting]:
        """Postings for an (already analyzed) term; empty if unseen.

        Returns an **immutable view** (a tuple, memoized per term) rather
        than a fresh list copy — repeated calls share one object, and the
        O(df) per-call garbage the old copy created is gone.
        """
        view = self._views.get(term)
        if view is None:
            if self._postings is None:
                doc_ids, tfs = self._snapshot().arrays.get(term, _EMPTY_ARRAYS)
                if not doc_ids:
                    return ()
                view = tuple(
                    Posting(doc_id=doc_id, term_frequency=tf)
                    for doc_id, tf in zip(doc_ids, tfs)
                )
            else:
                plist = self._postings.get(term)
                if plist is None:
                    return ()
                view = tuple(plist)
            self._views[term] = view
        return view

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        if self._postings is None:
            return len(self._snapshot().arrays.get(term, _EMPTY_ARRAYS)[0])
        return len(self._postings.get(term, ()))

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
        """Sum of all document lengths (the avgdl numerator).

        Kept as an int so sharded deployments can sum shard totals
        without floating-point drift: the merged average equals the
        single-index average *exactly*.
        """
        return self._total_length

    def vocabulary_size(self) -> int:
        """Number of distinct indexed terms."""
        if self._postings is None:
            return len(self._snapshot().arrays)
        return len(self._postings)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._pages
