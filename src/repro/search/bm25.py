"""Okapi BM25 scoring over the inverted index.

Standard formulation with the non-negative IDF variant
(``log(1 + (N - df + 0.5) / (df + 0.5))``), so very common terms score
zero rather than negative — important in a small synthetic corpus where a
vertical keyword can appear in most documents.

:meth:`BM25Scorer.score_terms` is the query fast path behind
:meth:`repro.search.engine.SearchEngine.score_terms`, the one scoring
seam organic ranking and retrieval share: term-at-a-time
accumulation over the index's frozen postings arrays, with the per-doc
length norm ``k1 * (1 - b + b * dl/avgdl)`` precomputed once per index
epoch so the per-posting work is one multiply-add and one divide.  It is
**bit-identical** to :meth:`score_terms_reference` — the original
postings-walking implementation, kept as the equivalence oracle — because
every float is produced by the same operations in the same order; the
property tests in ``tests/search/test_fastpath_equivalence.py`` hold the
two to exact equality.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from typing import Protocol

from repro.search.index import InvertedIndex
from repro.search.tokenize import tokenize

__all__ = ["BM25Scorer", "CorpusStats"]


class CorpusStats(Protocol):
    """The corpus-level statistics BM25 reads: N, avgdl, and df.

    An :class:`InvertedIndex` satisfies this directly (the single-index
    default).  A sharded engine hands each shard's scorer the merged
    :class:`repro.search.sharding.GlobalStats` instead, so every shard
    scores with corpus-wide numbers — what makes per-shard scores
    float-exact equal to single-index scores.  (Its routed
    :class:`~repro.search.sharding.ShardedIndex` serves no postings and
    has no scorer of its own.)
    """

    @property
    def doc_count(self) -> int: ...

    @property
    def average_doc_length(self) -> float: ...

    def document_frequency(self, term: str) -> int: ...


class BM25Scorer:
    """BM25 with tunable ``k1`` (tf saturation) and ``b`` (length norm).

    One scorer per index: a :class:`~repro.search.engine.SearchEngine`
    owns the one over its single index, a sharded engine one per shard,
    and every consumer scores through the engine's ``score_terms``.
    ``stats`` defaults to the index itself; passing corpus-wide
    statistics instead changes *which numbers* feed the formula, never
    the operations or their order — so a shard scorer handed global
    stats reproduces the single-index floats exactly.  External stats
    are a frozen snapshot: if the index grows, build a fresh scorer
    from re-exchanged stats (the sharded engine epoch-tags its scorers
    for exactly this).
    """

    def __init__(
        self,
        index: InvertedIndex,
        k1: float = 1.4,
        b: float = 0.75,
        *,
        stats: CorpusStats | None = None,
    ) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self._index = index
        self._stats: CorpusStats = stats if stats is not None else index
        self._k1 = k1
        self._b = b
        #: ``(epoch, table)`` — per-doc ``k1 * (1 - b + b * dl/avgdl)``,
        #: rebuilt lazily when the index epoch moves.  Published by a
        #: single attribute store (see the sharing contract): a racing
        #: rebuild under the thread executor swaps in an identical table.
        self._norm_table: tuple[int, Sequence[float] | Mapping[int, float]] | None = None

    def idf(self, term: str) -> float:
        """Non-negative inverse document frequency for an analyzed term."""
        n = self._stats.doc_count
        df = self._stats.document_frequency(term)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def warm(self) -> "BM25Scorer":
        """Precompute the norm table now (idempotent; returns self).

        Called at world assembly so forked pool workers inherit the table
        instead of each rebuilding it on first query.
        """
        if self._stats.average_doc_length != 0.0:
            self._norms()
        return self

    def _norms(self) -> Sequence[float] | Mapping[int, float]:
        epoch = self._index.epoch
        cached = self._norm_table
        if cached is not None and cached[0] == epoch:
            return cached[1]
        avg_len = self._stats.average_doc_length
        k1, b = self._k1, self._b
        dense, lengths = self._index.doc_length_table()
        table: Sequence[float] | Mapping[int, float]
        if dense:
            # Same expression the reference evaluates per posting:
            # k1 * (1.0 - b + b * (dl / avg_len)), hoisted per document.
            table = [k1 * (1.0 - b + b * (dl / avg_len)) for dl in lengths]
        else:
            table = {
                doc_id: k1 * (1.0 - b + b * (dl / avg_len))
                for doc_id, dl in lengths.items()
            }
        self._norm_table = (epoch, table)
        return table

    def score_all(self, query: str) -> dict[int, float]:
        """BM25 scores for every document matching at least one term."""
        return self.score_terms(tokenize(query))

    def score_terms(self, terms: Sequence[str]) -> dict[int, float]:
        """BM25 scores from pre-analyzed query terms (the fast path)."""
        scores: dict[int, float] = {}
        if self._stats.average_doc_length == 0.0:
            return scores
        norms = self._norms()
        k1_plus_1 = self._k1 + 1.0
        postings_arrays = self._index.postings_arrays
        get = scores.get
        for term in terms:
            idf = self.idf(term)
            if idf == 0.0:
                continue
            doc_ids, tfs = postings_arrays(term)
            for doc_id, tf in zip(doc_ids, tfs):
                scores[doc_id] = get(doc_id, 0.0) + (
                    idf * tf * k1_plus_1 / (tf + norms[doc_id])
                )
        return scores

    def score_all_reference(self, query: str) -> dict[int, float]:
        """Reference scores for a raw query (see :meth:`score_terms_reference`)."""
        return self.score_terms_reference(tokenize(query))

    def score_terms_reference(self, terms: Sequence[str]) -> dict[int, float]:
        """The original posting-walk implementation, kept as the oracle.

        Property tests assert ``score_terms`` matches this bit-for-bit;
        do not "optimize" it — its value is being the unchanged original.
        """
        scores: dict[int, float] = {}
        avg_len = self._stats.average_doc_length
        if avg_len == 0.0:
            return scores
        for term in terms:
            idf = self.idf(term)
            if idf == 0.0:
                continue
            for posting in self._index.postings(term):
                tf = posting.term_frequency
                norm = 1.0 - self._b + self._b * (
                    self._index.doc_length(posting.doc_id) / avg_len
                )
                gain = idf * tf * (self._k1 + 1.0) / (tf + self._k1 * norm)
                scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + gain
        return scores
