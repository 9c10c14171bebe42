"""Okapi BM25 scoring over the inverted index.

Standard formulation with the non-negative IDF variant
(``log(1 + (N - df + 0.5) / (df + 0.5))``), so very common terms score
zero rather than negative — important in a small synthetic corpus where a
vertical keyword can appear in most documents.

:meth:`BM25Scorer.score_terms` is the query fast path behind
:meth:`repro.search.engine.SearchEngine.score_terms`, the one scoring
seam organic ranking and retrieval share: term-at-a-time
accumulation over per-term impact arrays.  Once the index freezes, a
posting's gain ``idf * tf * (k1 + 1) / (tf + norm)`` (with the per-doc
length norm ``norm = k1 * (1 - b + b * dl/avgdl)``) depends on nothing
else, so :meth:`BM25Scorer.warm` computes every posting's gain once per
index epoch and a query's first term fills the score dict in one
``dict(zip(...))``, every later posting costing one add.  It is
**bit-identical** to :meth:`score_terms_reference` — the original
postings-walking implementation, kept as the equivalence oracle — because
every float is produced by the same operations in the same order (and
the first term's ``0.0 + gain`` is ``gain``); the property tests in
``tests/search/test_fastpath_equivalence.py`` hold the two to exact
equality.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence

from repro.search.index import InvertedIndex
from repro.search.tokenize import tokenize

__all__ = ["BM25Scorer"]

#: One term's ``(doc_ids, gains)``: the index's postings order, one BM25
#: gain per posting, stored as C doubles (exactly the Python floats).
_Impacts = tuple[tuple[int, ...], Sequence[float]]


class BM25Scorer:
    """BM25 with tunable ``k1`` (tf saturation) and ``b`` (length norm).

    One scorer per index, reading N, avgdl and df from that index: a
    :class:`~repro.search.engine.SearchEngine` owns the one over its
    index, and every consumer scores through the engine's
    ``score_terms``.
    """

    def __init__(
        self,
        index: InvertedIndex,
        k1: float = 1.4,
        b: float = 0.75,
    ) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self._index = index
        self._k1 = k1
        self._b = b
        #: ``(epoch, table)`` — term -> ``(doc_ids, gains)``, rebuilt
        #: lazily when the index epoch moves.  Published by a single
        #: attribute store (see the sharing contract): a racing rebuild
        #: under the thread executor swaps in an identical table.
        self._impact_table: tuple[int, dict[str, _Impacts]] | None = None

    def idf(self, term: str) -> float:
        """Non-negative inverse document frequency for an analyzed term."""
        n = self._index.doc_count
        df = self._index.document_frequency(term)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def warm(self) -> "BM25Scorer":
        """Precompute the impact table now (idempotent; returns self).

        Every posting's gain ``idf * tf * (k1 + 1) / (tf + norm)``, the
        reference's operands in its order, stored per term beside the
        term's ``doc_ids``; terms whose idf is zero score nothing and are
        left out.  Called at world assembly so forked pool workers
        inherit the table instead of each rebuilding it on first query.
        """
        if self._index.average_doc_length != 0.0:
            self._impacts()
        return self

    def _impacts(self) -> dict[str, _Impacts]:
        epoch = self._index.epoch
        cached = self._impact_table
        if cached is not None and cached[0] == epoch:
            return cached[1]
        avg_len = self._index.average_doc_length
        k1, b = self._k1, self._b
        k1_plus_1 = k1 + 1.0
        dense, lengths = self._index.doc_length_table()
        # The reference's per-posting norm, k1 * (1.0 - b + b * (dl /
        # avg_len)), hoisted per document.
        norms = {
            doc_id: k1 * (1.0 - b + b * (dl / avg_len))
            for doc_id, dl in (enumerate(lengths) if dense else lengths.items())
        }
        table: dict[str, _Impacts] = {}
        for term, (doc_ids, tfs) in self._index.postings_table().items():
            idf = self.idf(term)
            if idf == 0.0:
                continue
            gains = [
                idf * tf * k1_plus_1 / (tf + norms[doc_id])
                for doc_id, tf in zip(doc_ids, tfs)
            ]
            table[term] = (doc_ids, array("d", gains))
        self._impact_table = (epoch, table)
        return table

    def score_all(self, query: str) -> dict[int, float]:
        """BM25 scores for every document matching at least one term."""
        return self.score_terms(tokenize(query))

    def score_terms(self, terms: Sequence[str]) -> dict[int, float]:
        """BM25 scores from pre-analyzed query terms (the fast path)."""
        if self._index.average_doc_length == 0.0:
            return {}
        impacts = self._impacts().get
        scores: dict[int, float] | None = None
        for term in terms:
            entry = impacts(term)
            if entry is None:
                continue
            doc_ids, gains = entry
            if scores is None:
                # A term's doc ids are distinct, and 0.0 + gain == gain.
                scores = dict(zip(doc_ids, gains))
                continue
            get = scores.get
            for doc_id, gain in zip(doc_ids, gains):
                scores[doc_id] = get(doc_id, 0.0) + gain
        return {} if scores is None else scores

    def score_all_reference(self, query: str) -> dict[int, float]:
        """Reference scores for a raw query (see :meth:`score_terms_reference`)."""
        return self.score_terms_reference(tokenize(query))

    def score_terms_reference(self, terms: Sequence[str]) -> dict[int, float]:
        """The original posting-walk implementation, kept as the oracle.

        It walks each term's :meth:`~InvertedIndex.postings_arrays` with
        the original operands in the original order.  Property tests
        assert ``score_terms`` matches this bit-for-bit; do not
        "optimize" it — its value is being the unchanged arithmetic.
        """
        scores: dict[int, float] = {}
        avg_len = self._index.average_doc_length
        if avg_len == 0.0:
            return scores
        for term in terms:
            idf = self.idf(term)
            if idf == 0.0:
                continue
            doc_ids, tfs = self._index.postings_arrays(term)
            for doc_id, tf in zip(doc_ids, tfs):
                norm = 1.0 - self._b + self._b * (
                    self._index.doc_length(doc_id) / avg_len
                )
                gain = idf * tf * (self._k1 + 1.0) / (tf + self._k1 * norm)
                scores[doc_id] = scores.get(doc_id, 0.0) + gain
        return scores
