"""Tests for the inverted index and BM25 scorer."""

import datetime as dt

import pytest

from repro.search.bm25 import BM25Scorer
from repro.search.index import InvertedIndex
from repro.webgraph.pages import DateMarkup, Page, PageKind


def make_page(doc_id: int, title: str, body: str) -> Page:
    return Page(
        doc_id=doc_id,
        url=f"https://example.com/x/{doc_id}",
        domain="example.com",
        kind=PageKind.REVIEW,
        vertical="smartphones",
        title=title,
        body=body,
        published=dt.date(2025, 1, 1),
        date_markup=DateMarkup.NONE,
    )


@pytest.fixture
def index():
    idx = InvertedIndex()
    idx.add_all(
        [
            make_page(0, "Best smartphones of 2025", "Apple and Samsung lead the smartphone market."),
            make_page(1, "Laptop buying guide", "Choosing a laptop means balancing battery and weight."),
            make_page(2, "Smartphone cameras compared", "Camera quality varies between smartphone brands."),
        ]
    )
    return idx


class TestInvertedIndex:
    def test_doc_count_and_lengths(self, index):
        assert index.doc_count == 3
        assert index.doc_length(0) > 0
        assert index.average_doc_length > 0

    def test_postings(self, index):
        doc_ids, __ = index.postings_arrays("smartphone")
        assert set(doc_ids) == {0, 2}
        assert index.document_frequency("smartphone") == 2

    def test_unknown_term(self, index):
        assert index.postings_arrays("zzz") == ((), ())
        assert index.document_frequency("zzz") == 0

    def test_postings_view_is_immutable_and_shared(self, index):
        doc_ids, tfs = index.postings_arrays("smartphone")
        assert isinstance(doc_ids, tuple) and isinstance(tfs, tuple)
        again = index.postings_arrays("smartphone")
        assert again[0] is doc_ids and again[1] is tfs

    def test_postings_arrays_are_parallel(self, index):
        doc_ids, tfs = index.postings_arrays("smartphone")
        # Three title occurrences (the boost) plus one in the body each.
        assert dict(zip(doc_ids, tfs)) == {0: 4, 2: 4}
        assert len(doc_ids) == len(tfs)

    def test_epoch_bumps_and_views_refresh(self, index):
        before = index.epoch
        old_ids, old_tfs = index.postings_arrays("smartphone")
        index.add(make_page(3, "Smartphone deals", "A smartphone bargain roundup."))
        assert index.epoch == before + 1
        new_ids, new_tfs = index.postings_arrays("smartphone")
        assert new_ids is not old_ids
        assert new_ids == (0, 2, 3)
        assert new_tfs == old_tfs + (4,)
        # The earlier snapshot's arrays are immutable, not updated in place.
        assert old_ids == (0, 2)

    def test_add_after_freeze_matches_fresh_build(self, index):
        pages = [index.page(doc_id) for doc_id in range(3)]
        index.freeze()
        extra = make_page(3, "Smartphone deals", "A smartphone bargain roundup.")
        fresh = InvertedIndex()
        fresh.add_all(pages + [extra])
        fresh.freeze()
        index.add(extra)
        index.freeze()
        assert list(index.postings_table()) == list(fresh.postings_table())
        for term, arrays in fresh.postings_table().items():
            assert index.postings_arrays(term) == arrays
        assert index.doc_length_table() == fresh.doc_length_table()
        assert index.total_length == fresh.total_length
        assert index.epoch == fresh.epoch
        assert index.vocabulary_size() == fresh.vocabulary_size()

    def test_title_terms_boosted(self):
        idx = InvertedIndex(title_boost=3)
        idx.add(make_page(0, "unique", "other words here"))
        assert idx.postings_arrays("unique") == ((0,), (3,))

    def test_duplicate_doc_id_raises(self, index):
        with pytest.raises(ValueError, match="already indexed"):
            index.add(make_page(0, "dup", "dup"))

    def test_invalid_title_boost(self):
        with pytest.raises(ValueError):
            InvertedIndex(title_boost=0)

    def test_contains_and_page(self, index):
        assert 0 in index
        assert 99 not in index
        assert index.page(1).title == "Laptop buying guide"

    def test_vocabulary_size(self, index):
        assert index.vocabulary_size() > 5


class TestBM25:
    def test_relevant_doc_scores_highest(self, index):
        scorer = BM25Scorer(index)
        scores = scorer.score_all("smartphone camera quality")
        assert scores  # non-empty
        best = max(scores, key=scores.get)
        assert best == 2

    def test_no_match_returns_empty(self, index):
        assert BM25Scorer(index).score_all("zebra xylophone") == {}

    def test_idf_monotone_in_rarity(self, index):
        scorer = BM25Scorer(index)
        # "laptop" (df=1) is rarer than "smartphon" (df=2).
        assert scorer.idf("laptop") > scorer.idf("smartphone")
        assert scorer.idf("neverseen") > scorer.idf("laptop")

    def test_idf_non_negative(self, index):
        scorer = BM25Scorer(index)
        for term in ("smartphone", "laptop", "apple", "market"):
            assert scorer.idf(term) >= 0

    def test_scores_positive(self, index):
        scores = BM25Scorer(index).score_all("smartphone")
        assert all(s > 0 for s in scores.values())

    def test_parameter_validation(self, index):
        with pytest.raises(ValueError):
            BM25Scorer(index, k1=-1)
        with pytest.raises(ValueError):
            BM25Scorer(index, b=1.5)

    def test_empty_index(self):
        scorer = BM25Scorer(InvertedIndex())
        assert scorer.score_all("anything") == {}

    def test_term_frequency_saturates(self):
        idx = InvertedIndex(title_boost=1)
        idx.add(make_page(0, "x", "camera " * 1 + "filler words padding here"))
        idx.add(make_page(1, "x", "camera " * 20))
        idx.add(make_page(2, "x", "nothing relevant at all whatsoever"))
        scorer = BM25Scorer(idx)
        scores = scorer.score_all("camera")
        # More occurrences score higher, but far less than 20x.
        assert scores[1] > scores[0]
        assert scores[1] < 20 * scores[0]
