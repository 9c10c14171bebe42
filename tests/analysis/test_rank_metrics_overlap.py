"""Tests for rank metrics and the overlap analysis."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.overlap import domain_overlap
from repro.analysis.rank_metrics import mean_absolute_rank_deviation, rank_positions
from repro.engines.base import Answer, Citation


class TestRankMetrics:
    def test_identical_rankings(self):
        assert mean_absolute_rank_deviation(list("abc"), list("abc")) == 0.0

    def test_full_reversal(self):
        # a,b,c,d -> d,c,b,a: deviations 3,1,1,3 -> mean 2.
        assert mean_absolute_rank_deviation(list("abcd"), list("dcba")) == 2.0

    def test_single_swap(self):
        assert mean_absolute_rank_deviation(list("abc"), list("bac")) == pytest.approx(2 / 3)

    def test_mismatched_items_raise(self):
        with pytest.raises(ValueError, match="identical item sets"):
            mean_absolute_rank_deviation(["a", "b"], ["a", "c"])

    def test_duplicates_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            rank_positions(["a", "a"])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_absolute_rank_deviation([], [])

    @given(st.permutations(list(range(10))))
    def test_bounds_against_theory(self, perm):
        delta = mean_absolute_rank_deviation(list(range(10)), list(perm))
        n = 10
        # Max possible mean deviation for n items is n/2 (full reversal
        # gives n/2 exactly for even n).
        assert 0.0 <= delta <= n / 2

    @given(st.permutations(list(range(8))))
    def test_symmetry(self, perm):
        base = list(range(8))
        assert mean_absolute_rank_deviation(base, list(perm)) == pytest.approx(
            mean_absolute_rank_deviation(list(perm), base)
        )


def answer(engine, query_id, domains):
    return Answer(
        engine=engine,
        query_id=query_id,
        text="t",
        citations=tuple(
            Citation(url=f"https://{d}/page", domain=d) for d in domains
        ),
    )


class TestDomainOverlap:
    def test_basic_report(self):
        answers = {
            "Google": [answer("Google", "q0", ["a.com", "b.com"])],
            "AI": [answer("AI", "q0", ["b.com", "c.com"])],
        }
        report = domain_overlap(answers)
        assert report.mean_overlap["AI"] == pytest.approx(1 / 3)
        assert report.systems == ("AI",)
        assert report.query_count == 1

    def test_multiple_queries_average(self):
        answers = {
            "Google": [
                answer("Google", "q0", ["a.com"]),
                answer("Google", "q1", ["a.com"]),
            ],
            "AI": [
                answer("AI", "q0", ["a.com"]),   # overlap 1.0
                answer("AI", "q1", ["b.com"]),   # overlap 0.0
            ],
        }
        report = domain_overlap(answers)
        assert report.mean_overlap["AI"] == pytest.approx(0.5)

    def test_missing_baseline_raises(self):
        with pytest.raises(ValueError, match="baseline"):
            domain_overlap({"AI": []}, baseline="Google")

    def test_misaligned_workloads_raise(self):
        answers = {
            "Google": [answer("Google", "q0", ["a.com"])],
            "AI": [],
        }
        with pytest.raises(ValueError, match="misaligned"):
            domain_overlap(answers)

    def test_empty_workload_raises(self):
        with pytest.raises(ValueError, match="empty"):
            domain_overlap({"Google": [], "AI": []})

    def test_cross_model_and_unique_ratio(self):
        answers = {
            "Google": [answer("Google", "q0", ["g.com"])],
            "A": [answer("A", "q0", ["x.com", "s.com"])],
            "B": [answer("B", "q0", ["y.com", "s.com"])],
        }
        report = domain_overlap(answers)
        # A and B share s.com: jaccard 1/3; unique = x,y of {x,y,s} = 2/3.
        assert report.cross_model_overlap == pytest.approx(1 / 3)
        assert report.unique_domain_ratio == pytest.approx(2 / 3)

    def test_ordered_by_overlap(self):
        answers = {
            "Google": [answer("Google", "q0", ["a.com", "b.com"])],
            "High": [answer("High", "q0", ["a.com", "b.com"])],
            "Low": [answer("Low", "q0", ["z.com"])],
        }
        report = domain_overlap(answers)
        assert [name for name, __ in report.ordered_by_overlap()] == ["Low", "High"]

    def test_alternate_baseline(self):
        answers = {
            "Google": [answer("Google", "q0", ["a.com"])],
            "Gemini": [answer("Gemini", "q0", ["a.com"])],
            "AI": [answer("AI", "q0", ["a.com"])],
        }
        report = domain_overlap(answers, baseline="Gemini")
        assert set(report.mean_overlap) == {"Google", "AI"}

    def test_each_citation_normalized_once(self, monkeypatch):
        import repro.engines.base as base

        calls = []
        real = base.normalize_url

        def counting(url):
            calls.append(url)
            return real(url)

        monkeypatch.setattr(base, "normalize_url", counting)
        answers = {
            "Google": [
                answer("Google", "q0", ["a.com", "b.com"]),
                answer("Google", "q1", ["a.com"]),
            ],
            "A": [
                answer("A", "q0", ["a.com", "c.com"]),
                answer("A", "q1", ["d.com", "e.com", "f.com"]),
            ],
            "B": [answer("B", "q0", ["b.com"]), answer("B", "q1", [])],
        }
        domain_overlap(answers)
        citations = sum(
            len(a.citations) for per_system in answers.values() for a in per_system
        )
        assert len(calls) == citations == 9
