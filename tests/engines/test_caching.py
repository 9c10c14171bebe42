"""Tests for engine answer memoization."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engines.base import Answer, AnswerEngine
from repro.entities.queries import PopularityClass, Query, QueryKind


class CountingEngine(AnswerEngine):
    name = "Counting"
    cache_limit = 3

    def __init__(self):
        super().__init__()
        self.calls = 0

    def _answer_uncached(self, query: Query) -> Answer:
        self.calls += 1
        return Answer(engine=self.name, query_id=query.id, text=query.text)


class RoomyCountingEngine(CountingEngine):
    """A counting engine whose memo never evicts in these tests."""

    cache_limit = 4096


def make_query(
    i: int,
    text: str | None = None,
    popularity: PopularityClass | None = None,
) -> Query:
    return Query(
        id=f"q{i}", text=text or f"query {i}", kind=QueryKind.RANKING,
        vertical="suvs", popularity_class=popularity,
    )


class TestAnswerCaching:
    def test_repeat_queries_hit_the_cache(self):
        engine = CountingEngine()
        query = make_query(0)
        first = engine.answer(query)
        second = engine.answer(query)
        assert engine.calls == 1
        assert first is second

    def test_distinct_queries_miss(self):
        engine = CountingEngine()
        engine.answer(make_query(0))
        engine.answer(make_query(1))
        assert engine.calls == 2

    def test_same_id_different_text_misses(self):
        # Identity includes the text, not just the id.
        engine = CountingEngine()
        engine.answer(make_query(0, "alpha"))
        engine.answer(make_query(0, "beta"))
        assert engine.calls == 2

    def test_eviction_beyond_limit(self):
        engine = CountingEngine()
        for i in range(4):  # limit is 3: q0 evicted
            engine.answer(make_query(i))
        engine.answer(make_query(3))  # hit
        assert engine.calls == 4
        engine.answer(make_query(0))  # evicted -> recompute
        assert engine.calls == 5

    def test_answer_all_uses_cache(self):
        engine = CountingEngine()
        queries = [make_query(0), make_query(0), make_query(1)]
        answers = engine.answer_all(queries)
        assert engine.calls == 2
        assert answers[0] is answers[1]

    def test_no_eviction_at_exactly_the_limit(self):
        # Filling the cache to cache_limit must not evict anything:
        # eviction fires only once an insert pushes the size *past* the
        # limit (the old pre-insert eviction oscillated at the limit).
        engine = CountingEngine()
        for i in range(3):  # == limit
            engine.answer(make_query(i))
        for i in range(3):  # all still cached
            engine.answer(make_query(i))
        assert engine.calls == 3

    def test_eviction_is_fifo_by_insertion_order(self):
        engine = CountingEngine()
        for i in range(3):
            engine.answer(make_query(i))
        engine.answer(make_query(0))  # hit; FIFO does not refresh order
        engine.answer(make_query(3))  # over limit: q0 (oldest) evicted
        assert engine.calls == 4
        for i in (1, 2, 3):  # survivors, in order
            engine.answer(make_query(i))
        assert engine.calls == 4
        engine.answer(make_query(0))  # recompute; evicts q1 next
        assert engine.calls == 5
        engine.answer(make_query(1))
        assert engine.calls == 6

    def test_popularity_class_is_part_of_the_key(self):
        # Two queries differing only in popularity_class must not
        # collide in the memo.
        engine = CountingEngine()
        engine.answer(make_query(0, popularity=PopularityClass.POPULAR))
        engine.answer(make_query(0, popularity=PopularityClass.NICHE))
        assert engine.calls == 2
        engine.answer(make_query(0, popularity=PopularityClass.POPULAR))
        assert engine.calls == 2

    def test_hit_miss_counters_and_clear(self):
        engine = CountingEngine()
        engine.answer(make_query(0))
        engine.answer(make_query(0))
        engine.answer(make_query(1))
        assert engine.cache_stats() == (1, 2)
        engine.clear_cache()
        assert engine.cache_stats() == (0, 0)
        engine.answer(make_query(0))
        assert engine.calls == 3  # truly dropped, not just counters

    def test_concurrent_answers_keep_counters_consistent(self):
        # Regression for the hit-path race: the hit counter was once
        # bumped outside the memo lock, so hammering one engine from
        # many threads lost increments and broke hits + misses == calls.
        # A tiny switch interval makes the threads interleave inside
        # the memo instead of each finishing within one GIL slice.
        engine = RoomyCountingEngine()
        queries = [make_query(i % 8) for i in range(400)]
        barrier = threading.Barrier(8)

        def worker(chunk):
            barrier.wait()
            return [engine.answer(q) for q in chunk]

        chunks = [queries[i::8] for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(worker, c) for c in chunks]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)

        hits, misses = engine.cache_stats()
        # Every answer() call lands in exactly one counter, and a miss
        # is recorded once per key (by whichever thread inserts first —
        # racing duplicates of the same computation count as hits).
        assert hits + misses == len(queries)
        assert misses == 8
        # One canonical Answer per key, regardless of which thread won.
        by_id = {}
        for answer in (a for chunk in results for a in chunk):
            assert by_id.setdefault(answer.query_id, answer) is answer

    def test_real_engine_caches(self, world):
        from repro.entities.queries import ranking_queries

        query = ranking_queries(world.catalog, count=1, seed=77)[0]
        gpt = world.engines["GPT-4o"]
        first = gpt.answer(query)
        second = gpt.answer(query)
        assert first is second


class _KeyRaisingQuery:
    """A query stand-in whose identity computation itself is broken."""

    id = "broken"
    text = "broken query"

    @property
    def cache_key(self) -> str:
        raise AttributeError("cache_key exploded")


class TestSkippedInitGuard:
    """A key that cannot be computed surfaces its error.

    Regression for the blanket ``except AttributeError`` that once
    wrapped the whole cache path: an AttributeError raised while
    computing ``query.cache_key`` was mistaken for a skipped
    ``__init__``, so broken queries were silently served uncached on
    every call instead of surfacing the error.
    """

    def test_key_raising_query_surfaces_the_error(self):
        engine = CountingEngine()
        with pytest.raises(AttributeError, match="cache_key exploded"):
            engine.answer(_KeyRaisingQuery())
        # And nothing was computed or cached along the way.
        assert engine.calls == 0
        assert engine.cache_stats() == (0, 0)


class TestCachedAnswerPeek:
    def test_peek_is_uncounted_and_non_computing(self):
        engine = CountingEngine()
        query = make_query(0)
        assert engine.cached_answer(query) is None
        assert engine.calls == 0
        answer = engine.answer(query)
        assert engine.cached_answer(query) is answer
        # The two peeks moved neither counter; only answer() did.
        assert engine.cache_stats() == (0, 1)


class EpochedEngine(CountingEngine):
    """A counting engine whose memo epoch is test-controlled."""

    name = "Epoched"

    def __init__(self):
        super().__init__()
        self.generation = 0

    def _cache_epoch(self) -> int:
        return self.generation


class TestEpochKeyedMemo:
    """The answer memo keys on ``(query key, cache epoch)``: bumping the
    generation makes stale entries unreachable instead of served."""

    def test_epoch_bump_invalidates_without_clearing(self):
        engine = EpochedEngine()
        query = make_query(0)
        first = engine.answer(query)
        assert engine.answer(query) is first
        assert engine.calls == 1
        engine.generation += 1
        second = engine.answer(query)
        assert second is not first
        assert engine.calls == 2

    def test_peek_respects_the_epoch(self):
        engine = EpochedEngine()
        query = make_query(0)
        answer = engine.answer(query)
        assert engine.cached_answer(query) is answer
        engine.generation += 1
        assert engine.cached_answer(query) is None

    def test_base_engine_epoch_is_constant(self):
        # Engines with no corpus-derived state keep the degenerate epoch.
        assert CountingEngine()._cache_epoch() == 0

    def test_real_engines_derive_epoch_from_the_index(self, world):
        index_epoch = world.search_engine.index.epoch
        assert world.engines["Google"]._cache_epoch() == index_epoch
        assert world.engines["GPT-4o"]._cache_epoch() == index_epoch
