"""The memo primitive's contract: ``None`` values, failures and the
uncounted peek.

``BoundedCache.get`` used to compare the stored value against ``None``
to decide hit vs miss, so a compute that legitimately returned ``None``
recomputed on every lookup — and each re-``put`` of the existing key was
miscounted as a hit, silently inflating the hit rate while doing the
work of a miss.  Presence (via a private sentinel) now decides.  The
``None`` cases run over :class:`repro.caching.BoundedCache` and its
subclass :class:`repro.core.runner.EvidenceCache`.
"""

import pytest

from repro.caching import BoundedCache
from repro.core.runner import EvidenceCache


def _boom():
    raise RuntimeError("retrieval failed")


class TestBoundedCacheNoneValues:
    cache_class = BoundedCache

    def test_none_value_computes_once(self):
        cache = self.cache_class(limit=8)
        calls = []

        def compute():
            calls.append(1)
            return None

        assert cache.get_or_compute("k", compute) is None
        assert cache.get_or_compute("k", compute) is None
        assert cache.get_or_compute("k", compute) is None
        assert len(calls) == 1

    def test_none_value_counters_are_honest(self):
        cache = self.cache_class(limit=8)
        cache.get_or_compute("k", lambda: None)
        cache.get_or_compute("k", lambda: None)
        counters = cache.counters()
        # One miss (the insert), one hit (the repeat) — not the old
        # miss-then-two-phantom-hits shape from re-inserting every call.
        assert (counters.hits, counters.misses) == (1, 1)
        assert counters.size == 1

    def test_get_counts_stored_none_as_hit(self):
        cache = self.cache_class(limit=8)
        cache.put("k", None)
        assert cache.get("k", default="sentinel") is None
        assert cache.counters().hits == 1

    def test_get_absent_key_returns_default_without_counting(self):
        cache = self.cache_class(limit=8)
        marker = object()
        assert cache.get("missing", marker) is marker
        assert cache.get("missing") is None
        counters = cache.counters()
        assert (counters.hits, counters.misses) == (0, 0)

    def test_none_survives_alongside_other_values(self):
        cache = self.cache_class(limit=8)
        cache.put("none", None)
        cache.put("zero", 0)
        cache.put("empty", "")
        # All falsy values are first-class citizens.
        assert "none" in cache and cache.get("none") is None
        assert cache.get("zero") == 0
        assert cache.get("empty") == ""
        assert len(cache) == 3

    def test_eviction_of_none_entry_recomputes(self):
        cache = self.cache_class(limit=1)
        cache.get_or_compute("a", lambda: None)
        cache.get_or_compute("b", lambda: "other")  # evicts "a"
        calls = []
        cache.get_or_compute("a", lambda: calls.append(1))
        assert len(calls) == 1

    def test_failed_compute_stores_nothing(self):
        cache = self.cache_class(limit=8)
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", _boom)
        assert "k" not in cache
        counters = cache.counters()
        assert (counters.hits, counters.misses) == (0, 0)
        assert cache.get_or_compute("k", lambda: None) is None
        assert cache.counters().misses == 1


class TestEvidenceCacheNoneValues(TestBoundedCacheNoneValues):
    """The same cases over the evidence memo, a ``BoundedCache``."""

    cache_class = EvidenceCache


class TestPeek:
    def test_peek_moves_no_counter(self):
        cache = BoundedCache(limit=8)
        assert cache.peek("k") is None
        cache.put("k", "v")
        assert cache.peek("k") == "v"
        counters = cache.counters()
        assert (counters.hits, counters.misses) == (0, 1)
