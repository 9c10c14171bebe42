"""The one memo primitive: a lock-guarded, FIFO-bounded keyed cache.

Every memo in the codebase is a :class:`BoundedCache`: the engine answer
memos (:class:`repro.engines.base.AnswerEngine`), the Section 3.1
evidence cache (:class:`repro.core.runner.EvidenceCache`), and the
search substrate's query-result and sentence caches.  Each is a
FIFO-bounded dict with hit/miss/eviction counters, every write under an
instance lock, plus an optional staleness witness.

The concurrency contract is the one conclint CONC002 audits: ``compute``
runs *outside* the lock (racing duplicate computations are
deterministic, so last-insert-wins is harmless), all bookkeeping —
insert, trim, counters — runs inside it.  Instances are plain
attributes of world-owned objects, so forked pool workers inherit
independent copies and the serving tier's thread pool shares one safely
through the lock; no module-level state is involved (CONC001/CONC004
clean by construction).

A leaf module: it imports only the witness helpers, so the engines, the
runner and the search substrate can all build on it without an import
cycle.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

from repro.cachewitness import witness_for
from repro.lockorder import witness_lock

__all__ = ["BoundedCache", "CacheCounters"]

#: Module-private miss marker: lets ``get``/``get_or_compute`` tell a
#: stored ``None`` apart from an absent key, so a legitimately-``None``
#: value memoizes once instead of recomputing (and miscounting the
#: re-insert as a hit) on every lookup.
_MISSING = object()


@dataclass(frozen=True)
class CacheCounters:
    """A point-in-time snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class BoundedCache:
    """A keyed memo held in FIFO insertion order and trimmed to ``limit``.

    Invariants:

    * one computation per key per cache between evictions — a second
      lookup is a hit, never a recompute;
    * presence decides hit vs miss — a stored ``None`` is a hit;
    * thread-safe — ``compute`` runs outside the lock, bookkeeping
      inside it, and the stored value (not the racing duplicate) is
      what every caller receives, so value identity is stable across
      threads; the loser of a race counts a hit on the winner's entry;
    * exception-safe — a ``compute`` that raises changes nothing: no
      counter moves and no entry is stored, so counters only ever
      describe completed work.
    """

    def __init__(
        self,
        limit: int = 8192,
        *,
        site: str = "BoundedCache",
        epochs: Callable[[], Hashable] | None = None,
    ) -> None:
        if limit < 1:
            raise ValueError("limit must be at least 1")
        self._limit = limit
        self._cache: dict[Hashable, Any] = {}
        self._lock = witness_lock("BoundedCache._lock")
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        #: Staleness witness (None unless REPRO_CACHE_WITNESS=1).
        #: ``site`` names this cache in violations; ``epochs`` supplies
        #: the generation stamp of whatever the values derive from.
        self._witness = witness_for(site, epochs=epochs)

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._cache

    def peek(self, key: Hashable) -> Any | None:
        """The stored value for ``key``, or ``None`` — no counters.

        An unlocked read for callers that do their own hit/miss
        accounting (the serving tier classifies hit vs coalesced vs
        miss before entering its single-flight group).  Dict reads are
        GIL-atomic and entries are immutable once stored, so a racing
        eviction at worst turns the peek into a miss.
        """
        return self._cache.get(key)

    def get(self, key: Hashable, default: Any = None) -> Any | None:
        """The cached value for ``key`` (a counted hit), or ``default``.

        An absent key moves no counter; the miss is recorded by the
        :meth:`put` half of the pair.
        """
        with self._lock:
            value = self._cache.get(key, _MISSING)
            if value is not _MISSING:
                self._hits += 1
        if value is not _MISSING:
            # Witness checks run outside the lock (the witness has its
            # own leaf-level lock; see CANONICAL_HIERARCHY).
            if self._witness is not None:
                self._witness.verify(key, value)
            return value
        return default

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert ``value`` unless ``key`` arrived first; return the winner.

        Counted as the miss half of a ``get``/``put`` pair: the caller
        already observed the miss via :meth:`get`, so ``put`` records
        it.  Insert first, trim after: a present key is never grounds
        for eviction, and the cache holds exactly ``limit`` entries at
        steady state.
        """
        with self._lock:
            if key not in self._cache:
                inserted = True
                self._misses += 1
                self._cache[key] = value
                while len(self._cache) > self._limit:
                    self._cache.pop(next(iter(self._cache)))
                    self._evictions += 1
            else:
                inserted = False
                self._hits += 1
            stored = self._cache[key]
        if self._witness is not None:
            if inserted:
                self._witness.record(key, stored)
            else:
                self._witness.verify(key, stored)
        return stored

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on first use."""
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        return self.put(key, compute())

    def counters(self) -> CacheCounters:
        """Current hit/miss/eviction counts and entry count."""
        with self._lock:
            return CacheCounters(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._cache),
            )

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
        if self._witness is not None:
            self._witness.clear()
