"""Shard-coverage provenance: which scatters lost which shards, and why.

The sharded substrate's contract is float-exactness over *all* shards.
When a shard is down past the resilience ladder (retries exhausted,
breaker open), the scatter degrades to a partial merge over the
survivors — still float-exact *for the shards that answered*, but no
longer the full-corpus ranking.  Like PR 5's quarantine ladder, that
loss must be a measured, annotated event, never a silent ranking skew:
every degraded scatter produces a :class:`ShardCoverage` record naming
the experiment phase, the query, and exactly which shards were missing
and why, and the record flows into study/serve output as an annotated
cell.

:class:`ShardCoverageLog` is the world-level registry (one per
:class:`~repro.resilience.context.ResilienceContext`).  Besides the
lock-guarded append-only list it keeps a **thread-local** record
counter, so a caller can bracket a computation with
:meth:`~ShardCoverageLog.mark` / :meth:`~ShardCoverageLog.recorded_since`
and learn whether *its own thread* degraded coverage inside — the
signal :meth:`repro.caching.BoundedCache.get_or_compute` uses to skip
memoizing partial results.  Thread-locality matters in the
serving tier: concurrent workers must not see each other's losses, or
a full-coverage answer would be refused memoization because an
unrelated request degraded at the same moment.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.lockorder import witness_lock

__all__ = ["ShardCoverage", "ShardCoverageLog"]


@dataclass(frozen=True)
class ShardCoverage:
    """Provenance of one partial-coverage scatter.

    ``missing`` and ``reasons`` are parallel tuples: ``reasons[i]`` is
    the exhaustion reason for shard ``missing[i]``.  Only picklable
    primitives, so records cross the study runner's result pipe intact.
    """

    phase: str
    query: str
    total_shards: int
    missing: tuple[int, ...]
    reasons: tuple[str, ...]

    @property
    def surviving(self) -> int:
        """How many shards actually contributed to the merge."""
        return self.total_shards - len(self.missing)

    @property
    def fraction(self) -> float:
        """Surviving shards over total — 0.0 means an empty page."""
        if not self.total_shards:
            return 0.0
        return self.surviving / self.total_shards


class _ThreadCounter(threading.local):
    """Per-thread count of records appended by *this* thread."""

    def __init__(self) -> None:
        self.count = 0


class ShardCoverageLog:
    """Append-only, lock-guarded coverage registry (shared across threads)."""

    def __init__(self) -> None:
        self._records: list[ShardCoverage] = []
        self._lock = witness_lock("ShardCoverageLog._lock")
        self._local = _ThreadCounter()

    def __len__(self) -> int:
        return len(self._records)

    def record(self, record: ShardCoverage) -> None:
        with self._lock:
            self._records.append(record)
        # Bumped outside the lock: the counter is thread-local, so only
        # the recording thread ever reads or writes its own slot.
        self._local.count += 1

    def extend(self, records: tuple[ShardCoverage, ...]) -> None:
        """Merge records collected in a forked pool worker.

        A parent-side merge, not a local degradation: the thread-local
        counter is deliberately untouched, so folding a worker's delta
        never makes the collecting thread look degraded.
        """
        with self._lock:
            self._records.extend(records)

    def records(self, phase: str | None = None) -> tuple[ShardCoverage, ...]:
        """A snapshot, optionally filtered to one experiment phase."""
        with self._lock:
            snapshot = tuple(self._records)
        if phase is None:
            return snapshot
        return tuple(r for r in snapshot if r.phase == phase)

    def count(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------
    # Thread-local degradation bracketing

    def mark(self) -> int:
        """This thread's record count — pair with :meth:`recorded_since`."""
        return self._local.count

    def recorded_since(self, mark: int) -> bool:
        """Whether *this thread* recorded coverage loss since ``mark``."""
        return self._local.count > mark
