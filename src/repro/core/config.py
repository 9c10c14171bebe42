"""Study configuration.

One :class:`StudyConfig` seeds everything: the corpus, the engines' model
seeds, and every workload generator.  Two studies with equal configs are
bit-identical.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass, field

from repro.forkpool import EXECUTORS
from repro.webgraph.dates import DEFAULT_STUDY_DATE

__all__ = [
    "EXECUTORS",
    "StudyConfig",
    "WorkloadSizes",
    "cache_witness_enabled",
    "default_chaos_plan",
    "default_search_shards",
    "default_workers",
    "lock_witness_enabled",
]


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (defaults to 1 = sequential).

    The environment hook lets CI (and users) flip an entire test or
    study run onto the parallel path without touching any call site.
    Malformed values fall back to sequential rather than failing a run.
    """
    raw = os.environ.get("REPRO_WORKERS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def default_search_shards() -> int:
    """Search shard count from ``REPRO_SHARDS`` (defaults to 0 = unsharded).

    ``0`` keeps the classic single-index :class:`repro.search.engine.
    SearchEngine`; any positive value assembles worlds around the
    document-partitioned :class:`repro.search.sharding.
    ShardedSearchEngine` with that many shards.  Results are identical
    either way (the sharded engine is float-exact equal to single-shard),
    so like ``REPRO_WORKERS`` this is an env hook that flips a whole CI
    leg onto the sharded path without touching call sites.  Malformed
    values fall back to unsharded rather than failing a run.
    """
    raw = os.environ.get("REPRO_SHARDS", "")
    try:
        return max(0, int(raw)) if raw else 0
    except ValueError:
        return 0


def default_chaos_plan() -> tuple[str, int]:
    """The ambient fault plan from ``REPRO_CHAOS``/``REPRO_CHAOS_SEED``.

    Returns ``(plan text, plan seed)``; an empty plan text means no
    ambient chaos.  Tooling (the serve smoke gate, the sharded
    equivalence fixtures) uses this to run whole suites under a
    recoverable fault plan — whose outputs must stay byte-identical to
    clean runs — without threading CLI flags through every entry point.
    A malformed seed falls back to 0 rather than failing the run; the
    plan text itself is validated by :meth:`repro.resilience.FaultPlan.
    parse` at install time, where a typo should fail loudly.
    """
    text = os.environ.get("REPRO_CHAOS", "").strip()
    raw_seed = os.environ.get("REPRO_CHAOS_SEED", "")
    try:
        seed = int(raw_seed) if raw_seed else 0
    except ValueError:
        seed = 0
    return text, seed


def lock_witness_enabled() -> bool:
    """Whether ``REPRO_LOCK_WITNESS=1`` turned on the lock-order witness.

    Debug-only: when set, every :func:`repro.lockorder.witness_lock`
    site returns an instrumented lock that checks acquisitions against
    the canonical hierarchy (see ``docs/architecture.md``) and raises on
    order inversions instead of letting a deadlock hang the process.
    Checked at lock-construction time, like ``default_workers`` this is
    an env hook so CI can flip a whole test leg without touching call
    sites.
    """
    return os.environ.get("REPRO_LOCK_WITNESS", "") == "1"


def cache_witness_enabled() -> bool:
    """Whether ``REPRO_CACHE_WITNESS=1`` turned on the staleness witness.

    Debug-only: when set, every :func:`repro.cachewitness.witness_for`
    site returns a live witness that fingerprints stored values at
    insert, re-verifies the fingerprint on every cached read, and checks
    the generation counters of epoch-bearing structures — staleness
    raises ``CacheCoherenceViolation`` deterministically instead of
    silently skewing results (see ``docs/architecture.md``).  Checked at
    cache-construction time, like :func:`lock_witness_enabled` this is
    an env hook so CI can flip a whole test leg without touching call
    sites.
    """
    return os.environ.get("REPRO_CACHE_WITNESS", "") == "1"


@dataclass(frozen=True)
class WorkloadSizes:
    """Per-experiment workload sizes.

    Defaults follow the paper (1,000 ranking queries; 100+100 comparison
    queries; 300 intent queries; 10 perturbation runs per condition).
    Tests shrink these for speed.
    """

    ranking_queries: int = 1000
    comparison_popular: int = 100
    comparison_niche: int = 100
    intent_queries: int = 300
    freshness_queries_per_vertical: int = 40
    perturbation_queries: int = 30
    perturbation_runs: int = 10
    pairwise_queries: int = 12
    citation_queries: int = 120

    def __post_init__(self) -> None:
        for name in (
            "ranking_queries", "comparison_popular", "comparison_niche",
            "intent_queries", "freshness_queries_per_vertical",
            "perturbation_queries", "perturbation_runs",
            "pairwise_queries", "citation_queries",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class StudyConfig:
    """Top-level configuration of a reproduction run."""

    seed: int = 7
    corpus_scale: float = 1.0
    study_date: dt.date = DEFAULT_STUDY_DATE
    sizes: WorkloadSizes = field(default_factory=WorkloadSizes)
    #: Worker pool width for the study runner.  1 = the plain sequential
    #: loop.  Excluded from equality/hash: results are identical for any
    #: worker count (the runner's determinism invariant), so two configs
    #: differing only in execution strategy describe the same study.
    workers: int = field(default_factory=default_workers, compare=False)
    #: "process" (fork-inherited world) or "thread".
    executor: str = field(default="process", compare=False)
    #: Search shard count; 0 = the classic single-index engine, N >= 1
    #: = the document-partitioned sharded engine.  Excluded from
    #: equality/hash like ``workers``: the sharded engine is float-exact
    #: equal to single-shard, so two configs differing only in shard
    #: topology describe the same study.
    search_shards: int = field(default_factory=default_search_shards, compare=False)
    #: Retired: shards always score in-process.  Kept only so existing
    #: ``resident_shards=False`` call sites still construct; ``True``
    #: is rejected.
    resident_shards: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.corpus_scale <= 0:
            raise ValueError("corpus_scale must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.search_shards < 0:
            raise ValueError("search_shards must be non-negative")
        if self.resident_shards:
            raise ValueError(
                "resident_shards is no longer supported: search shards "
                "always run in-process"
            )
