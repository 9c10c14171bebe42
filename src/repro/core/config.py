"""Study configuration.

One :class:`StudyConfig` seeds everything: the corpus, the engines' model
seeds, and every workload generator.  Two studies with equal configs are
bit-identical.
"""

from __future__ import annotations

import datetime as dt
import math
import os
from dataclasses import dataclass, field

from repro.webgraph.dates import DEFAULT_STUDY_DATE

__all__ = [
    "StudyConfig",
    "WorkloadSizes",
    "cache_witness_enabled",
    "default_chaos_plan",
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


def default_chaos_plan() -> tuple[str, int]:
    """The ambient fault plan from ``REPRO_CHAOS``/``REPRO_CHAOS_SEED``.

    Returns ``(plan text, plan seed)``; an empty plan text means no
    ambient chaos.  Tooling (the serve smoke gate) uses this to run
    under a recoverable fault plan — whose outputs must stay
    byte-identical to clean runs — without threading CLI flags through
    every entry point.
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
    #: loop; more = a process pool that inherits the world by ``fork``.
    #: Excluded from equality/hash: results are identical for any
    #: worker count (the runner's determinism invariant), so two configs
    #: differing only in execution strategy describe the same study.
    workers: int = field(default_factory=default_workers, compare=False)
    #: Retired: search always runs on one index.  Kept only so existing
    #: ``search_shards=0`` call sites still construct; any other value
    #: is rejected.
    search_shards: int = field(default=0, compare=False)
    #: Retired: shards always score in-process.  Kept only so existing
    #: ``resident_shards=False`` call sites still construct; ``True``
    #: is rejected.
    resident_shards: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.corpus_scale) and self.corpus_scale > 0):
            raise ValueError("corpus_scale must be positive and finite")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.search_shards != 0:
            raise ValueError(
                "search_shards is no longer supported: search always runs "
                "on one index"
            )
        if self.resident_shards:
            raise ValueError(
                "resident_shards is no longer supported: search shards "
                "always run in-process"
            )
