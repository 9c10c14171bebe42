"""cachelint — cache-coherence and epoch-invalidation analysis.

PR 7 pinned the cache/counter contract; this analyzer machine-checks
the half of it no test suite pins reliably: *invalidation*.  The repo's
caches — the engine answer memos, the query-result cache, the evidence
cache, the snippet cache — all memoize values derived from the inverted
index, and the index mutates (``add()`` bumps its ``epoch``).  A cache
whose key omits that epoch, or that world-level invalidation forgets,
serves stale answers silently.  Over the project index cachelint
discovers every **cache site** (a ``*Cache``-typed attribute, a
dict-as-cache ``__init__`` attribute, a module-level memo table),
summarizes every function's cache traffic, and enforces:

========  =========================================================
CACHE001  a cache reachable from a ``clear_caches()`` owner that the
          clear walk never reaches (survives world invalidation)
CACHE002  a cache filled from epoch-coupled state whose key has no
          epoch/generation component
CACHE003  a method of an epoch-bearing class that mutates its keyed
          state without bumping the generation counter
CACHE004  a mutable cached value that escapes and is mutated after
          insertion (later hits observe the mutation)
CACHE005  raw storage access from outside the owning cache, or an
          insert that skips the hit/miss counter contract
========  =========================================================

Receiver resolution is strictly typed — an unknown receiver contributes
nothing, and the runtime witness (:mod:`repro.cachewitness`,
``REPRO_CACHE_WITNESS=1``) covers the dynamic remainder by
fingerprinting stored values at insert and re-verifying them, with an
epoch stamp, on every cached read.  The one deliberate exception is
CACHE001's clear walk, which follows ``clear``-named calls by name —
there, a missed edge would *invent* a finding rather than suppress one.

Waive a single site with ``# cachelint: ignore[CACHE002] -- reason``;
``.lint-baseline.json`` holds **no** CACHE entries — src/repro carries
no grandfathered cache debt.  Run via ``python -m repro lint``;
``--dump cachegraph`` emits the deterministic site/epoch/traffic JSON
the analysis ran against.
"""

from repro.devtools.cachelint.rules import RULES, run

__all__ = ["RULES", "run"]
