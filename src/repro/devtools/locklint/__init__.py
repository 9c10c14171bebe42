"""locklint — lock-discipline and blocking-hazard analysis.

PR 6 gave the repo a serving tier: one process, a thread pool, and a
dozen lock sites shared across the cache, single-flight, resilience and
stats layers.  locklint machine-checks the locking discipline that
makes the tier hang-free.  Over the project index it discovers every
**lock site** (a ``threading`` primitive — or
its :func:`repro.lockorder.witness_lock` wrapper — assigned in an
``__init__``, named ``Class._attr``), computes the set of sites held at
every call edge, and enforces:

=======  ==========================================================
LOCK001  lock-order cycle: two sites acquired in both orders on
         different interprocedural paths
LOCK002  blocking call (Event.wait, Future.result, Queue.get/put,
         sleep, subprocess/file I/O, Semaphore.acquire) reachable
         while a lock is held
LOCK003  re-entrant acquisition of a non-reentrant site
         (self-deadlock)
LOCK004  bare ``.acquire()`` without a guaranteed ``.release()`` on
         exception paths
LOCK005  ``Condition.wait`` outside a ``while predicate:`` loop
=======  ==========================================================

Receiver resolution is strictly typed — unlike conclint's deliberately
over-approximate reachability, a lock analyzer that guesses receivers
reports phantom deadlocks, so unknown receivers contribute nothing and
the runtime witness (:mod:`repro.lockorder`, ``REPRO_LOCK_WITNESS=1``)
covers the dynamic remainder.

Waive a single site with ``# locklint: ignore[LOCK002] -- reason``;
``.lint-baseline.json`` holds **no** LOCK entries — src/repro carries no
grandfathered lock debt.  Run via ``python -m repro lint``; ``--dump
lockgraph`` emits the deterministic site/edge/hierarchy JSON the
analysis ran against.
"""

from repro.devtools.locklint.rules import RULES, run

__all__ = ["RULES", "run"]
