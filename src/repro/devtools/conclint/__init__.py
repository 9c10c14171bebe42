"""conclint — the interprocedural concurrency-safety rule family.

PR 1 made the study runner parallel; the "byte-identical under
``workers=N``" guarantee holds only as long as nothing reachable from a
pool worker mutates shared state.  conclint machine-checks that sharing
contract: over the project index it builds an approximate call graph,
computes the set of functions reachable from the pool entry points
(``repro.core.runner._answer_chunk``, anything handed to an
``Executor.submit``, and every engine ``answer``/``_answer_uncached``
implementation), then enforces:

=======  ==========================================================
CONC001  module-level state mutated from worker-reachable code
         (the ``fork_inherit`` handshake global is the one
         allowlisted write)
CONC002  shared instance caches (memo dicts, hit/miss counters)
         written on paths not holding the corresponding lock
CONC003  parent-side mutation of objects already shipped to forked
         workers by inheritance (world divergence after pool start)
CONC004  fork-unsafe resources (open handles, locks, executors)
         referenced by worker-reachable code or captured closures
CONC005  a shared ``random.Random`` instance crossing the worker
         boundary instead of a ``derive_rng`` per-task stream
=======  ==========================================================

Waive a single site with ``# conclint: ignore[CONC001] -- reason``;
grandfathered debt goes in ``.lint-baseline.json`` (entries carry
mandatory reasons).  Run via ``python -m repro lint``; ``--dump
callgraph`` emits the deterministic call-graph JSON the analysis ran
against.
"""

from repro.devtools.conclint.rules import RULES, run

__all__ = ["RULES", "run"]
