"""conclint — interprocedural concurrency-safety analysis.

PR 1 made the study runner parallel; the "byte-identical under
``workers=N``" guarantee holds only as long as nothing reachable from a
pool worker mutates shared state.  conclint machine-checks that sharing
contract: it builds a project-wide symbol table and an approximate call
graph over ``src/repro``, computes the set of functions reachable from
the pool entry points (``repro.core.runner._answer_chunk``, anything
handed to an ``Executor.submit``, and every engine
``answer``/``_answer_uncached`` implementation), then enforces:

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
grandfather legacy debt in ``.conclint-baseline.json`` (entries carry
mandatory reasons).  Run via ``python -m repro conclint``;
``--dump-callgraph`` emits the deterministic call-graph JSON the
analysis ran against.  The findings/pragma/baseline/reporter machinery
lives in :mod:`repro.devtools.common`, shared with detlint and
locklint; locklint also reuses this package's :class:`ProjectIndex`
and call graph.
"""

from repro.devtools.conclint.callgraph import CallGraph, build_callgraph
from repro.devtools.conclint.rules import (
    AnalysisContext,
    ConcRule,
    all_conc_rules,
    conc_rule_table,
    register_conc,
)
from repro.devtools.conclint.runner import AnalysisResult, analyze_paths
from repro.devtools.conclint.symbols import ProjectIndex

__all__ = [
    "AnalysisContext",
    "AnalysisResult",
    "CallGraph",
    "ConcRule",
    "ProjectIndex",
    "all_conc_rules",
    "analyze_paths",
    "build_callgraph",
    "conc_rule_table",
    "register_conc",
]
