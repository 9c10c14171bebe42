"""Approximate call graph and worker-reachability analysis.

The graph is deliberately an *over*-approximation — a concurrency
analyzer that misses a reachable mutation is worthless, while one that
checks a few extra functions merely works harder:

* calls to names and dotted paths resolve through each module's import
  table (same machinery as detlint);
* ``self.method(...)`` dispatches class-hierarchy-aware: to the method
  in the receiver's class, any ancestor, or any in-project descendant —
  this is what carries reachability from ``AnswerEngine.answer_all``
  into every engine's ``_answer_uncached``;
* a method call on a receiver the analyzer cannot type
  (``world.engines[name].answer_all(...)``) falls back to linking every
  in-project method of that name (class-hierarchy analysis's classic
  cheap cousin);
* functions handed to ``Executor.submit`` / ``Pool.map`` and friends
  become **entry points**, as do the configured pool entry
  (``repro.core.runner._answer_chunk``) and every ``answer`` /
  ``_answer_uncached`` / ``answer_all`` implementation in the
  :class:`AnswerEngine` hierarchy.

Reachability is a BFS from the entry points over the edge set; every
reachable function records which entry first reached it, so findings
can say *why* a function is considered worker-side.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

from repro.devtools.common.index import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    iter_own_nodes,
)

__all__ = ["CallGraph", "build_callgraph"]

#: Functions that are pool entry points by project convention.
CONFIGURED_ENTRIES = ("repro.core.runner._answer_chunk",)

#: The engine base class; ``answer``/``_answer_uncached``/``answer_all``
#: implementations anywhere under it run inside pool workers.
ENGINE_BASE = "repro.engines.base.AnswerEngine"
ENGINE_ENTRY_METHODS = frozenset({"answer", "_answer_uncached", "answer_all"})

#: Method names whose first callable argument crosses an executor/pool
#: boundary.
SUBMIT_METHODS = frozenset(
    {"submit", "map", "apply_async", "map_async", "imap", "imap_unordered"}
)

#: Attribute names that never resolve to project methods worth linking.
_SKIP_FALLBACK = frozenset({"__init__", "__new__", "__call__"})


@dataclass
class CallGraph:
    """Edges, entry points, and the worker-reachable set."""

    index: ProjectIndex
    #: caller qualname -> callee qualnames.
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: entry qualname -> human-readable reason it is an entry.
    entries: dict[str, str] = field(default_factory=dict)
    #: reachable qualname -> the entry point that first reached it.
    reachable: dict[str, str] = field(default_factory=dict)

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def add_entry(self, qualname: str, reason: str) -> None:
        if qualname in self.index.functions:
            self.entries.setdefault(qualname, reason)

    def is_worker_reachable(self, qualname: str) -> bool:
        return qualname in self.reachable

    def reached_via(self, qualname: str) -> str | None:
        return self.reachable.get(qualname)

    # ------------------------------------------------------------------

    def compute_reachability(self) -> None:
        """BFS from the entries; deterministic via sorted iteration."""
        self.reachable = {}
        frontier = []
        for entry in sorted(self.entries):
            self.reachable[entry] = entry
            frontier.append(entry)
        while frontier:
            current = frontier.pop(0)
            origin = self.reachable[current]
            for callee in sorted(self.edges.get(current, ())):
                if callee in self.index.functions and callee not in self.reachable:
                    self.reachable[callee] = origin
                    frontier.append(callee)

    def to_dict(self) -> dict[str, object]:
        """Deterministic JSON-ready form for ``--dump callgraph``."""
        return {
            "modules": sorted(self.index.modules),
            "functions": {
                qualname: {"module": fn.module, "line": fn.lineno}
                for qualname, fn in sorted(self.index.functions.items())
            },
            "edges": sorted(
                [caller, callee]
                for caller, callees in self.edges.items()
                for callee in callees
            ),
            "entry_points": {
                qualname: reason for qualname, reason in sorted(self.entries.items())
            },
            "reachable": {
                qualname: via for qualname, via in sorted(self.reachable.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Construction


def _is_engine_class(index: ProjectIndex, class_qualname: str) -> bool:
    if class_qualname == ENGINE_BASE:
        return True
    return ENGINE_BASE in index.ancestors(class_qualname)


def _callable_targets(
    node: ast.expr,
    fn: FunctionInfo,
    minfo: ModuleInfo,
    index: ProjectIndex,
) -> list[str]:
    """Qualified names an expression may call, resolved best-effort."""
    if isinstance(node, ast.Name):
        return index.name_targets(node.id, fn, minfo)
    if not isinstance(node, ast.Attribute):
        return []
    # self/cls dispatch: class-hierarchy aware.
    receiver = node.value
    if (
        isinstance(receiver, ast.Name)
        and receiver.id in ("self", "cls")
        and fn.cls is not None
    ):
        return index.dispatch(fn.cls, node.attr)
    # Fully resolved dotted path (module function, Class.method, class).
    resolved = minfo.ctx.resolve(node)
    if resolved is not None:
        return index.dotted_targets(resolved)
    # Unknown receiver: link by method name across the project (cheap
    # CHA fallback; over-approximate on purpose — the lock and cache
    # families resolve typed receivers only, and yield nothing here).
    if node.attr in _SKIP_FALLBACK:
        return []
    return index.methods_named(node.attr)


def build_callgraph(index: ProjectIndex) -> CallGraph:
    graph = CallGraph(index=index)

    for qualname in sorted(index.functions):
        fn = index.functions[qualname]
        minfo = index.modules[fn.module]
        for node in iter_own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            for target in _callable_targets(node.func, fn, minfo, index):
                graph.add_edge(qualname, target)
            # Submission boundary: the submitted callable is an entry
            # point as well as a callee.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SUBMIT_METHODS
                and node.args
            ):
                for target in _callable_targets(node.args[0], fn, minfo, index):
                    graph.add_edge(qualname, target)
                    graph.add_entry(
                        target, f"submitted to a pool by {qualname}"
                    )

    for entry in CONFIGURED_ENTRIES:
        graph.add_entry(entry, "configured pool entry point")

    for class_qualname in sorted(index.classes):
        if not _is_engine_class(index, class_qualname):
            continue
        methods = index.classes[class_qualname].methods
        for method_name in sorted(ENGINE_ENTRY_METHODS & set(methods)):
            graph.add_entry(
                methods[method_name],
                f"engine {method_name} implementation ({class_qualname})",
            )

    graph.compute_reachability()
    return graph
