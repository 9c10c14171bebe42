"""Held-set walking and the acquired-while-held lock graph.

The analysis runs in two layers:

1. **Per function** (:func:`summarize_function`): walk the statements
   tracking the set of mutex sites held at each point (``with`` blocks
   define held regions), recording every direct acquisition, every call
   with its held set, every *blocking* operation (``Event.wait``,
   ``Future.result``, ``Queue.get/put``, ``time.sleep``, subprocess and
   file I/O, ``Semaphore.acquire``), every explicit ``.acquire()`` for
   the LOCK004 pairing check, and every ``Condition.wait`` with its
   loop context for LOCK005.

2. **Whole program** (:class:`LockGraph`): a fixpoint over the typed
   call edges computes ``acquires_star`` (every site a function may
   acquire transitively, with a provenance chain) and ``blocked_star``
   (every blocking operation it may reach).  Crossing each call's held
   set with the callee's ``acquires_star`` yields the interprocedural
   acquired-while-held edges; cycles are LOCK001, self-edges on
   non-reentrant sites are LOCK003, and a topological sort of the edge
   set is the canonical hierarchy the runtime witness
   (:data:`repro.lockorder.CANONICAL_HIERARCHY`) must agree with.

Receiver resolution is strictly typed (see
:mod:`repro.devtools.common.index`): an unknown receiver contributes
no edges and no blocking ops.  Missing an edge is the price of never
inventing one — the runtime witness exists to catch what static
under-approximation misses.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

from repro.devtools.common.context import in_modules
from repro.devtools.common.index import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    resolve_annotation,
)
from repro.devtools.locklint.sites import EXEMPT_MODULES, LockSite, SiteTable

__all__ = ["FunctionSummary", "LockGraph", "build_lockgraph"]

#: Dotted calls that block the calling thread outright.
BLOCKING_CALLS = {
    "time.sleep": "time.sleep",
    "subprocess.run": "subprocess.run",
    "subprocess.call": "subprocess.call",
    "subprocess.check_call": "subprocess.check_call",
    "subprocess.check_output": "subprocess.check_output",
    "subprocess.Popen": "subprocess.Popen",
    "os.system": "os.system",
}

#: Blocking methods per receiver *type* — only fires when the receiver
#: resolves to that type, so ``dict.get`` never reads as ``Queue.get``.
BLOCKING_METHODS = {
    "threading.Event": {"wait": "Event.wait"},
    "concurrent.futures.Future": {
        "result": "Future.result",
        "exception": "Future.exception",
    },
    "queue.Queue": {"get": "Queue.get", "put": "Queue.put", "join": "Queue.join"},
    "queue.SimpleQueue": {"get": "Queue.get", "put": "Queue.put"},
    "pathlib.Path": {
        "open": "file I/O (Path.open)",
        "read_text": "file I/O (Path.read_text)",
        "write_text": "file I/O (Path.write_text)",
        "read_bytes": "file I/O (Path.read_bytes)",
        "write_bytes": "file I/O (Path.write_bytes)",
    },
}


@dataclass(frozen=True)
class Edge:
    """One acquired-while-held edge with its first-seen provenance."""

    outer: str
    inner: str
    path: str
    line: int
    via: str


@dataclass
class FunctionSummary:
    """Everything locklint observed in one function."""

    fn: FunctionInfo
    #: (site, line, held-at-acquisition) — ``with`` acquisitions and
    #: explicit ``.acquire()`` on mutex sites.
    acquires: list[tuple[str, int, tuple[str, ...]]] = field(default_factory=list)
    #: (line, held, callee qualnames) for typed project calls.
    calls: list[tuple[int, tuple[str, ...], tuple[str, ...]]] = field(
        default_factory=list
    )
    #: (line, held, description) for direct blocking operations.
    blocking: list[tuple[int, tuple[str, ...], str]] = field(default_factory=list)
    #: (site, line) explicit ``.acquire()`` calls (LOCK004 candidates).
    acquire_calls: list[tuple[str, int]] = field(default_factory=list)
    #: (site, line, in_predicate_loop) for ``Condition.wait``.
    waits: list[tuple[str, int, bool]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Typed receiver resolution


class _Resolver:
    """Expression typing scoped to one function walk."""

    def __init__(
        self,
        fn: FunctionInfo,
        minfo: ModuleInfo,
        index: ProjectIndex,
        table: SiteTable,
    ) -> None:
        self.fn = fn
        self.minfo = minfo
        self.index = index
        self.table = table
        self.locals: dict[str, str] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            typed = resolve_annotation(arg.annotation, minfo, index)
            if typed is not None:
                self.locals[arg.arg] = typed

    def bind_local(self, stmt: ast.stmt) -> None:
        """Record ``x = ClassName(...)`` / annotated local types."""
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            typed = resolve_annotation(stmt.annotation, self.minfo, self.index)
            if typed is not None:
                self.locals[stmt.target.id] = typed
            return
        if not isinstance(stmt, ast.Assign):
            return
        typed = self.type_of(stmt.value) if stmt.value is not None else None
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                if typed is not None:
                    self.locals[target.id] = typed
                else:
                    # A rebind to something untypable clears the old type.
                    self.locals.pop(target.id, None)

    def type_of(self, expr: ast.expr | None) -> str | None:
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self.fn.cls is not None:
                return self.fn.cls
            return self.locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is not None and base in self.index.classes:
                return self.index.attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            resolved = self.minfo.ctx.resolve(expr.func)
            if resolved is None and isinstance(expr.func, ast.Name):
                resolved = self.minfo.classes.get(expr.func.id)
            if resolved is not None and (
                resolved in self.index.classes or "." in resolved
            ):
                return resolved
            return None
        return None

    def site_of(self, expr: ast.expr) -> LockSite | None:
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is not None and base in self.index.classes:
                return self.index.inherited(base, expr.attr, self.table.attr_sites)
            return None
        if isinstance(expr, ast.Name):
            return self.table.local_sites.get((self.fn.qualname, expr.id))
        return None

    def call_targets(self, func: ast.expr) -> list[str]:
        """Project functions a call may dispatch to — typed only, no
        name fallback (an unknown receiver yields nothing)."""
        if isinstance(func, ast.Name):
            return self.index.name_targets(func.id, self.fn, self.minfo)
        if not isinstance(func, ast.Attribute):
            return []
        receiver_type = self.type_of(func.value)
        if receiver_type is not None and receiver_type in self.index.classes:
            return self.index.dispatch(receiver_type, func.attr)
        resolved = self.minfo.ctx.resolve(func)
        if resolved is not None:
            return self.index.dotted_targets(resolved)
        return []

    def blocking_desc(self, call: ast.Call) -> str | None:
        """Why this call blocks the thread, or ``None``."""
        func = call.func
        resolved = self.minfo.ctx.resolve(func)
        if resolved in BLOCKING_CALLS:
            return BLOCKING_CALLS[resolved]
        if (
            isinstance(func, ast.Name)
            and func.id == "open"
            and func.id not in self.minfo.ctx.imports
            and func.id not in self.minfo.functions
        ):
            return "file I/O (open)"
        if isinstance(func, ast.Attribute):
            receiver_type = self.type_of(func.value)
            methods = BLOCKING_METHODS.get(receiver_type or "")
            if methods and func.attr in methods:
                return methods[func.attr]
        return None


# ----------------------------------------------------------------------
# Per-function walk


class _Walker:
    def __init__(self, resolver: _Resolver) -> None:
        self.r = resolver
        self.summary = FunctionSummary(fn=resolver.fn)
        self.held: list[str] = []
        #: Innermost-last context markers: ``"while"``, ``"loop"`` or
        #: ``"with:<site>"`` — LOCK005's predicate-loop test.
        self.context: list[str] = []

    # -- statements ---------------------------------------------------

    def walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # separate analysis units
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(stmt)
            return
        if isinstance(stmt, ast.While):
            self.visit_expr(stmt.test)
            self.context.append("while")
            self.walk_body(stmt.body)
            self.context.pop()
            self.walk_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.visit_expr(stmt.iter)
            self.context.append("loop")
            self.walk_body(stmt.body)
            self.context.pop()
            self.walk_body(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self.visit_expr(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
            return
        # Leaf statement: visit expressions, then record local types.
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self.visit_expr(node)
        self.r.bind_local(stmt)

    def _walk_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        entered: list[str] = []
        for item in stmt.items:
            site = self.r.site_of(item.context_expr)
            if site is not None and site.mutex:
                self._record_acquire(site, item.context_expr.lineno)
                self.held.append(site.name)
                self.context.append(f"with:{site.name}")
                entered.append(site.name)
            else:
                self.visit_expr(item.context_expr)
        self.walk_body(stmt.body)
        for _ in entered:
            self.held.pop()
            self.context.pop()

    def _record_acquire(self, site: LockSite, lineno: int) -> None:
        if site.reentrant and site.name in self.held:
            return  # re-entering an RLock is its contract
        self.summary.acquires.append((site.name, lineno, tuple(self.held)))

    # -- expressions --------------------------------------------------

    def visit_expr(self, expr: ast.expr) -> None:
        """Scan an expression tree for calls, skipping nested defs."""
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                self._visit_call(node)
            stack.extend(ast.iter_child_nodes(node))

    def _visit_call(self, call: ast.Call) -> None:
        held = tuple(self.held)
        func = call.func
        if isinstance(func, ast.Attribute):
            site = self.r.site_of(func.value)
            if site is not None:
                if func.attr == "acquire":
                    self.summary.acquire_calls.append((site.name, call.lineno))
                    if site.mutex:
                        self._record_acquire(site, call.lineno)
                    elif held:
                        self.summary.blocking.append(
                            (call.lineno, held, f"{site.kind}.acquire ({site.name})")
                        )
                    return
                if func.attr == "release":
                    return
                if site.kind == "Condition" and func.attr == "wait":
                    self.summary.waits.append(
                        (site.name, call.lineno, self._wait_in_loop(site.name))
                    )
                    return
        desc = self.r.blocking_desc(call)
        if desc is not None:
            self.summary.blocking.append((call.lineno, held, desc))
            return
        targets = tuple(sorted(self.r.call_targets(func)))
        if targets:
            self.summary.calls.append((call.lineno, held, targets))

    def _wait_in_loop(self, site: str) -> bool:
        """Whether a ``wait`` on ``site`` sits inside a ``while`` that is
        itself inside the ``with site:`` block (the predicate-loop shape)."""
        marker = f"with:{site}"
        for entry in reversed(self.context):
            if entry == "while":
                return True
            if entry == marker:
                return False
        return False


def summarize_function(
    fn: FunctionInfo,
    minfo: ModuleInfo,
    index: ProjectIndex,
    table: SiteTable,
) -> FunctionSummary:
    resolver = _Resolver(fn, minfo, index, table)
    walker = _Walker(resolver)
    walker.walk_body(fn.node.body)
    return walker.summary


# ----------------------------------------------------------------------
# LOCK004 guard matching


def acquire_guarded(
    fn: FunctionInfo, resolver_site: str, lineno: int, table: SiteTable,
    minfo: ModuleInfo, index: ProjectIndex,
) -> bool:
    """Whether the ``.acquire()`` at ``lineno`` has a guaranteed release.

    Guarded means: the acquire sits inside a ``try`` whose ``finally``
    (or an ``except`` handler) releases the same site, or a *later
    sibling* statement — at the acquire's nesting level or any enclosing
    level — is such a ``try``.  That second form covers the handoff
    pattern, where the acquiring function releases only on the failure
    path and a downstream owner releases on success.
    """
    resolver = _Resolver(fn, minfo, index, table)

    def releases(subtree: ast.AST) -> bool:
        for node in ast.walk(subtree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "release"
            ):
                site = resolver.site_of(node.func.value)
                if site is not None and site.name == resolver_site:
                    return True
        return False

    def try_guards(node: ast.Try) -> bool:
        for block in [node.finalbody, *[h.body for h in node.handlers]]:
            for stmt in block:
                if releases(stmt):
                    return True
        return False

    # Chain of statements from the function body down to the acquire.
    def chain_to(body: list[ast.stmt]) -> list[tuple[list[ast.stmt], int]] | None:
        for position, stmt in enumerate(body):
            if stmt.lineno <= lineno <= (stmt.end_lineno or stmt.lineno):
                found = [(body, position)]
                for child_body in _stmt_bodies(stmt):
                    deeper = chain_to(child_body)
                    if deeper is not None:
                        return found + deeper
                return found
        return None

    chain = chain_to(fn.node.body)
    if chain is None:
        return False
    for body, position in chain:
        stmt = body[position]
        if isinstance(stmt, ast.Try) and try_guards(stmt):
            return True
        for later in body[position + 1 :]:
            if isinstance(later, ast.Try) and try_guards(later):
                return True
    return False


def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    return bodies


# ----------------------------------------------------------------------
# The whole-program graph


class LockGraph:
    """Sites, summaries, acquired-while-held edges, and the hierarchy."""

    def __init__(self, index: ProjectIndex, table: SiteTable) -> None:
        self.index = index
        self.table = table
        self.summaries: dict[str, FunctionSummary] = {}
        #: (outer, inner) -> first-seen Edge (deterministic).
        self.edges: dict[tuple[str, str], Edge] = {}
        #: fn qualname -> site -> provenance chain.
        self.acquires_star: dict[str, dict[str, str]] = {}
        #: fn qualname -> blocking description -> provenance chain.
        self.blocked_star: dict[str, dict[str, str]] = {}

    # -- construction -------------------------------------------------

    def compute(self) -> None:
        self._fixpoint_acquires()
        self._fixpoint_blocked()
        self._build_edges()

    def _fixpoint_acquires(self) -> None:
        star = self.acquires_star
        for qualname in sorted(self.summaries):
            summary = self.summaries[qualname]
            own: dict[str, str] = {}
            path = self.index.modules[summary.fn.module].path
            for site, line, _held in summary.acquires:
                own.setdefault(site, f"{path}:{line} acquires {site}")
            star[qualname] = own
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.summaries):
                summary = self.summaries[qualname]
                own = star[qualname]
                for line, _held, targets in summary.calls:
                    for target in targets:
                        for site, chain in sorted(star.get(target, {}).items()):
                            if site not in own:
                                own[site] = f"{qualname}:{line} -> {chain}"
                                changed = True

    def _fixpoint_blocked(self) -> None:
        star = self.blocked_star
        for qualname in sorted(self.summaries):
            summary = self.summaries[qualname]
            own: dict[str, str] = {}
            path = self.index.modules[summary.fn.module].path
            for line, _held, desc in summary.blocking:
                own.setdefault(desc, f"{desc} at {path}:{line}")
            star[qualname] = own
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.summaries):
                summary = self.summaries[qualname]
                own = star[qualname]
                for line, _held, targets in summary.calls:
                    for target in targets:
                        for desc, chain in sorted(star.get(target, {}).items()):
                            if desc not in own:
                                own[desc] = f"{qualname}:{line} -> {chain}"
                                changed = True

    def _add_edge(
        self, outer: str, inner: str, path: str, line: int, via: str
    ) -> None:
        self.edges.setdefault(
            (outer, inner), Edge(outer, inner, path, line, via)
        )

    def _build_edges(self) -> None:
        for qualname in sorted(self.summaries):
            summary = self.summaries[qualname]
            path = self.index.modules[summary.fn.module].path
            for site, line, held in summary.acquires:
                for outer in held:
                    self._add_edge(
                        outer, site, path, line,
                        f"{qualname} acquires {site} while holding {outer}",
                    )
            for line, held, targets in summary.calls:
                if not held:
                    continue
                for target in targets:
                    for site, chain in sorted(
                        self.acquires_star.get(target, {}).items()
                    ):
                        for outer in held:
                            self._add_edge(
                                outer, site, path, line,
                                f"{qualname} holds {outer}; {chain}",
                            )

    # -- queries ------------------------------------------------------

    def mutex_edges(self) -> list[Edge]:
        """Order-relevant edges: mutex endpoints, self-loops excluded."""
        edges = []
        for (outer, inner), edge in sorted(self.edges.items()):
            if outer == inner:
                continue
            outer_site = self.table.sites.get(outer)
            inner_site = self.table.sites.get(inner)
            if outer_site is None or inner_site is None:
                continue
            if outer_site.mutex and inner_site.mutex:
                edges.append(edge)
        return edges

    def self_edges(self) -> list[Edge]:
        return [
            edge
            for (outer, inner), edge in sorted(self.edges.items())
            if outer == inner
        ]

    def hierarchy(self) -> list[str]:
        """Topological order over the mutex *attribute* sites.

        Kahn's algorithm with alphabetical tie-breaking, so the order is
        total and deterministic even where the edge set leaves freedom.
        Sites stuck in a cycle (a LOCK001 finding) are appended
        alphabetically so the dump stays complete.
        """
        nodes = sorted(
            name
            for name, site in self.table.sites.items()
            if site.mutex and site.scope == "attr"
        )
        indegree = {name: 0 for name in nodes}
        outgoing: dict[str, list[str]] = {name: [] for name in nodes}
        for edge in self.mutex_edges():
            if edge.outer in indegree and edge.inner in indegree:
                outgoing[edge.outer].append(edge.inner)
                indegree[edge.inner] += 1
        order: list[str] = []
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        while ready:
            current = ready.pop(0)
            order.append(current)
            for nxt in sorted(outgoing[current]):
                indegree[nxt] -= 1
                if indegree[nxt] == 0 and nxt not in order and nxt not in ready:
                    ready.append(nxt)
            ready.sort()
        for name in nodes:
            if name not in order:
                order.append(name)
        return order

    def find_path(self, start: str, goal: str) -> list[Edge] | None:
        """Deterministic shortest edge path ``start -> ... -> goal``
        over the mutex edge set (BFS, sorted expansion)."""
        adjacency: dict[str, list[Edge]] = {}
        for edge in self.mutex_edges():
            adjacency.setdefault(edge.outer, []).append(edge)
        frontier: list[tuple[str, list[Edge]]] = [(start, [])]
        seen = {start}
        while frontier:
            current, trail = frontier.pop(0)
            for edge in adjacency.get(current, ()):
                if edge.inner == goal:
                    return trail + [edge]
                if edge.inner not in seen:
                    seen.add(edge.inner)
                    frontier.append((edge.inner, trail + [edge]))
        return None

    # -- dump ---------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "sites": [
                self.table.sites[name].to_dict()
                for name in sorted(self.table.sites)
            ],
            "edges": [
                {
                    "outer": edge.outer,
                    "inner": edge.inner,
                    "at": f"{edge.path}:{edge.line}",
                    "via": edge.via,
                }
                for edge in (
                    self.edges[key] for key in sorted(self.edges)
                )
            ],
            "hierarchy": self.hierarchy(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def build_lockgraph(index: ProjectIndex, table: SiteTable) -> LockGraph:
    """Summarize every (non-exempt) function and close the graph."""
    graph = LockGraph(index, table)
    for qualname in sorted(index.functions):
        fn = index.functions[qualname]
        if in_modules(fn.module, EXEMPT_MODULES):
            continue
        minfo = index.modules[fn.module]
        graph.summaries[qualname] = summarize_function(fn, minfo, index, table)
    graph.compute()
    return graph
