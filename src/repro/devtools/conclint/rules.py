"""The concurrency-safety rules, CONC001–CONC005.

Each rule checks functions against the parallel sharing contract the
study runner's byte-identical guarantee rests on.  Rules CONC001, 002,
004 and 005 apply only to *worker-reachable* functions (see
:mod:`repro.devtools.conclint.callgraph`); CONC003 is the parent-side
rule — it guards the fork handshake itself.

Like detlint, the rules under-report on receivers they cannot resolve:
an interprocedural analyzer that guesses buries its one real race in
waiver noise.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.devtools.common.findings import Finding, Rule
from repro.devtools.common.index import (
    FunctionInfo,
    GlobalVar,
    ModuleInfo,
    ProjectIndex,
    classify_value,
    iter_own_nodes,
)
from repro.devtools.conclint.callgraph import (
    SUBMIT_METHODS,
    CallGraph,
    build_callgraph,
)

__all__ = ["RULES", "AnalysisContext", "ConcRule", "run"]

#: The blessed module-global write: the one fork handshake
#: (:func:`repro.forkpool.fork_inherit`) that ships large read-only
#: state to workers by inheritance — the study runner's world.  It is
#: set and reset strictly parent-side, around pool creation, and
#: read-only inside workers.
ALLOWED_GLOBAL_WRITES = frozenset({"repro.forkpool._INHERITED"})

#: Method calls that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: Instance attributes that look like shared memo/counter state.
_CACHE_ATTR_RE = re.compile(r"cache|memo|hits|misses|evictions", re.IGNORECASE)
_LOCK_ATTR_RE = re.compile(r"lock", re.IGNORECASE)

#: Methods where unguarded writes are initialization, not sharing:
#: the object is not yet published to other threads.
_INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

@dataclass
class AnalysisContext:
    """What every rule gets to see: the symbol table and the call graph."""

    index: ProjectIndex
    graph: CallGraph

    def module(self, fn: FunctionInfo) -> ModuleInfo:
        return self.index.modules[fn.module]

    def reached_via(self, fn: FunctionInfo) -> str:
        return self.graph.reached_via(fn.qualname) or fn.qualname


class ConcRule:
    """Base class for one concurrency rule.

    ``worker_side`` rules run only over worker-reachable functions;
    parent-side rules (CONC003) see every function.
    """

    worker_side: bool = True

    def __init__(self, actx: AnalysisContext, code: str) -> None:
        self.actx = actx
        self.code = code
        self.findings: list[Finding] = []

    def check_function(self, fn: FunctionInfo) -> None:
        raise NotImplementedError

    def run(self) -> list[Finding]:
        for qualname in sorted(self.actx.index.functions):
            fn = self.actx.index.functions[qualname]
            if self.worker_side and not self.actx.graph.is_worker_reachable(
                qualname
            ):
                continue
            self.check_function(fn)
        return self.findings

    def report(self, fn: FunctionInfo, node: ast.AST, message: str) -> None:
        minfo = self.actx.module(fn)
        line = getattr(node, "lineno", fn.lineno)
        self.findings.append(
            Finding(
                path=minfo.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                rule=self.code,
                message=message,
                snippet=minfo.ctx.snippet(line),
                end_line=getattr(node, "end_lineno", line) or line,
                stmt_line=_enclosing_stmt_line(fn.node, node),
            )
        )


def _enclosing_stmt_line(root: ast.AST, target: ast.AST) -> int:
    """First line of the innermost statement containing ``target``."""
    best = getattr(target, "lineno", 0)
    stack: list[tuple[ast.AST, int]] = [(root, best)]
    while stack:
        node, stmt_line = stack.pop()
        if node is target:
            return stmt_line
        for child in ast.iter_child_nodes(node):
            child_stmt = child.lineno if isinstance(child, ast.stmt) else stmt_line
            stack.append((child, child_stmt))
    return best


# ----------------------------------------------------------------------
# Shared helpers


def _global_declarations(fn_node: ast.AST) -> set[str]:
    declared: set[str] = set()
    for node in iter_own_nodes(fn_node):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    return declared


def _binding_names(target: ast.expr) -> set[str]:
    """Names an assignment target *binds* (rebinding, not mutation).

    ``x = ...`` and ``x, y = ...`` bind; ``x[k] = ...`` and
    ``x.attr = ...`` mutate an existing object and bind nothing —
    treating their receivers as bound would shadow the very globals the
    rules exist to catch.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        bound: set[str] = set()
        for element in target.elts:
            bound.update(_binding_names(element))
        return bound
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return set()


def _local_bindings(fn_node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally (and therefore shadowing module globals)."""
    bound: set[str] = set()
    args = fn_node.args
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ):
        bound.add(arg.arg)
    for node in iter_own_nodes(fn_node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(_binding_names(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bound.update(_binding_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bound.update(_binding_names(item.optional_vars))
        elif isinstance(node, ast.comprehension):
            bound.update(_binding_names(node.target))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    return bound - _global_declarations(fn_node)


def _receiver_global(
    node: ast.expr,
    fn: FunctionInfo,
    minfo: ModuleInfo,
    index: ProjectIndex,
    shadowed: set[str],
) -> GlobalVar | None:
    """The module-level binding ``node`` denotes, unless shadowed."""
    if isinstance(node, ast.Name) and node.id in shadowed:
        return None
    return index.resolve_global(node, minfo)


def _loaded_names(node: ast.AST) -> set[str]:
    return {
        leaf.id
        for leaf in ast.walk(node)
        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)
    }


# ----------------------------------------------------------------------
# CONC001 — module-global mutation from worker-reachable code


class GlobalMutationRule(ConcRule):
    """CONC001 — worker-reachable code writes module-level state.

    Under the thread executor such writes race; under fork they
    silently diverge (each child mutates its own copy, the parent never
    sees it — or worse, the parent's state no longer matches what the
    workers computed with).  Either way the byte-identical guarantee is
    gone.  The one blessed exception is the fork handshake's
    ``repro.forkpool._INHERITED``, which is written strictly
    parent-side around pool creation.
    """

    def check_function(self, fn: FunctionInfo) -> None:
        minfo = self.actx.module(fn)
        declared = _global_declarations(fn.node)
        shadowed = _local_bindings(fn.node)
        via = self.actx.reached_via(fn)
        for node in iter_own_nodes(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    self._check_target(fn, minfo, node, target, declared, shadowed, via)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        self._check_target(
                            fn, minfo, node, target, declared, shadowed, via
                        )
            elif isinstance(node, ast.Call):
                self._check_mutator_call(fn, minfo, node, shadowed, via)

    def _check_target(
        self,
        fn: FunctionInfo,
        minfo: ModuleInfo,
        stmt: ast.AST,
        target: ast.expr,
        declared: set[str],
        shadowed: set[str],
        via: str,
    ) -> None:
        var: GlobalVar | None = None
        if isinstance(target, ast.Name):
            if target.id in declared:
                var = minfo.globals.get(target.id) or GlobalVar(
                    qualname=f"{fn.module}.{target.id}",
                    module=fn.module,
                    name=target.id,
                    kind="other",
                    lineno=0,
                )
        elif isinstance(target, ast.Subscript):
            var = _receiver_global(target.value, fn, minfo, self.actx.index, shadowed)
        elif isinstance(target, ast.Attribute):
            # Either a rebind of another module's global (mod.G = x) or
            # an attribute write on a shared module-level object (G.f = x).
            var = _receiver_global(
                target, fn, minfo, self.actx.index, shadowed
            ) or _receiver_global(target.value, fn, minfo, self.actx.index, shadowed)
        if var is None or var.qualname in ALLOWED_GLOBAL_WRITES:
            return
        self.report(
            fn,
            stmt,
            f"worker-reachable code (via {via}) writes module-level state "
            f"{var.qualname}; shared globals must not be mutated on the "
            "worker side",
        )

    def _check_mutator_call(
        self,
        fn: FunctionInfo,
        minfo: ModuleInfo,
        node: ast.Call,
        shadowed: set[str],
        via: str,
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATOR_METHODS:
            return
        var = _receiver_global(func.value, fn, minfo, self.actx.index, shadowed)
        if var is None or var.kind != "mutable":
            return
        if var.qualname in ALLOWED_GLOBAL_WRITES:
            return
        self.report(
            fn,
            node,
            f"worker-reachable code (via {via}) calls .{func.attr}() on "
            f"module-level {var.qualname}; shared globals must not be "
            "mutated on the worker side",
        )


# ----------------------------------------------------------------------
# CONC002 — unguarded writes to shared instance caches


class UnguardedCacheWriteRule(ConcRule):
    """CONC002 — shared-cache writes on paths not holding the lock.

    Engine memo caches and their hit/miss counters are shared across
    threads under the thread-executor fallback; every write path must
    hold the class's lock, or two threads interleave between the check
    and the insert and the counters (or worse, the eviction loop)
    corrupt.  Reads are deliberately not flagged: a stale read of a
    deterministic memo is harmless, a torn write is not.
    """

    def check_function(self, fn: FunctionInfo) -> None:
        if fn.cls is None or fn.name in _INIT_METHODS:
            return
        cls_info = self.actx.index.classes.get(fn.cls)
        if cls_info is None:
            return
        lock_attrs = self._lock_attributes(cls_info.node)
        aliases = self._cache_aliases(fn.node)
        via = self.actx.reached_via(fn)
        self._walk(fn, fn.node.body, lock_attrs, aliases, guarded=False, via=via)

    # -- discovery -----------------------------------------------------

    @staticmethod
    def _lock_attributes(cls_node: ast.ClassDef) -> set[str]:
        locks: set[str] = set()
        for node in ast.walk(cls_node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _LOCK_ATTR_RE.search(target.attr)
                    ):
                        locks.add(target.attr)
        return locks

    def _cache_aliases(self, fn_node: ast.AST) -> set[str]:
        """Local names bound to a cache attribute (``cache = self._answer_cache``
        or ``cache = getattr(self, "_answer_cache", None)``)."""
        aliases: set[str] = set()
        for node in iter_own_nodes(fn_node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if self._is_cache_attr(value):
                aliases.add(target.id)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "getattr"
                and len(value.args) >= 2
                and isinstance(value.args[0], ast.Name)
                and value.args[0].id == "self"
                and isinstance(value.args[1], ast.Constant)
                and isinstance(value.args[1].value, str)
                and _CACHE_ATTR_RE.search(value.args[1].value)
            ):
                aliases.add(target.id)
        return aliases

    @staticmethod
    def _is_cache_attr(node: ast.expr) -> bool:
        """Whether the expression is a ``self``-rooted attribute chain
        with a cache-looking component (``self._answer_cache``,
        ``self.stats.hits``)."""
        matched = False
        current = node
        while isinstance(current, ast.Attribute):
            if _LOCK_ATTR_RE.search(current.attr):
                return False
            if _CACHE_ATTR_RE.search(current.attr):
                matched = True
            current = current.value
        return matched and isinstance(current, ast.Name) and current.id == "self"

    def _is_cache_target(
        self, node: ast.expr, aliases: set[str], as_receiver: bool = False
    ) -> bool:
        """Whether writing through ``node`` mutates cache state.

        A bare alias *name* only counts as a receiver (``cache[k] = v``,
        ``cache.pop(...)``) — rebinding the local alias itself is not a
        cache write.
        """
        if isinstance(node, ast.Subscript):
            return self._is_cache_target(node.value, aliases, as_receiver=True)
        if isinstance(node, ast.Name):
            return as_receiver and node.id in aliases
        return self._is_cache_attr(node)

    @staticmethod
    def _holds_lock(item: ast.withitem, lock_attrs: set[str]) -> bool:
        expr = item.context_expr
        # ``with self._lock:`` — possibly via .acquire()-less
        # context manager; any self.<...lock...> attribute counts.
        current = expr
        if isinstance(current, ast.Call):
            current = current.func
        while isinstance(current, ast.Attribute):
            if _LOCK_ATTR_RE.search(current.attr):
                return True
            current = current.value
        return False

    # -- traversal with lock context ------------------------------------

    def _walk(
        self,
        fn: FunctionInfo,
        body: list[ast.stmt],
        lock_attrs: set[str],
        aliases: set[str],
        guarded: bool,
        via: str,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                now_guarded = guarded or any(
                    self._holds_lock(item, lock_attrs) for item in stmt.items
                )
                self._walk(fn, stmt.body, lock_attrs, aliases, now_guarded, via)
                continue
            # Compound statement: recurse into each block with the lock
            # context preserved and scan only the *header* expressions
            # here (the blocks' own statements are checked recursively).
            compound = False
            for __, value in ast.iter_fields(stmt):
                if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                    compound = True
                    self._walk(fn, value, lock_attrs, aliases, guarded, via)
                elif isinstance(value, list) and value and isinstance(
                    value[0], ast.ExceptHandler
                ):
                    compound = True
                    for handler in value:
                        self._walk(
                            fn, handler.body, lock_attrs, aliases, guarded, via
                        )
            if guarded:
                continue
            if compound:
                for __, value in ast.iter_fields(stmt):
                    if isinstance(value, ast.expr):
                        self._scan_mutators(fn, value, aliases, lock_attrs, via)
            else:
                self._check_stmt(fn, stmt, aliases, lock_attrs, via)

    def _hint(self, lock_attrs: set[str]) -> str:
        if lock_attrs:
            return f"guard it with self.{sorted(lock_attrs)[0]}"
        return "the class defines no lock to guard it with"

    def _check_stmt(
        self,
        fn: FunctionInfo,
        stmt: ast.stmt,
        aliases: set[str],
        lock_attrs: set[str],
        via: str,
    ) -> None:
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if self._is_cache_target(target, aliases):
                    self.report(
                        fn,
                        stmt,
                        f"unguarded write to shared cache state "
                        f"{ast.unparse(target)} in worker-reachable code "
                        f"(via {via}); {self._hint(lock_attrs)}",
                    )
        self._scan_mutators(fn, stmt, aliases, lock_attrs, via)

    def _scan_mutators(
        self,
        fn: FunctionInfo,
        node: ast.AST,
        aliases: set[str],
        lock_attrs: set[str],
        via: str,
    ) -> None:
        """Flag mutator calls on cache state anywhere in a subtree."""
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in MUTATOR_METHODS
                and self._is_cache_target(child.func.value, aliases, as_receiver=True)
            ):
                self.report(
                    fn,
                    child,
                    f"unguarded .{child.func.attr}() on shared cache state "
                    f"{ast.unparse(child.func.value)} in worker-reachable "
                    f"code (via {via}); {self._hint(lock_attrs)}",
                )


# ----------------------------------------------------------------------
# CONC003 — parent-side mutation of fork-shipped objects


class ForkShipMutationRule(ConcRule):
    """CONC003 — mutating an object after shipping it to forked workers.

    ``fork`` snapshots the parent's memory; a world assigned to the
    worker handshake global and then mutated parent-side silently
    diverges from what the workers compute against.  The rule is
    parent-side: it runs over *every* function that ships a value —
    either by assigning a declared global and touching a pool, or by
    handing it to :func:`repro.forkpool.fork_inherit`, whose ``with``
    block is the span in which a parent-side mutation diverges.
    """
    worker_side = False

    def check_function(self, fn: FunctionInfo) -> None:
        ships = self._global_ships(fn) + self._inherit_ships(fn)
        for ship_line, last_line, shipped, via in ships:
            self._flag_mutations(fn, ship_line, last_line, shipped, via)

    def _global_ships(self, fn: FunctionInfo) -> list[tuple[int, float, str, str]]:
        """Assignments to a declared global in a function that touches a
        pool: the value stays shipped for the rest of the function."""
        declared = _global_declarations(fn.node)
        if not declared or not self._touches_pool(fn):
            return []
        ships: list[tuple[int, float, str, str]] = []
        for node in iter_own_nodes(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared
                    and not isinstance(node.value, ast.Constant)
                ):
                    ships.append(
                        (node.lineno, float("inf"), ast.unparse(node.value), target.id)
                    )
        return ships

    def _inherit_ships(self, fn: FunctionInfo) -> list[tuple[int, float, str, str]]:
        """``with fork_inherit(value, ...)`` blocks: ``value`` is live in
        forked workers from the ``with`` line to the block's end."""
        minfo = self.actx.module(fn)
        ships: list[tuple[int, float, str, str]] = []
        for node in iter_own_nodes(fn.node):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                call = item.context_expr
                if not isinstance(call, ast.Call) or not call.args:
                    continue
                spelled = minfo.ctx.resolve(call.func) or ast.unparse(call.func)
                if spelled.rsplit(".", 1)[-1] == "fork_inherit":
                    ships.append(
                        (
                            node.lineno,
                            node.end_lineno or node.lineno,
                            ast.unparse(call.args[0]),
                            "fork_inherit",
                        )
                    )
        return ships

    def _touches_pool(self, fn: FunctionInfo) -> bool:
        minfo = self.actx.module(fn)
        for node in iter_own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SUBMIT_METHODS
            ):
                return True
            resolved = minfo.ctx.resolve(node.func)
            if resolved is not None and (
                "ProcessPoolExecutor" in resolved or "ThreadPoolExecutor" in resolved
            ):
                return True
            if isinstance(node.func, ast.Name) and node.func.id in (
                "ProcessPoolExecutor",
                "ThreadPoolExecutor",
            ):
                return True
        return False

    def _flag_mutations(
        self,
        fn: FunctionInfo,
        ship_line: int,
        last_line: float,
        shipped: str,
        global_name: str,
    ) -> None:
        prefix = shipped + "."
        for node in iter_own_nodes(fn.node):
            lineno = getattr(node, "lineno", 0)
            if lineno <= ship_line or lineno > last_line:
                continue
            target: ast.expr | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for candidate in targets:
                    if isinstance(candidate, (ast.Attribute, ast.Subscript)):
                        spelled = ast.unparse(
                            candidate.value
                            if isinstance(candidate, ast.Subscript)
                            else candidate
                        )
                        if spelled == shipped or spelled.startswith(prefix):
                            target = candidate
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
            ):
                spelled = ast.unparse(node.func.value)
                if spelled == shipped or spelled.startswith(prefix):
                    target = node.func
            if target is not None:
                self.report(
                    fn,
                    node,
                    f"parent-side mutation of {shipped} after it was shipped "
                    f"to forked workers via {global_name}; parent and worker "
                    "copies diverge",
                )


# ----------------------------------------------------------------------
# CONC004 — fork-unsafe resources crossing the worker boundary


class ForkUnsafeCaptureRule(ConcRule):
    """CONC004 — file handles, locks, executors reaching worker code.

    A forked child inherits the parent's open file descriptors and lock
    *state*: two processes appending through the same handle interleave
    bytes, and a lock held at fork time is held forever in the child.
    Flag any worker-reachable reference to such a resource, whether via
    a module global or a closure over the submitting function's locals.
    """
    # The lambda-submission check inspects the *submitting* (parent-side)
    # function, so the rule sees every function and gates the
    # worker-side checks on reachability itself.
    worker_side = False

    def check_function(self, fn: FunctionInfo) -> None:
        minfo = self.actx.module(fn)
        if self.actx.graph.is_worker_reachable(fn.qualname):
            shadowed = _local_bindings(fn.node)
            via = self.actx.reached_via(fn)
            for node in iter_own_nodes(fn.node):
                if not isinstance(node, (ast.Name, ast.Attribute)):
                    continue
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                var = _receiver_global(node, fn, minfo, self.actx.index, shadowed)
                if var is None or var.kind != "resource":
                    continue
                self.report(
                    fn,
                    node,
                    f"worker-reachable code (via {via}) uses fork-unsafe "
                    f"resource {var.qualname}; open it (or create the "
                    "primitive) inside the task instead",
                )
            self._check_closure_captures(fn, via)
        self._check_submitted_lambdas(fn, minfo)

    def _check_closure_captures(self, fn: FunctionInfo, via: str) -> None:
        if fn.parent is None:
            return
        parent = self.actx.index.functions.get(fn.parent)
        if parent is None:
            return
        parent_resources = self._local_resources(parent)
        if not parent_resources:
            return
        free = _loaded_names(fn.node) - _local_bindings(fn.node)
        for name in sorted(free & set(parent_resources)):
            self.report(
                fn,
                fn.node,
                f"worker-reachable closure {fn.qualname} (via {via}) "
                f"captures fork-unsafe resource {name!r} from "
                f"{parent.qualname}; pass plain data across the pool "
                "boundary instead",
            )

    def _check_submitted_lambdas(self, fn: FunctionInfo, minfo: ModuleInfo) -> None:
        resources = self._local_resources(fn)
        for node in iter_own_nodes(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SUBMIT_METHODS
                and node.args
                and isinstance(node.args[0], ast.Lambda)
            ):
                continue
            lam = node.args[0]
            lambda_params = {arg.arg for arg in lam.args.args}
            captured = _loaded_names(lam.body) - lambda_params
            hazards = sorted(captured & set(resources))
            for name in hazards:
                self.report(
                    fn,
                    lam,
                    f"lambda submitted to a pool captures fork-unsafe "
                    f"resource {name!r}; pass plain data across the pool "
                    "boundary instead",
                )

    def _local_resources(self, fn: FunctionInfo) -> set[str]:
        minfo = self.actx.module(fn)
        resources: set[str] = set()
        for node in iter_own_nodes(fn.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name) and classify_value(
                node.value, minfo.ctx
            ) == "resource":
                resources.add(target.id)
        return resources


# ----------------------------------------------------------------------
# CONC005 — shared RNG instances crossing the worker boundary


class SharedRngRule(ConcRule):
    """CONC005 — a shared ``random.Random`` stream on the worker side.

    Every draw advances the instance, so the stream's order depends on
    worker scheduling — the opposite of the determinism contract.  The
    fix is the same discipline detlint's DET001 enforces statically:
    derive a fresh per-task stream with ``derive_rng(*task_key)``.
    """

    def check_function(self, fn: FunctionInfo) -> None:
        minfo = self.actx.module(fn)
        shadowed = _local_bindings(fn.node)
        via = self.actx.reached_via(fn)
        rng_attrs = self._instance_rng_attrs(fn)
        for node in iter_own_nodes(fn.node):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                getattr(node, "ctx", None), ast.Load
            ):
                var = _receiver_global(node, fn, minfo, self.actx.index, shadowed)
                if var is not None and var.kind == "rng":
                    self.report(
                        fn,
                        node,
                        f"worker-reachable code (via {via}) draws from the "
                        f"shared RNG {var.qualname}; derive a per-task "
                        "stream with derive_rng(...) instead",
                    )
                    continue
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in rng_attrs
                and isinstance(node.ctx, ast.Load)
            ):
                self.report(
                    fn,
                    node,
                    f"worker-reachable code (via {via}) draws from the "
                    f"instance-shared RNG self.{node.attr}; derive a "
                    "per-task stream with derive_rng(...) instead",
                )

    def _instance_rng_attrs(self, fn: FunctionInfo) -> set[str]:
        if fn.cls is None:
            return set()
        cls_info = self.actx.index.classes.get(fn.cls)
        if cls_info is None:
            return set()
        minfo = self.actx.module(fn)
        attrs: set[str] = set()
        for node in ast.walk(cls_info.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and classify_value(node.value, minfo.ctx) == "rng"
                    ):
                        attrs.add(target.attr)
        return attrs


RULES = (
    Rule(
        "CONC001",
        "global mutation",
        "assignment or in-place mutation of module-level state from "
        "worker-reachable code (the fork_inherit handshake is exempt)",
        GlobalMutationRule,
    ),
    Rule(
        "CONC002",
        "unguarded cache write",
        "write to a shared instance cache (self.*cache*/hit/miss "
        "counters) outside the corresponding lock in worker-reachable "
        "code",
        UnguardedCacheWriteRule,
    ),
    Rule(
        "CONC003",
        "post-fork divergence",
        "parent-side mutation of an object after assigning it to the "
        "worker handshake global (fork inheritance divergence)",
        ForkShipMutationRule,
    ),
    Rule(
        "CONC004",
        "fork-unsafe capture",
        "open file handle, lock, or executor referenced by "
        "worker-reachable code (module global or captured closure)",
        ForkUnsafeCaptureRule,
    ),
    Rule(
        "CONC005",
        "shared RNG",
        "module-level or instance-shared random.Random used by "
        "worker-reachable code; derive a per-task stream with "
        "derive_rng(...)",
        SharedRngRule,
    ),
)


def run(index: ProjectIndex) -> tuple[list[Finding], CallGraph]:
    """Every CONC finding, and the call graph the rules ran against."""
    graph = build_callgraph(index)
    actx = AnalysisContext(index=index, graph=graph)
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule.check(actx, rule.code).run())
    return findings, graph
