"""The cache graph: per-function cache operations over resolved sites.

For every project function this module computes a
:class:`FunctionSummary` of its cache traffic — inserts, reads, clears,
external storage pokes — with each receiver resolved to a named
:class:`~repro.devtools.cachelint.sites.CacheSite` through the typed
chain resolver.  Resolution is strictly *under*-approximate, for the
same reason locklint's is: a cache analyzer that guesses receivers
reports phantom staleness, so an unknown receiver contributes nothing
and the runtime witness (:mod:`repro.cachewitness`,
``REPRO_CACHE_WITNESS=1``) covers the dynamic remainder.  The one
deliberate exception is CACHE001's clear walk, which falls back to
name-based dispatch for ``clear``-named calls — missing a clear edge
would report a phantom *unregistered* cache, the opposite failure.

The resolver follows the idioms the runtime actually uses:

* ``self._attr`` chains through the attribute type tables
  (``self._world.evidence_cache`` lands on ``World.evidence_cache``);
* ``cache = getattr(self, "_memo", None)`` — a skipped-init probe —
  aliases a local to the attribute site;
* plain local aliases (``cache = self._query_cache``) and annotated
  parameters.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

from repro.devtools.cachelint.sites import (
    EPOCH_NAME_RE,
    EXEMPT_MODULES,
    CacheSite,
    CacheSiteTable,
)
from repro.devtools.common.context import in_modules
from repro.devtools.common.index import (
    FunctionInfo,
    ProjectIndex,
    resolve_annotation,
    self_attr,
)

__all__ = [
    "CacheGraph",
    "CacheOp",
    "FunctionSummary",
    "build_cachegraph",
    "key_has_epoch",
]

#: Method names that insert into a keyed store.  ``get_or_compute`` is
#: the read-through form; its key is still argument zero.
_INSERT_METHODS = frozenset({"put", "setdefault", "get_or_compute"})

#: Method names that read without inserting.
_READ_METHODS = frozenset({"get"})

#: Method names that drop entries wholesale.
_CLEAR_METHODS = frozenset({"clear"})

#: Attribute-mutating method names (CACHE003/CACHE004 fuel).
_MUTATING_METHODS = frozenset(
    {"append", "add", "update", "setdefault", "extend", "insert", "pop",
     "popitem", "remove", "discard", "clear"}
)


@dataclass(frozen=True)
class CacheOp:
    """One operation against a resolved cache site."""

    site: str
    #: ``insert`` / ``read`` / ``clear`` / ``store-access`` (raw
    #: subscript/``in``/``pop`` on the keyed store itself).
    kind: str
    fn: str
    line: int
    #: For inserts: the key expression (post one-level local
    #: substitution) — ``None`` when the operation has no key.
    key: ast.expr | None = None
    #: For inserts: the value expression.
    value: ast.expr | None = None
    #: The spelled method (``put``, ``[]=``, ``in``, ...).
    via: str = ""


@dataclass
class FunctionSummary:
    """Cache traffic of one function."""

    fn: FunctionInfo
    ops: list[CacheOp] = field(default_factory=list)
    #: Attr names of ``self`` mutated in place (line, attr, via).
    self_mutations: list[tuple[int, str, str]] = field(default_factory=list)
    #: Attr names of ``self`` rebound wholesale (line, attr).
    self_rebinds: list[tuple[int, str]] = field(default_factory=list)
    #: Counter attrs of ``self`` bumped (attr names).
    counter_bumps: set[str] = field(default_factory=set)
    #: Local name -> site name (aliases like ``cache = self._answer_cache``).
    local_sites: dict[str, str] = field(default_factory=dict)
    #: Local name -> class qualname / builtin-collection display type.
    local_types: dict[str, str] = field(default_factory=dict)
    #: Locals bound to fresh mutable displays (name -> bind line).
    mutable_locals: dict[str, int] = field(default_factory=dict)
    #: (line, local) in-place mutations of locals after binding.
    local_mutations: list[tuple[int, str]] = field(default_factory=list)
    #: Locals returned raw (``return x``) and the insert ops whose value
    #: they were: set of local names returned.
    returned_locals: set[str] = field(default_factory=set)
    #: Raw reaches into a cache primitive's underscore store from this
    #: function: (line, cache class qualname, attr, via).
    primitive_reaches: list[tuple[int, str, str, str]] = field(
        default_factory=list
    )


class CacheGraph:
    """Sites, per-function summaries, and the epoch tables."""

    def __init__(
        self,
        index: ProjectIndex,
        table: CacheSiteTable,
        summaries: dict[str, FunctionSummary],
    ) -> None:
        self.index = index
        self.table = table
        self.summaries = summaries

    def effective_cls(self, fn: FunctionInfo) -> str | None:
        """The class a function's ``self`` binds, walking out of nested
        defs (a closure inside a method still sees the method's self)."""
        current: FunctionInfo | None = fn
        while current is not None:
            if current.cls is not None:
                return current.cls
            current = (
                self.index.functions.get(current.parent)
                if current.parent
                else None
            )
        return None

    def to_json(self) -> str:
        """The sites, epoch tables and per-function op counts as
        deterministic JSON (the ``--dump cachegraph`` artifact)."""
        ops = {}
        for qualname in sorted(self.summaries):
            summary = self.summaries[qualname]
            if not summary.ops:
                continue
            ops[qualname] = [
                {
                    "site": op.site,
                    "kind": op.kind,
                    "line": op.line,
                    "via": op.via,
                    "epoch_keyed": (
                        key_has_epoch(op.key, summary) if op.kind == "insert" else None
                    ),
                }
                for op in summary.ops
            ]
        payload = {
            "sites": [
                self.table.sites[name].to_dict()
                for name in sorted(self.table.sites)
            ],
            "epoch_bearing": {
                cls: list(attrs)
                for cls, attrs in sorted(self.table.epoch_bearing.items())
            },
            "epoch_coupled": sorted(self.table.epoch_coupled),
            "primitive_classes": sorted(self.table.primitive_classes),
            "ops": ops,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def key_has_epoch(key: ast.expr | None, summary: FunctionSummary) -> bool:
    """Whether a key expression carries an epoch/generation component.

    Any name, attribute or call whose identifier matches the epoch
    pattern counts (``self._index.epoch``, ``self._cache_epoch()``,
    ``table.generation``).  A bare-name key is substituted once from its
    local assignment, which is how ``key = (terms, k,
    self._index.epoch)`` followed by ``cache.put(key, ...)`` resolves.
    """
    if key is None:
        return False
    exprs = [key]
    if isinstance(key, ast.Name):
        bound = _local_binding(summary.fn, key.id)
        if bound is not None:
            exprs.append(bound)
    for expr in exprs:
        for node in ast.walk(expr):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None and EPOCH_NAME_RE.search(name):
                return True
    return False


def _local_binding(fn: FunctionInfo, name: str) -> ast.expr | None:
    """The value expression last assigned to a bare local, if any."""
    bound: ast.expr | None = None
    for node in fn.own_nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    bound = node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == name
            and node.value is not None
        ):
            bound = node.value
    return bound


# ----------------------------------------------------------------------
# Chain resolution


def _getattr_alias(call: ast.Call) -> str | None:
    """``getattr(self, "attr", ...)`` -> the attr name."""
    if (
        isinstance(call.func, ast.Name)
        and call.func.id == "getattr"
        and len(call.args) >= 2
        and isinstance(call.args[0], ast.Name)
        and call.args[0].id == "self"
        and isinstance(call.args[1], ast.Constant)
        and isinstance(call.args[1].value, str)
    ):
        return call.args[1].value
    return None


class Resolver:
    """Typed receiver resolution for one function."""

    def __init__(
        self,
        graph_index: ProjectIndex,
        table: CacheSiteTable,
        fn: FunctionInfo,
        cls: str | None,
        summary: FunctionSummary,
    ) -> None:
        self.index = graph_index
        self.table = table
        self.fn = fn
        self.cls = cls
        self.summary = summary

    def resolve(self, expr: ast.expr) -> tuple[str, object] | None:
        """``("site", CacheSite)`` or ``("type", qualname)`` for a
        receiver expression, or ``None`` when unknown."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.cls is not None:
                return ("type", self.cls)
            site_name = self.summary.local_sites.get(expr.id)
            if site_name is not None:
                return ("site", self.table.sites[site_name])
            typed = self.summary.local_types.get(expr.id)
            if typed is not None:
                return ("type", typed)
            minfo = self.index.modules[self.fn.module]
            var = self.index.resolve_global(expr, minfo)
            if var is not None and var.qualname in self.table.global_sites:
                return ("site", self.table.global_sites[var.qualname])
            return None
        if isinstance(expr, ast.Call):
            attr = _getattr_alias(expr)
            if attr is not None and self.cls is not None:
                return self._attr_step(self.cls, attr)
            return None
        if isinstance(expr, ast.Attribute):
            minfo = self.index.modules[self.fn.module]
            var = self.index.resolve_global(expr, minfo)
            if var is not None and var.qualname in self.table.global_sites:
                return ("site", self.table.global_sites[var.qualname])
            base = self.resolve(expr.value)
            if base is None or base[0] != "type":
                return None
            return self._attr_step(str(base[1]), expr.attr)
        return None

    def _attr_step(self, cls: str, attr: str) -> tuple[str, object] | None:
        if cls not in self.index.classes:
            return None
        site = self.index.inherited(cls, attr, self.table.attr_sites)
        if site is not None:
            return ("site", site)
        typed = self.index.attr_type(cls, attr)
        if typed is not None:
            return ("type", typed)
        # Property returning a typed value (``retriever.snippet_cache``).
        for candidate in [cls, *self.index.ancestors(cls)]:
            cinfo = self.index.classes.get(candidate)
            if cinfo is None:
                continue
            method = cinfo.methods.get(attr)
            if method is None:
                continue
            fn = self.index.functions[method]
            minfo = self.index.modules[fn.module]
            typed = resolve_annotation(fn.node.returns, minfo, self.index)
            if typed is not None:
                return ("type", typed)
            # An un-annotated one-hop property: ``return self._x``.
            for node in fn.own_nodes:
                if isinstance(node, ast.Return) and isinstance(
                    node.value, ast.Attribute
                ):
                    value = node.value
                    if (
                        isinstance(value.value, ast.Name)
                        and value.value.id == "self"
                    ):
                        hop = self.index.inherited(
                            candidate, value.attr, self.table.attr_sites
                        )
                        if hop is not None:
                            return ("site", hop)
                        hop_type = self.index.attr_type(candidate, value.attr)
                        if hop_type is not None:
                            return ("type", hop_type)
            break
        return None


# ----------------------------------------------------------------------
# Summary construction


def _prepass(
    index: ProjectIndex,
    table: CacheSiteTable,
    fn: FunctionInfo,
    cls: str | None,
    summary: FunctionSummary,
) -> None:
    """Bind parameter/local types and site aliases before op extraction."""
    minfo = index.modules[fn.module]
    args = fn.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        typed = resolve_annotation(arg.annotation, minfo, index)
        if typed is not None:
            summary.local_types[arg.arg] = typed

    resolver = Resolver(index, table, fn, cls, summary)
    for node in fn.own_nodes:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        resolved = None
        if isinstance(value, (ast.Attribute, ast.Call, ast.Name)):
            resolved = resolver.resolve(value)
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if resolved is not None:
                if resolved[0] == "site":
                    summary.local_sites[target.id] = resolved[1].name
                else:
                    summary.local_types[target.id] = str(resolved[1])
            if isinstance(value, (ast.Dict, ast.DictComp)):
                summary.local_types[target.id] = "dict"
                summary.mutable_locals[target.id] = node.lineno
            elif isinstance(value, (ast.List, ast.ListComp)):
                summary.local_types[target.id] = "list"
                summary.mutable_locals[target.id] = node.lineno
            elif isinstance(value, (ast.Set, ast.SetComp)):
                summary.local_types[target.id] = "set"
                summary.mutable_locals[target.id] = node.lineno


def _extract_ops(
    index: ProjectIndex,
    table: CacheSiteTable,
    fn: FunctionInfo,
    cls: str | None,
    summary: FunctionSummary,
) -> None:
    resolver = Resolver(index, table, fn, cls, summary)

    def site_of(expr: ast.expr) -> CacheSite | None:
        resolved = resolver.resolve(expr)
        if resolved is not None and resolved[0] == "site":
            return resolved[1]
        return None

    def note_primitive_reach(expr: ast.expr, line: int, via: str) -> None:
        """``x._store[...]`` where ``x`` is a cache-class instance: a
        reach past the primitive's counted interface into its raw
        storage."""
        if not (
            isinstance(expr, ast.Attribute) and expr.attr.startswith("_")
        ):
            return
        base = resolver.resolve(expr.value)
        if base is None:
            return
        if base[0] == "site":
            target_cls = getattr(base[1], "value_type", None)
        else:
            target_cls = str(base[1])
        if target_cls in table.cache_classes:
            summary.primitive_reaches.append(
                (line, target_cls, expr.attr, via)
            )

    for node in fn.own_nodes:
        # Method-style ops: cache.put(k, v) / cache.get(k) / cache.clear().
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver = node.func.value
            site = site_of(receiver)
            if site is not None:
                if method in _INSERT_METHODS:
                    summary.ops.append(
                        CacheOp(
                            site=site.name,
                            kind="insert",
                            fn=fn.qualname,
                            line=node.lineno,
                            key=node.args[0] if node.args else None,
                            value=(
                                node.args[1] if len(node.args) > 1 else None
                            ),
                            via=method,
                        )
                    )
                elif method in _READ_METHODS:
                    summary.ops.append(
                        CacheOp(
                            site=site.name,
                            kind="read",
                            fn=fn.qualname,
                            line=node.lineno,
                            key=node.args[0] if node.args else None,
                            via=method,
                        )
                    )
                elif method in _CLEAR_METHODS:
                    summary.ops.append(
                        CacheOp(
                            site=site.name,
                            kind="clear",
                            fn=fn.qualname,
                            line=node.lineno,
                            via=method,
                        )
                    )
                elif method in ("pop", "popitem"):
                    summary.ops.append(
                        CacheOp(
                            site=site.name,
                            kind="store-access",
                            fn=fn.qualname,
                            line=node.lineno,
                            via=method,
                        )
                    )
            elif method in (
                "pop", "popitem", "setdefault", "get", "clear"
            ):
                note_primitive_reach(receiver, node.lineno, method)
            # Raw reach into a cache primitive's underscore store:
            # ``engine._answer_cache`` handled above (it IS the site);
            # ``bc._cache[...]`` handled by the subscript branch below.
            attr = self_attr(receiver)
            if attr is not None and method in _MUTATING_METHODS:
                summary.self_mutations.append((node.lineno, attr, method))
            # setdefault(...).append(...) chains mutate the inner attr.
            if (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Attribute)
            ):
                inner = self_attr(receiver.func.value)
                if inner is not None and method in _MUTATING_METHODS:
                    summary.self_mutations.append((node.lineno, inner, method))
            # Local in-place mutation (CACHE004's post-insert check).
            if isinstance(receiver, ast.Name) and method in _MUTATING_METHODS:
                summary.local_mutations.append((node.lineno, receiver.id))

        # Subscript stores: cache[k] = v  /  self._attr[k] = v.
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    site = site_of(target.value)
                    if site is not None:
                        kind = (
                            "store-access"
                            if site.kind == "cache-class"
                            else "insert"
                        )
                        summary.ops.append(
                            CacheOp(
                                site=site.name,
                                kind=kind,
                                fn=fn.qualname,
                                line=node.lineno,
                                key=target.slice,
                                value=node.value,
                                via="[]=",
                            )
                        )
                    attr = self_attr(target.value)
                    if attr is not None:
                        summary.self_mutations.append(
                            (node.lineno, attr, "[]=")
                        )
                    if isinstance(target.value, ast.Name):
                        summary.local_mutations.append(
                            (node.lineno, target.value.id)
                        )
                    if site is None:
                        note_primitive_reach(
                            target.value, node.lineno, "[]="
                        )
                else:
                    attr = self_attr(target)
                    if attr is not None:
                        summary.self_rebinds.append((node.lineno, attr))
                        if EPOCH_NAME_RE.search(attr):
                            summary.counter_bumps.add(attr)
                        site = table.attr_sites.get(cls, {}).get(attr)
                        if site is not None and isinstance(
                            node.value, (ast.Dict, ast.DictComp)
                        ):
                            summary.ops.append(
                                CacheOp(
                                    site=site.name,
                                    kind="clear",
                                    fn=fn.qualname,
                                    line=node.lineno,
                                    via="rebind",
                                )
                            )

        elif isinstance(node, ast.AugAssign):
            # ``self._total += n`` is a scalar bump (recorded below as a
            # counter), not a collection mutation; only subscript
            # augassigns mutate stored state in place.
            if isinstance(node.target, ast.Subscript):
                inner = self_attr(node.target.value)
                if inner is not None:
                    summary.self_mutations.append((node.lineno, inner, "[]+="))

        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    inner = self_attr(target.value)
                    if inner is not None:
                        summary.self_mutations.append(
                            (target.value.lineno, inner, "del[]")
                        )
                    site = site_of(target.value)
                    if site is not None and site.kind == "cache-class":
                        summary.ops.append(
                            CacheOp(
                                site=site.name,
                                kind="store-access",
                                fn=fn.qualname,
                                line=node.lineno,
                                via="del[]",
                            )
                        )

        # Membership probes and subscript loads on sites.
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            site = site_of(node.comparators[0]) if node.comparators else None
            if site is not None:
                kind = (
                    "store-access" if site.kind == "cache-class" else "read"
                )
                summary.ops.append(
                    CacheOp(
                        site=site.name,
                        kind=kind,
                        fn=fn.qualname,
                        line=node.lineno,
                        key=node.left,
                        via="in",
                    )
                )
            elif node.comparators:
                note_primitive_reach(node.comparators[0], node.lineno, "in")
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Load
        ):
            site = site_of(node.value)
            if site is not None:
                kind = (
                    "store-access" if site.kind == "cache-class" else "read"
                )
                summary.ops.append(
                    CacheOp(
                        site=site.name,
                        kind=kind,
                        fn=fn.qualname,
                        line=node.lineno,
                        key=node.slice,
                        via="[]",
                    )
                )
            else:
                note_primitive_reach(node.value, node.lineno, "[]")

        elif isinstance(node, ast.Return) and isinstance(
            node.value, ast.Name
        ):
            summary.returned_locals.add(node.value.id)

        # Miss/hit counter bumps: self._misses += 1 styles are
        # AugAssign (handled above for epoch names); record counter-ish
        # attrs separately.
        if isinstance(node, ast.AugAssign):
            attr = self_attr(node.target)
            if attr is not None:
                summary.counter_bumps.add(attr)


def build_cachegraph(index: ProjectIndex, table: CacheSiteTable) -> CacheGraph:
    """Summarize every (non-exempt) function's cache traffic over the
    site table."""
    summaries: dict[str, FunctionSummary] = {}
    graph = CacheGraph(index, table, summaries)
    for qualname in sorted(index.functions):
        fn = index.functions[qualname]
        if in_modules(fn.module, EXEMPT_MODULES):
            continue
        summary = FunctionSummary(fn=fn)
        cls = graph.effective_cls(fn)
        _prepass(index, table, fn, cls, summary)
        _extract_ops(index, table, fn, cls, summary)
        summaries[qualname] = summary
    return graph
