"""The five CACHE rules, evaluated over a :class:`CacheGraph`.

Every rule reads the completed whole-program graph; the functions below
turn graph facts into :class:`~repro.devtools.common.findings.Finding`
records anchored at the source location that best explains each hazard.
"""

from __future__ import annotations

import ast
import re

from repro.devtools.cachelint.cachegraph import (
    CacheGraph,
    FunctionSummary,
    build_cachegraph,
    key_has_epoch,
)
from repro.devtools.cachelint.sites import EPOCH_NAME_RE, build_cache_sites
from repro.devtools.common.findings import Finding, Rule
from repro.devtools.common.index import ProjectIndex

__all__ = ["RULES", "run"]


#: Counter attrs that satisfy the miss half of the contract.
_MISS_RE = re.compile(r"miss", re.IGNORECASE)
#: Counter attrs whose presence pins the contract on a dict cache.
_COUNTER_RE = re.compile(r"hit|miss", re.IGNORECASE)

#: Method names the CACHE001 clear walk follows even on untyped
#: receivers (name-based dispatch is safe here: a spurious edge can only
#: *suppress* a finding, never invent one).
_CLEARISH_RE = re.compile(r"clear|reset|invalidate", re.IGNORECASE)


def run(index: ProjectIndex) -> tuple[list[Finding], CacheGraph]:
    """Every CACHE finding, and the cache graph the rules ran against."""
    graph = build_cachegraph(index, build_cache_sites(index))
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule.check(graph, rule.code))
    return findings, graph


# ----------------------------------------------------------------------
# CACHE001 — world-reachable cache not registered with clear_caches()


def _reachable_classes(graph: CacheGraph, root: str) -> set[str]:
    """Classes reachable from ``root`` through typed attributes,
    annotation leaves and class-hierarchy dispatch."""
    index = graph.index
    reached: set[str] = set()
    frontier = [root]
    while frontier:
        current = frontier.pop(0)
        if current in reached or current not in index.classes:
            continue
        for member in index.class_family(current):
            if member in reached:
                continue
            reached.add(member)
            nxt: set[str] = set()
            nxt.update(
                t
                for t in index.attr_types.get(member, {}).values()
                if t in index.classes
            )
            for leaves in index.attr_leaves.get(member, {}).values():
                nxt.update(leaves)
            frontier.extend(sorted(nxt - reached))
    return reached


def _clear_walk(graph: CacheGraph, start: str) -> set[str]:
    """Site names cleared transitively from one ``clear_caches`` method.

    Follows typed dispatch always, and falls back to name-based
    dispatch for ``clear``-ish call names — the loop over
    ``self.engines.values()`` leaves the receiver untyped, and missing
    that edge would report every engine memo as unregistered.
    """
    index = graph.index
    cleared: set[str] = set()
    visited: set[str] = set()
    frontier = [start]
    while frontier:
        qualname = frontier.pop(0)
        if qualname in visited:
            continue
        visited.add(qualname)
        summary = graph.summaries.get(qualname)
        if summary is None:
            continue
        for op in summary.ops:
            if op.kind == "clear":
                cleared.add(op.site)
        fn = summary.fn
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            method = node.func.attr
            if not _CLEARISH_RE.search(method):
                continue
            # ``x.clear()`` on a site is already an op above; here we
            # chase the *method bodies* clear calls dispatch into.
            targets: list[str] = []
            for cls in sorted(index.classes):
                cinfo = index.classes[cls]
                if method in cinfo.methods:
                    targets.append(cinfo.methods[method])
            frontier.extend(targets)
    return cleared


def _cache001(graph: CacheGraph, code: str) -> list[Finding]:
    findings: list[Finding] = []
    index, table = graph.index, graph.table
    roots = [
        (cls, info.methods["clear_caches"])
        for cls, info in sorted(index.classes.items())
        if "clear_caches" in info.methods
    ]
    if not roots:
        return findings
    for root_cls, clear_fn in roots:
        reached = _reachable_classes(graph, root_cls)
        cleared = _clear_walk(graph, clear_fn)
        for name in sorted(table.sites):
            site = table.sites[name]
            if site.scope != "attr" or site.owner not in reached:
                continue
            # A cache-class attr whose *instance type's* internal sites
            # are cleared counts as registered through its own clear().
            if site.name in cleared:
                continue
            findings.append(
                graph.index.line_finding(
                    site.path,
                    site.lineno,
                    code,
                    f"cache {site.name} is reachable from "
                    f"{root_cls}.clear_caches() but never cleared by it — "
                    f"register it so world-level invalidation covers "
                    f"every memo",
                )
            )
    return findings


# ----------------------------------------------------------------------
# CACHE002 — epoch-free key on an epoch-coupled insert


def _fn_is_coupled(graph: CacheGraph, summary: FunctionSummary) -> bool:
    cls = graph.effective_cls(summary.fn)
    if graph.table.is_coupled(graph.index, cls):
        return True
    # Module-level functions couple through annotated parameters and
    # typed locals (``def summarize(table: TinyTable, ...)``).
    return any(
        t in graph.table.epoch_coupled
        for t in summary.local_types.values()
    )


def _cache002(graph: CacheGraph, code: str) -> list[Finding]:
    findings: list[Finding] = []
    for qualname in sorted(graph.summaries):
        summary = graph.summaries[qualname]
        if not summary.ops:
            continue
        if not _fn_is_coupled(graph, summary):
            continue
        path = graph.index.modules[summary.fn.module].path
        for op in summary.ops:
            if op.kind != "insert":
                continue
            if key_has_epoch(op.key, summary):
                continue
            findings.append(
                graph.index.line_finding(
                    path,
                    op.line,
                    code,
                    f"insert into {op.site} from epoch-coupled "
                    f"{qualname} builds its key without an "
                    f"epoch/generation component — entries will be "
                    f"served after the underlying index changes",
                )
            )
    return findings


# ----------------------------------------------------------------------
# CACHE003 — mutation of epoch-bearing state without a bump


def _cache003(graph: CacheGraph, code: str) -> list[Finding]:
    findings: list[Finding] = []
    index, table = graph.index, graph.table
    # Per epoch-bearing class: which attrs do *bumping* methods rebind
    # wholesale?  A memo reset inside the bumping method (say ``add()``
    # doing ``self._memo = {}``) licenses non-bumping writes to that memo.
    for cls in sorted(table.epoch_bearing):
        counters = set(table.epoch_bearing[cls])
        cinfo = index.classes[cls]
        method_summaries = [
            graph.summaries[m]
            for m in sorted(cinfo.methods.values())
            if m in graph.summaries
        ]
        reset_by_bumper: set[str] = set()
        for summary in method_summaries:
            # __init__ sets the counter to zero, which reads as a
            # "bump"; its rebinds are construction, not invalidation.
            if summary.fn.name == "__init__":
                continue
            if counters & summary.counter_bumps or any(
                EPOCH_NAME_RE.search(a) for a in summary.counter_bumps
            ):
                reset_by_bumper.update(
                    attr for __, attr in summary.self_rebinds
                )
        for summary in method_summaries:
            bumps = bool(
                counters & summary.counter_bumps
                or any(
                    EPOCH_NAME_RE.search(a) for a in summary.counter_bumps
                )
            )
            if bumps or summary.fn.name == "__init__":
                continue
            path = index.modules[summary.fn.module].path
            for line, attr, via in summary.self_mutations:
                if attr in reset_by_bumper:
                    continue
                if attr in counters:
                    continue
                findings.append(
                    graph.index.line_finding(
                        path,
                        line,
                        code,
                        f"{summary.fn.qualname} mutates "
                        f"{cls.rsplit('.', 1)[-1]}.{attr} ({via}) without "
                        f"bumping the epoch counter "
                        f"({', '.join(sorted(counters)) or 'epoch'}) — "
                        f"epoch-keyed caches will keep serving the "
                        f"pre-mutation view",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# CACHE004 — cached mutable value mutated after insert


def _cache004(graph: CacheGraph, code: str) -> list[Finding]:
    findings: list[Finding] = []
    #: Functions whose site-insert value is a mutable local they also
    #: return raw: qualname -> insert line.
    leaky: dict[str, int] = {}
    for qualname in sorted(graph.summaries):
        summary = graph.summaries[qualname]
        path = graph.index.modules[summary.fn.module].path
        for op in summary.ops:
            if op.kind != "insert" or not isinstance(op.value, ast.Name):
                continue
            local = op.value.id
            if local not in summary.mutable_locals:
                continue
            post = [
                line
                for line, name in summary.local_mutations
                if name == local and line > op.line
            ]
            if post:
                findings.append(
                    graph.index.line_finding(
                        path,
                        min(post),
                        code,
                        f"{local!r} was stored in {op.site} at line "
                        f"{op.line} and is mutated afterwards — every "
                        f"later cache hit observes the mutation",
                    )
                )
            if local in summary.returned_locals:
                leaky[qualname] = op.line
    if not leaky:
        return findings
    # Callers that mutate the returned (and cached) value.
    for qualname in sorted(graph.summaries):
        summary = graph.summaries[qualname]
        path = graph.index.modules[summary.fn.module].path
        for node in ast.walk(summary.fn.node):
            if not isinstance(node, ast.Assign):
                continue
            if not (
                isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
            ):
                continue
            method = node.value.func.attr
            callees = [
                q
                for q in leaky
                if q.rsplit(".", 1)[-1] == method
                and q != qualname
            ]
            if not callees:
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                post = [
                    line
                    for line, name in summary.local_mutations
                    if name == target.id and line > node.lineno
                ]
                if post:
                    findings.append(
                        graph.index.line_finding(
                            path,
                            min(post),
                            code,
                            f"mutating the result of {method}() — the "
                            f"value is also stored in a cache by "
                            f"{callees[0]}, so the mutation corrupts "
                            f"every later hit",
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# CACHE005 — contract bypass


def _cache005(graph: CacheGraph, code: str) -> list[Finding]:
    findings: list[Finding] = []
    index, table = graph.index, graph.table
    for qualname in sorted(graph.summaries):
        summary = graph.summaries[qualname]
        cls = graph.effective_cls(summary.fn)
        family = set(index.class_family(cls)) if cls else set()
        path = index.modules[summary.fn.module].path
        for line, target_cls, attr, via in summary.primitive_reaches:
            if target_cls in family:
                continue
            findings.append(
                graph.index.line_finding(
                    path,
                    line,
                    code,
                    f"raw reach into {target_cls.rsplit('.', 1)[-1]}.{attr} "
                    f"({via}) from outside the cache class — go through "
                    f"its counted get/put interface",
                )
            )
        for op in summary.ops:
            site = table.sites[op.site]
            if site.scope != "attr":
                continue
            external = site.owner not in family
            # Method-style traffic on a cache-class instance (put, get,
            # get_or_compute, clear) is the public, counted interface —
            # external callers are its whole point.  What crosses the
            # line is raw storage access: subscripting a dict-as-cache
            # attr, or a cache-class instance's keyed store, from
            # outside the owning class.
            raw_dict = site.kind == "dict" and (
                op.kind in ("insert", "store-access")
                or op.via in ("[]", "in")
            )
            raw_class = site.kind == "cache-class" and op.kind == "store-access"
            if external and (raw_dict or raw_class):
                findings.append(
                    graph.index.line_finding(
                        path,
                        op.line,
                        code,
                        f"raw storage access ({op.via}) on {op.site} from "
                        f"outside {site.owner} — go through the owner's "
                        f"counted get/put interface",
                    )
                )
                continue
            if (
                not external
                and op.kind == "insert"
                and site.kind == "dict"
                and _counter_bearing(graph, site.owner)
                and not any(
                    _MISS_RE.search(a) for a in summary.counter_bumps
                )
            ):
                findings.append(
                    graph.index.line_finding(
                        path,
                        op.line,
                        code,
                        f"insert into counter-bearing cache {op.site} "
                        f"without recording the miss — hit-rate "
                        f"accounting drifts from reality",
                    )
                )
    return findings


def _counter_bearing(graph: CacheGraph, owner: str) -> bool:
    """Whether a class tracks hit/miss counters next to its dict cache."""
    attrs = set(graph.index.attr_types.get(owner, {}))
    cinfo = graph.index.classes.get(owner)
    if cinfo is not None:
        init_q = cinfo.methods.get("__init__")
        init_summary = graph.summaries.get(init_q) if init_q else None
        # Counters are usually untyped scalar attrs; read them off the
        # __init__ rebinds instead of the type table.
        if init_summary is not None:
            attrs.update(attr for __, attr in init_summary.self_rebinds)
    return any(_COUNTER_RE.search(a) for a in attrs)


RULES = (
    Rule(
        "CACHE001",
        "unregistered cache",
        "a cache reachable from a clear_caches() owner is never cleared "
        "by it (survives world-level invalidation)",
        _cache001,
    ),
    Rule(
        "CACHE002",
        "epoch-free cache key",
        "a cache filled from index/corpus-derived state is keyed without "
        "an epoch/generation component (entries outlive the data they "
        "were computed from)",
        _cache002,
    ),
    Rule(
        "CACHE003",
        "mutation without epoch bump",
        "a method of an epoch-bearing class mutates its keyed state "
        "without bumping the generation counter on that path",
        _cache003,
    ),
    Rule(
        "CACHE004",
        "cached value mutated after insert",
        "a mutable value stored in a cache escapes and is mutated after "
        "insertion (every later hit observes the mutation)",
        _cache004,
    ),
    Rule(
        "CACHE005",
        "cache contract bypass",
        "raw storage access from outside the owning cache, or an insert "
        "that skips the hit/miss counter contract",
        _cache005,
    ),
)
