"""Lock-site discovery and the attribute/local type tables.

A **lock site** is a synchronization primitive with a stable identity
the analysis can name:

* an *attribute site* — ``self._lock = threading.Lock()`` (or the
  :func:`repro.lockorder.witness_lock` wrapper) assigned in a class's
  ``__init__``, named ``Class._attr``;
* a *local site* — ``admission = threading.BoundedSemaphore(n)`` bound
  to a function local, named ``module.func.name``.

Receivers resolve through the project index's strict typing
(:meth:`~repro.devtools.common.index.ProjectIndex.attr_type`): an
unknown receiver contributes nothing.  conclint's name-based CHA
fallback would be poison here: ``self._cache.get(...)`` on a plain dict
must not "dispatch" to ``BoundedCache.get`` and conjure a lock
acquisition that never happens.

``repro.lockorder`` — the runtime witness — is exempt by construction:
it *implements* locks (``OrderedLock`` wraps acquire/release across
method boundaries), so it cannot satisfy the caller-side discipline it
exists to enforce, exactly as ``repro.core.config`` is exempt from
detlint's environ rule.  Its sites are not discovered and its functions
are not summarized.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.devtools.common.context import in_modules
from repro.devtools.common.index import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    ctor_of,
    iter_own_nodes,
    self_attr,
)

__all__ = ["EXEMPT_MODULES", "LockSite", "SiteTable", "build_sites"]

#: Module prefixes the lock-discipline rules do not apply to.
EXEMPT_MODULES = ("repro.lockorder",)

#: Lock-ish constructors -> (kind, reentrant).  Event is *not* a lock
#: site — it is tracked as a typed attribute for LOCK002's blocking-call
#: detection instead.
LOCK_CTORS = {
    "threading.Lock": ("Lock", False),
    "threading.RLock": ("RLock", True),
    "threading.Semaphore": ("Semaphore", False),
    "threading.BoundedSemaphore": ("BoundedSemaphore", False),
    "threading.Condition": ("Condition", False),
}

#: The runtime witness wrapper; its product is a (non-reentrant) Lock.
WITNESS_CTORS = frozenset({"repro.lockorder.witness_lock"})

#: Kinds that provide mutual exclusion — these enter the held set and
#: the lock-order graph.  Counting semaphores do not: holding a permit
#: while taking locks is the admission-control pattern, not a deadlock
#: order.  They still get LOCK004 acquire/release pairing checks.
MUTEX_KINDS = frozenset({"Lock", "RLock", "Condition"})


@dataclass(frozen=True)
class LockSite:
    """One named synchronization primitive."""

    name: str
    kind: str
    reentrant: bool
    #: ``"attr"`` or ``"local"``.
    scope: str
    #: Class qualname for attr sites, function qualname for local sites.
    owner: str
    #: The attribute or local binding name.
    binding: str
    path: str
    lineno: int

    @property
    def mutex(self) -> bool:
        return self.kind in MUTEX_KINDS

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "reentrant": self.reentrant,
            "scope": self.scope,
            "owner": self.owner,
            "path": self.path,
            "line": self.lineno,
        }


@dataclass
class SiteTable:
    """Every discovered site, by name and by binding."""

    #: site name -> site.
    sites: dict[str, LockSite] = field(default_factory=dict)
    #: class qualname -> attr -> site.
    attr_sites: dict[str, dict[str, LockSite]] = field(default_factory=dict)
    #: (function qualname, local name) -> site.
    local_sites: dict[tuple[str, str], LockSite] = field(default_factory=dict)
    #: witness sites whose declared string disagrees with the computed
    #: ``Class._attr`` name: (declared, computed, path, line).
    mismatched: list[tuple[str, str, str, int]] = field(default_factory=list)


def _witness_site_name(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


def build_sites(index: ProjectIndex) -> SiteTable:
    """Discover every lock site outside :data:`EXEMPT_MODULES`."""
    table = SiteTable()
    for class_qualname in sorted(index.classes):
        if not in_modules(index.classes[class_qualname].module, EXEMPT_MODULES):
            _scan_class(index, table, class_qualname)
    for fn_qualname in sorted(index.functions):
        fn = index.functions[fn_qualname]
        if not in_modules(fn.module, EXEMPT_MODULES):
            _scan_locals(index, table, fn)
    return table


def _scan_class(
    index: ProjectIndex, table: SiteTable, class_qualname: str
) -> None:
    """Attribute sites: lock constructors assigned to ``self`` in
    ``__init__``."""
    cinfo = index.classes[class_qualname]
    init_qualname = cinfo.methods.get("__init__")
    init = index.functions.get(init_qualname) if init_qualname else None
    if init is None:
        return
    minfo = index.modules[cinfo.module]
    for node in iter_own_nodes(init.node):
        if isinstance(node, ast.AnnAssign):
            targets: list[ast.expr] = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        for target in targets:
            attr = self_attr(target)
            if attr is None:
                continue
            site = _site_from_value(
                node.value, minfo, owner=class_qualname, binding=attr,
                name=f"{cinfo.name}.{attr}", table=table,
            )
            if site is not None:
                table.sites[site.name] = site
                table.attr_sites.setdefault(class_qualname, {})[attr] = site


def _site_from_value(
    value: ast.expr | None,
    minfo: ModuleInfo,
    owner: str,
    binding: str,
    name: str,
    table: SiteTable,
) -> LockSite | None:
    if not isinstance(value, ast.Call):
        return None
    ctor = ctor_of(value, minfo)
    if ctor in LOCK_CTORS:
        kind, reentrant = LOCK_CTORS[ctor]
    elif ctor in WITNESS_CTORS or (
        isinstance(value.func, ast.Name) and value.func.id == "witness_lock"
    ):
        kind, reentrant = "Lock", False
        declared = _witness_site_name(value)
        if declared is not None and declared != name:
            table.mismatched.append(
                (declared, name, minfo.path, value.lineno)
            )
    else:
        return None
    return LockSite(
        name=name,
        kind=kind,
        reentrant=reentrant,
        scope="attr",
        owner=owner,
        binding=binding,
        path=minfo.path,
        lineno=value.lineno,
    )


def _scan_locals(
    index: ProjectIndex, table: SiteTable, fn: FunctionInfo
) -> None:
    minfo = index.modules[fn.module]
    for node in iter_own_nodes(fn.node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        ctor = ctor_of(node.value, minfo)
        if ctor not in LOCK_CTORS:
            continue
        kind, reentrant = LOCK_CTORS[ctor]
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            name = f"{fn.qualname}.{target.id}"
            site = LockSite(
                name=name,
                kind=kind,
                reentrant=reentrant,
                scope="local",
                owner=fn.qualname,
                binding=target.id,
                path=minfo.path,
                lineno=node.lineno,
            )
            table.sites[name] = site
            table.local_sites[(fn.qualname, target.id)] = site
