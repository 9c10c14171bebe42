"""Cache-site discovery and the epoch-coupling tables.

A **cache site** is a keyed memo with a stable identity the analysis can
name:

* a *typed attribute site* — an attribute whose (inferred or annotated)
  type is an in-project **cache class** (a class whose name ends in
  ``Cache``): ``self._query_cache = BoundedCache(...)``,
  ``evidence_cache: EvidenceCache = field(...)``;
* a *dict-as-cache attribute site* — a plain dict display assigned in
  ``__init__`` whose attribute name says it memoizes
  (``self._memo = {}``);
* a *module-global site* — a mutable module-level binding whose name
  says it is a memo table.

The last two kinds are hand-rolled memos; ``src/repro`` has none, every
site there holds the one primitive.

Classes that *implement* the cache primitive itself (name ends in
``Cache``, own a plain-dict store assigned in ``__init__``, and expose
``get``/``put``/``get_or_compute``) are **primitive implementations**:
their internal dicts are storage, not sites — the sites are the typed
attributes that *hold* instances of them.  ``BoundedCache._cache``
disappears this way; ``EvidenceCache`` (a ``BoundedCache`` subclass
with no store of its own) and ``SnippetCache`` (whose store is a
``BoundedCache``, itself a typed site) do not qualify.

Alongside the sites, this module computes the **epoch tables** the
rules reason with: which classes are *epoch-bearing* (they expose an
``epoch``/generation counter — :class:`repro.search.index.InvertedIndex`)
and which are *epoch-coupled* (they hold, transitively through typed
attributes or class-hierarchy dispatch, epoch-bearing state — the search
engine, the retriever, every answer engine, the world).  A cache filled
from epoch-coupled state must embed the epoch in its keys; that is the
obligation CACHE002 enforces.

``repro.cachewitness`` — the runtime staleness witness — is exempt by
construction: it *implements* cache verification (its entry table is a
fingerprint store keyed alongside the caches it audits), so it cannot
satisfy the caller-side discipline it exists to enforce, exactly as
``repro.lockorder`` is exempt from locklint.  Its sites are not
discovered and its functions are not summarized.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace

from repro.devtools.common.context import in_modules
from repro.devtools.common.index import ProjectIndex, self_attr

__all__ = [
    "CACHE_ATTR_RE",
    "CACHE_GLOBAL_RE",
    "EXEMPT_MODULES",
    "CacheSite",
    "CacheSiteTable",
    "build_cache_sites",
]

#: Module prefixes the cache-coherence rules do not apply to.
EXEMPT_MODULES = ("repro.cachewitness",)

#: Attribute names that declare dict-as-cache intent.
CACHE_ATTR_RE = re.compile(r"cache|memo", re.IGNORECASE)

#: Module-global names that declare memo-table intent.
CACHE_GLOBAL_RE = re.compile(r"cache|memo|table", re.IGNORECASE)

#: Names that mark an epoch/generation component in a key or a counter
#: bump in a mutator.
EPOCH_NAME_RE = re.compile(r"epoch|generation", re.IGNORECASE)

#: Methods a class must expose (any one of them) to count as a cache
#: *primitive implementation* rather than a cache *holder*.
_PRIMITIVE_METHODS = frozenset({"get", "put", "get_or_compute"})


@dataclass(frozen=True)
class CacheSite:
    """One named keyed memo."""

    name: str
    #: ``"cache-class"`` (attr typed as an in-project ``*Cache`` class),
    #: ``"dict"`` (dict display assigned in ``__init__``) or
    #: ``"global"`` (module-level mutable binding).
    kind: str
    #: ``"attr"`` or ``"global"``.
    scope: str
    #: Class qualname for attr sites, module name for globals.
    owner: str
    #: The attribute or global binding name.
    binding: str
    path: str
    lineno: int
    #: For ``cache-class`` sites: the cache class the attr is typed as.
    value_type: str | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "scope": self.scope,
            "owner": self.owner,
            "binding": self.binding,
            "path": self.path,
            "line": self.lineno,
            "value_type": self.value_type,
        }


@dataclass
class CacheSiteTable:
    """Every discovered site plus the epoch tables."""

    #: site name -> site.
    sites: dict[str, CacheSite] = field(default_factory=dict)
    #: class qualname -> attr -> site.
    attr_sites: dict[str, dict[str, CacheSite]] = field(default_factory=dict)
    #: global qualname -> site.
    global_sites: dict[str, CacheSite] = field(default_factory=dict)
    #: in-project classes whose name ends in ``Cache``.
    cache_classes: set[str] = field(default_factory=set)
    #: cache classes that implement the primitive itself.
    primitive_classes: set[str] = field(default_factory=set)
    #: class qualname -> attrs its ``epoch`` definition reads (the
    #: generation counters CACHE003 wants bumped).
    epoch_bearing: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: classes holding epoch-bearing state, transitively.
    epoch_coupled: set[str] = field(default_factory=set)

    def is_coupled(self, index: ProjectIndex, cls: str | None) -> bool:
        """Whether ``cls`` (or any class in its family) holds epoch-bearing
        state.  Family propagation is the self-dispatch over-approximation:
        a base-class memo fill serves every epoch-coupled subclass."""
        if cls is None:
            return False
        if cls in self.epoch_coupled:
            return True
        return any(
            member in self.epoch_coupled
            for member in index.class_family(cls)
        )


def _epoch_counter_attrs(index: ProjectIndex, cls_qualname: str) -> tuple[str, ...] | None:
    """The ``self.<attr>`` names a class's ``epoch`` definition reads,
    or ``None`` when the class defines no epoch at all."""
    cinfo = index.classes[cls_qualname]
    attrs: list[str] = []
    bearing = False
    for stmt in cinfo.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if EPOCH_NAME_RE.search(stmt.target.id):
                bearing = True
                attrs.append(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and EPOCH_NAME_RE.search(
                    target.id
                ):
                    bearing = True
                    attrs.append(target.id)
    epoch_def = cinfo.methods.get("epoch")
    if epoch_def is not None:
        bearing = True
        fn = index.functions[epoch_def]
        for node in fn.own_nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    attr = self_attr(sub) if isinstance(sub, ast.Attribute) else None
                    if attr is not None and attr not in attrs:
                        attrs.append(attr)
    if not bearing:
        return None
    return tuple(attrs)


def _dict_attr_lines(
    index: ProjectIndex, class_qualname: str
) -> dict[str, int]:
    """attr -> line of every plain-dict display assigned in ``__init__``."""
    cinfo = index.classes[class_qualname]
    init_qualname = cinfo.methods.get("__init__")
    init = index.functions.get(init_qualname) if init_qualname else None
    if init is None:
        return {}
    found: dict[str, int] = {}
    for node in init.own_nodes:
        if isinstance(node, ast.AnnAssign):
            targets: list[ast.expr] = [node.target]
            value = node.value
        elif isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        else:
            continue
        if not isinstance(value, (ast.Dict, ast.DictComp)):
            continue
        for target in targets:
            attr = self_attr(target)
            if attr is not None:
                found.setdefault(attr, node.lineno)
    return found


def build_cache_sites(index: ProjectIndex) -> CacheSiteTable:
    """Discover every cache site outside :data:`EXEMPT_MODULES`, and the
    epoch tables across the whole project."""
    table = CacheSiteTable()

    for class_qualname in sorted(index.classes):
        cinfo = index.classes[class_qualname]
        if cinfo.name.endswith("Cache"):
            table.cache_classes.add(class_qualname)
        counters = _epoch_counter_attrs(index, class_qualname)
        if counters is not None:
            table.epoch_bearing[class_qualname] = counters

    # Primitive implementations: *Cache classes that own a plain-dict
    # store and expose the get/put protocol themselves.
    for class_qualname in sorted(table.cache_classes):
        cinfo = index.classes[class_qualname]
        if not _dict_attr_lines(index, class_qualname):
            continue
        if _PRIMITIVE_METHODS & set(cinfo.methods):
            table.primitive_classes.add(class_qualname)

    # Epoch coupling: fixpoint over typed attributes and annotation
    # leaves — a class holding (a container of) epoch-bearing state is
    # itself coupled.
    coupled = set(table.epoch_bearing)
    changed = True
    while changed:
        changed = False
        for class_qualname in sorted(index.classes):
            if class_qualname in coupled:
                continue
            reachable: set[str] = set()
            reachable.update(
                t
                for t in index.attr_types.get(class_qualname, {}).values()
                if t in index.classes
            )
            for leaf_types in index.attr_leaves.get(class_qualname, {}).values():
                reachable.update(leaf_types)
            if reachable & coupled:
                coupled.add(class_qualname)
                changed = True
    table.epoch_coupled = coupled

    # Attribute sites.
    for class_qualname in sorted(index.classes):
        cinfo = index.classes[class_qualname]
        if in_modules(cinfo.module, EXEMPT_MODULES):
            continue
        minfo = index.modules[cinfo.module]
        dict_lines = _dict_attr_lines(index, class_qualname)
        primitive = class_qualname in table.primitive_classes
        attr_sites = table.attr_sites.setdefault(class_qualname, {})
        for attr, typed in sorted(index.attr_types[class_qualname].items()):
            if typed in table.cache_classes:
                site = CacheSite(
                    name=f"{cinfo.name}.{attr}",
                    kind="cache-class",
                    scope="attr",
                    owner=class_qualname,
                    binding=attr,
                    path=minfo.path,
                    lineno=dict_lines.get(attr, cinfo.node.lineno),
                    value_type=typed,
                )
                site = _at_init_line(index, class_qualname, attr, site)
                table.sites[site.name] = site
                attr_sites[attr] = site
        if primitive:
            # The internal store of a cache primitive is not a site.
            continue
        for attr, lineno in sorted(dict_lines.items()):
            if attr in attr_sites:
                continue
            if not CACHE_ATTR_RE.search(attr):
                continue
            site = CacheSite(
                name=f"{cinfo.name}.{attr}",
                kind="dict",
                scope="attr",
                owner=class_qualname,
                binding=attr,
                path=minfo.path,
                lineno=lineno,
            )
            table.sites[site.name] = site
            attr_sites[attr] = site

    # Module-global sites.
    for qualname in sorted(index.globals):
        var = index.globals[qualname]
        if var.kind != "mutable" or not CACHE_GLOBAL_RE.search(var.name):
            continue
        if in_modules(var.module, EXEMPT_MODULES):
            continue
        minfo = index.modules[var.module]
        site = CacheSite(
            name=qualname,
            kind="global",
            scope="global",
            owner=var.module,
            binding=var.name,
            path=minfo.path,
            lineno=var.lineno,
        )
        table.sites[site.name] = site
        table.global_sites[qualname] = site
    return table


def _at_init_line(
    index: ProjectIndex, class_qualname: str, attr: str, site: CacheSite
) -> CacheSite:
    """Re-anchor a cache-class attr site at its ``__init__`` assignment
    (or class-level annotation) line when one exists."""
    cinfo = index.classes[class_qualname]
    for stmt in cinfo.node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == attr
        ):
            return replace(site, lineno=stmt.lineno)
    init_qualname = cinfo.methods.get("__init__")
    init = index.functions.get(init_qualname) if init_qualname else None
    if init is None:
        return site
    for node in init.own_nodes:
        targets: list[ast.expr]
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        for target in targets:
            if self_attr(target) == attr:
                return replace(site, lineno=node.lineno)
    return site
