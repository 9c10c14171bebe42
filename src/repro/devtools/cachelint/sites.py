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
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace

from repro.devtools.conclint.symbols import (
    ModuleInfo,
    ProjectIndex,
    iter_own_nodes,
)
from repro.devtools.locklint.sites import (
    _self_attr,
    _value_type,
    resolve_annotation,
)

__all__ = [
    "CACHE_ATTR_RE",
    "CACHE_GLOBAL_RE",
    "CacheSite",
    "CacheSiteTable",
    "build_cache_sites",
]

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
    """Every discovered site plus the typing and epoch tables."""

    #: site name -> site.
    sites: dict[str, CacheSite] = field(default_factory=dict)
    #: (class qualname, attr) -> site.
    attr_sites: dict[tuple[str, str], CacheSite] = field(default_factory=dict)
    #: global qualname -> site.
    global_sites: dict[str, CacheSite] = field(default_factory=dict)
    #: class qualname -> attr name -> type (project class qualname, a
    #: dotted external name, or ``dict``/``list``/``set``).
    attr_types: dict[str, dict[str, str]] = field(default_factory=dict)
    #: class qualname -> attr name -> project classes named anywhere in
    #: the attr's annotation (``dict[str, AnswerEngine]`` contributes
    #: ``AnswerEngine``) — reachability fuel for CACHE001.
    attr_leaves: dict[str, dict[str, tuple[str, ...]]] = field(
        default_factory=dict
    )
    #: in-project classes whose name ends in ``Cache``.
    cache_classes: set[str] = field(default_factory=set)
    #: cache classes that implement the primitive itself.
    primitive_classes: set[str] = field(default_factory=set)
    #: class qualname -> attrs its ``epoch`` definition reads (the
    #: generation counters CACHE003 wants bumped).
    epoch_bearing: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: classes holding epoch-bearing state, transitively.
    epoch_coupled: set[str] = field(default_factory=set)

    def attr_site(
        self, index: ProjectIndex, cls: str, attr: str
    ) -> CacheSite | None:
        """The site ``self.<attr>`` names in class ``cls``, honouring
        inheritance (a subclass method fills its base's memo)."""
        for candidate in [cls, *index.ancestors(cls)]:
            site = self.attr_sites.get((candidate, attr))
            if site is not None:
                return site
        return None

    def attr_type(self, index: ProjectIndex, cls: str, attr: str) -> str | None:
        for candidate in [cls, *index.ancestors(cls)]:
            typed = self.attr_types.get(candidate, {}).get(attr)
            if typed is not None:
                return typed
        return None

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


def annotation_leaves(
    node: ast.expr | None, minfo: ModuleInfo, index: ProjectIndex
) -> tuple[str, ...]:
    """Every in-project class named anywhere inside an annotation.

    Unlike :func:`resolve_annotation` (which wants the single type an
    expression *is*), this collects container element types too:
    ``dict[str, AnswerEngine]`` yields ``AnswerEngine`` — which is how
    CACHE001's reachability walk crosses the world's engine table.
    """
    if node is None:
        return ()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ()
    found: list[str] = []
    for child in [node, *ast.walk(node)]:
        resolved: str | None = None
        if isinstance(child, ast.Name):
            resolved = minfo.classes.get(child.id) or minfo.ctx.imports.get(
                child.id
            )
        elif isinstance(child, ast.Attribute):
            resolved = minfo.ctx.resolve(child)
        if resolved in index.classes and resolved not in found:
            found.append(resolved)
    return tuple(found)


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
        for node in iter_own_nodes(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    attr = _self_attr(sub) if isinstance(sub, ast.Attribute) else None
                    if attr is not None and attr not in attrs:
                        attrs.append(attr)
    if not bearing:
        return None
    return tuple(attrs)


def _scan_class_types(
    index: ProjectIndex, table: CacheSiteTable, class_qualname: str
) -> None:
    """Fill ``attr_types``/``attr_leaves`` for one class (the locklint
    pattern: class-level annotations, annotated ``__init__`` params
    stored on ``self``, and ``__init__`` assignments)."""
    cinfo = index.classes[class_qualname]
    minfo = index.modules[cinfo.module]
    types = table.attr_types.setdefault(class_qualname, {})
    leaves = table.attr_leaves.setdefault(class_qualname, {})

    for stmt in cinfo.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            typed = resolve_annotation(stmt.annotation, minfo, index)
            if typed is not None:
                types.setdefault(stmt.target.id, typed)
            found = annotation_leaves(stmt.annotation, minfo, index)
            if found:
                leaves.setdefault(stmt.target.id, found)

    init_qualname = cinfo.methods.get("__init__")
    init = index.functions.get(init_qualname) if init_qualname else None
    if init is None:
        return

    param_types: dict[str, str] = {}
    param_leaves: dict[str, tuple[str, ...]] = {}
    args = init.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        typed = resolve_annotation(arg.annotation, minfo, index)
        if typed is not None:
            param_types[arg.arg] = typed
        found = annotation_leaves(arg.annotation, minfo, index)
        if found:
            param_leaves[arg.arg] = found

    for node in iter_own_nodes(init.node):
        if isinstance(node, ast.AnnAssign):
            attr = _self_attr(node.target)
            if attr is not None:
                typed = resolve_annotation(node.annotation, minfo, index)
                if typed is not None:
                    types.setdefault(attr, typed)
                found = annotation_leaves(node.annotation, minfo, index)
                if found:
                    leaves.setdefault(attr, found)
            targets: list[ast.expr] = [node.target]
            value = node.value
        elif isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        else:
            continue
        for target in targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            if isinstance(value, ast.Name) and value.id in param_types:
                types.setdefault(attr, param_types[value.id])
                if value.id in param_leaves:
                    leaves.setdefault(attr, param_leaves[value.id])
                continue
            typed = _value_type(value, minfo, index)
            if typed is not None:
                types.setdefault(attr, typed)
                if typed in index.classes:
                    leaves.setdefault(attr, (typed,))


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
    for node in iter_own_nodes(init.node):
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
            attr = _self_attr(target)
            if attr is not None:
                found.setdefault(attr, node.lineno)
    return found


def build_cache_sites(index: ProjectIndex) -> CacheSiteTable:
    """Discover every cache site and epoch table across the project."""
    table = CacheSiteTable()

    for class_qualname in sorted(index.classes):
        _scan_class_types(index, table, class_qualname)
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
                for t in table.attr_types.get(class_qualname, {}).values()
                if t in index.classes
            )
            for leaf_types in table.attr_leaves.get(class_qualname, {}).values():
                reachable.update(leaf_types)
            if reachable & coupled:
                coupled.add(class_qualname)
                changed = True
    table.epoch_coupled = coupled

    # Attribute sites.
    for class_qualname in sorted(index.classes):
        cinfo = index.classes[class_qualname]
        minfo = index.modules[cinfo.module]
        dict_lines = _dict_attr_lines(index, class_qualname)
        primitive = class_qualname in table.primitive_classes
        for attr in sorted(table.attr_types.get(class_qualname, {})):
            typed = table.attr_types[class_qualname][attr]
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
                table.attr_sites[(class_qualname, attr)] = site
        if primitive:
            # The internal store of a cache primitive is not a site.
            continue
        for attr, lineno in sorted(dict_lines.items()):
            if (class_qualname, attr) in table.attr_sites:
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
            table.attr_sites[(class_qualname, attr)] = site

    # Module-global sites.
    for qualname in sorted(index.globals):
        var = index.globals[qualname]
        if var.kind != "mutable" or not CACHE_GLOBAL_RE.search(var.name):
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
    for node in iter_own_nodes(init.node):
        targets: list[ast.expr]
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        for target in targets:
            if _self_attr(target) == attr:
                return replace(site, lineno=node.lineno)
    return site
