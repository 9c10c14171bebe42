"""The project index: every analyzed file, parsed once, cross-referenced.

``python -m repro lint`` parses each file into this one index before
any rule runs, and every rule family reads it:

* every function and method, keyed by qualified name
  (``repro.core.runner._answer_chunk``,
  ``repro.engines.base.AnswerEngine.answer``), including nested
  functions (``module.outer.inner``) with a parent link — closures are
  how fork-unsafe state sneaks across the worker boundary;
* every class with its *resolved* base names, so the engine hierarchy
  (``ClaudeEngine -> GenerativeEngine -> AnswerEngine``) is walkable
  even across modules and import aliases;
* every module-level binding, classified by what kind of shared state it
  is: ``mutable`` (dicts/lists/sets and their collection cousins),
  ``resource`` (open file handles, locks, executors — fork-unsafe),
  ``rng`` (``random.Random`` / ``derive_rng`` instances, whose draw
  order is shared mutable state), or ``other``;
* every module's pragmas, one :class:`Pragmas` per family namespace;
* the typing the lock and cache families resolve receivers through:
  per-class attribute types and call resolution (see
  :meth:`ProjectIndex.attr_type` and :meth:`ProjectIndex.name_targets`).

Name resolution reuses the shared :class:`ModuleContext`, so aliased
imports cannot hide a symbol from the index.  Two files with the same
dotted module name cannot both be indexed: the second is recorded in
:attr:`ProjectIndex.duplicates` rather than silently replacing the
first.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TypeVar

from repro.devtools.common.context import (
    ModuleContext,
    collect_imports,
    module_name_for,
)
from repro.devtools.common.findings import Finding
from repro.devtools.common.pragmas import Pragmas, parse_pragmas

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "GlobalVar",
    "ModuleInfo",
    "ProjectIndex",
    "classify_value",
    "ctor_of",
    "resolve_annotation",
    "self_attr",
]

_T = TypeVar("_T")


#: Constructors whose product is shared *mutable* state when bound at
#: module level.
_MUTABLE_CTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.defaultdict",
        "collections.Counter",
        "collections.deque",
        "collections.OrderedDict",
    }
)

#: Constructors whose product must never be captured into a forked
#: worker: OS-level handles and synchronization primitives duplicate
#: incoherently across fork, and executors deadlock.
_RESOURCE_CTORS = frozenset(
    {
        "open",
        "io.open",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.Lock",
    }
)

#: Constructors of stateful random streams.  A module-level instance is
#: shared mutable state (every draw advances it), which is exactly what
#: must not cross the worker boundary.
_RNG_CTORS = frozenset({"random.Random", "repro.llm.rng.derive_rng"})


def classify_value(node: ast.expr | None, ctx: ModuleContext) -> str:
    """Classify a module-level binding's value expression."""
    if node is None:
        return "other"
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return "mutable"
    if isinstance(node, ast.Call):
        resolved = ctx.resolve(node.func)
        if resolved is None and isinstance(node.func, ast.Name):
            # Builtins are not imported, so resolve() stays silent.
            resolved = node.func.id
        if resolved in _RESOURCE_CTORS:
            return "resource"
        if resolved in _RNG_CTORS or (
            isinstance(node.func, ast.Name) and node.func.id == "derive_rng"
        ):
            return "rng"
        if resolved in _MUTABLE_CTORS:
            return "mutable"
    return "other"


@dataclass
class FunctionInfo:
    """One function or method, with enough context to check it."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    lineno: int
    #: Qualified name of the owning class, or ``None`` for plain functions.
    cls: str | None = None
    #: Qualified name of the enclosing function for nested defs.
    parent: str | None = None
    #: name -> qualname of functions defined directly inside this one.
    nested: dict[str, str] = field(default_factory=dict)

    @cached_property
    def own_nodes(self) -> tuple[ast.AST, ...]:
        """Every AST node belonging to this function itself, breadth
        first, *excluding* the bodies of nested function/class
        definitions (which are separate analysis units with their own
        qualified names).  Lambdas stay included: they have no name of
        their own, so their bodies are attributed to the enclosing
        function.  Walked once; every rule reads this tuple.
        """
        collected: list[ast.AST] = []
        queue = deque(ast.iter_child_nodes(self.node))
        while queue:
            child = queue.popleft()
            collected.append(child)
            if not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                queue.extend(ast.iter_child_nodes(child))
        return tuple(collected)


@dataclass
class ClassInfo:
    """One class definition and its resolved bases."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    #: Base names resolved to dotted paths where imports allow, else the
    #: raw source spelling.
    bases: tuple[str, ...] = ()
    #: method name -> function qualname.
    methods: dict[str, str] = field(default_factory=dict)


@dataclass
class GlobalVar:
    """One module-level binding."""

    qualname: str
    module: str
    name: str
    kind: str
    lineno: int


@dataclass
class ModuleInfo:
    """Everything the analyzer knows about one module."""

    path: str
    module: str
    tree: ast.Module
    ctx: ModuleContext
    #: family namespace (``detlint``, ``conclint``, ...) -> its pragmas.
    pragmas: dict[str, Pragmas]
    #: top-level function name -> qualname.
    functions: dict[str, str] = field(default_factory=dict)
    #: class name -> qualname.
    classes: dict[str, str] = field(default_factory=dict)
    #: module-level binding name -> GlobalVar.
    globals: dict[str, GlobalVar] = field(default_factory=dict)


def _assign_targets(stmt: ast.stmt) -> list[tuple[str, ast.expr | None]]:
    """(name, value) pairs bound at module level by one statement."""
    pairs: list[tuple[str, ast.expr | None]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                pairs.append((target.id, stmt.value))
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        pairs.append((element.id, None))
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        pairs.append((stmt.target.id, stmt.value))
    return pairs


class ProjectIndex:
    """Symbol tables for every analyzed module, cross-referenced."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: display path -> module, for anchoring findings and waivers.
        self.by_path: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module-level binding qualname -> GlobalVar, across all modules.
        self.globals: dict[str, GlobalVar] = {}
        #: files that failed to parse: path -> SyntaxError.
        self.broken: dict[str, SyntaxError] = {}
        #: files left out because their module name was taken: path ->
        #: the path of the file indexed under that name.
        self.duplicates: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def build(cls, files: list[Path]) -> "ProjectIndex":
        index = cls()
        for file_path in files:
            index.add_module(file_path.read_text(encoding="utf-8"), file_path)
        return index

    def add_module(self, source: str, path: str | Path) -> ModuleInfo | None:
        display = str(path)
        module = module_name_for(Path(display).parts)
        if module in self.modules:
            self.duplicates[display] = self.modules[module].path
            return None
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            self.broken[display] = exc
            return None
        ctx = ModuleContext(
            path=display,
            module=module,
            source_lines=source.splitlines(),
            imports=collect_imports(tree, module),
        )
        info = ModuleInfo(
            path=display,
            module=module,
            tree=tree,
            ctx=ctx,
            pragmas=parse_pragmas(source),
        )
        self.modules[module] = info
        self.by_path[display] = info
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, stmt, prefix=module)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(info, stmt)
            else:
                for name, value in _assign_targets(stmt):
                    var = GlobalVar(
                        qualname=f"{module}.{name}",
                        module=module,
                        name=name,
                        kind=classify_value(value, ctx),
                        lineno=stmt.lineno,
                    )
                    info.globals[name] = var
                    self.globals[var.qualname] = var
        return info

    def _add_function(
        self,
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        cls: str | None = None,
        parent: FunctionInfo | None = None,
    ) -> FunctionInfo:
        qualname = f"{prefix}.{node.name}"
        fn = FunctionInfo(
            qualname=qualname,
            module=info.module,
            name=node.name,
            node=node,
            lineno=node.lineno,
            cls=cls,
            parent=parent.qualname if parent else None,
        )
        self.functions[qualname] = fn
        if parent is not None:
            parent.nested[node.name] = qualname
        elif cls is None:
            info.functions[node.name] = qualname
        # Nested defs get their own entries: a closure submitted to a
        # pool is a worker entry point in its own right.
        for child in fn.own_nodes:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, child, prefix=qualname, parent=fn)
        return fn

    def _add_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{info.module}.{node.name}"
        bases = []
        for base in node.bases:
            resolved = info.ctx.resolve(base)
            if resolved is None and isinstance(base, ast.Name):
                # A base defined in the same module.
                local = info.classes.get(base.id)
                resolved = local or base.id
            bases.append(resolved or ast.unparse(base))
        cls_info = ClassInfo(
            qualname=qualname,
            module=info.module,
            name=node.name,
            node=node,
            bases=tuple(bases),
        )
        self.classes[qualname] = cls_info
        info.classes[node.name] = qualname
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(info, stmt, prefix=qualname, cls=qualname)
                cls_info.methods[stmt.name] = fn.qualname

    # ------------------------------------------------------------------
    # Lookups

    def ancestors(self, class_qualname: str) -> list[str]:
        """Resolved base-class names, transitively, in-project or not."""
        seen: list[str] = []
        frontier = [class_qualname]
        while frontier:
            current = frontier.pop(0)
            info = self.classes.get(current)
            if info is None:
                continue
            for base in info.bases:
                if base not in seen:
                    seen.append(base)
                    frontier.append(base)
        return seen

    def descendants(self, class_qualname: str) -> list[str]:
        """In-project classes that (transitively) inherit from this one."""
        found: list[str] = []
        changed = True
        covered = {class_qualname}
        while changed:
            changed = False
            for name in sorted(self.classes):
                if name in covered:
                    continue
                if any(base in covered for base in self.classes[name].bases):
                    covered.add(name)
                    found.append(name)
                    changed = True
        return found

    def class_family(self, class_qualname: str) -> list[str]:
        """The class, its ancestors, and every descendant of any of them.

        ``self.method(...)`` can dispatch anywhere in this set — that is
        the over-approximation that makes ``AnswerEngine.answer`` reach
        every engine's ``_answer_uncached``.
        """
        roots = [class_qualname, *self.ancestors(class_qualname)]
        family: list[str] = []
        for root in roots:
            if root in self.classes and root not in family:
                family.append(root)
            for descendant in self.descendants(root):
                if descendant not in family:
                    family.append(descendant)
        return family

    def methods_named(self, name: str) -> list[str]:
        """Every project method with this name, across all classes."""
        return [
            info.methods[name]
            for __, info in sorted(self.classes.items())
            if name in info.methods
        ]

    def resolve_global(
        self, node: ast.expr, minfo: ModuleInfo
    ) -> GlobalVar | None:
        """The module-level binding an expression refers to, if any.

        Handles bare names in the same module and dotted/imported
        references to other analyzed modules.
        """
        if isinstance(node, ast.Name):
            var = minfo.globals.get(node.id)
            if var is not None:
                return var
            imported = minfo.ctx.imports.get(node.id)
            if imported is not None:
                return self.globals.get(imported)
            return None
        if isinstance(node, ast.Attribute):
            resolved = minfo.ctx.resolve(node)
            if resolved is not None:
                return self.globals.get(resolved)
        return None

    def line_finding(
        self, path: str, line: int, rule: str, message: str
    ) -> Finding:
        """A finding anchored at one whole line of an indexed file: the
        form graph-level rules report in, having no node to point at."""
        minfo = self.by_path.get(path)
        return Finding(
            path=path,
            line=line,
            col=0,
            rule=rule,
            message=message,
            snippet=minfo.ctx.snippet(line) if minfo is not None else "",
            end_line=line,
            stmt_line=line,
        )

    # ------------------------------------------------------------------
    # Call resolution

    def _class_init(self, class_qualname: str) -> list[str]:
        """Constructing a class runs its (possibly inherited) __init__."""
        for candidate in [class_qualname, *self.ancestors(class_qualname)]:
            info = self.classes.get(candidate)
            if info is not None and "__init__" in info.methods:
                return [info.methods["__init__"]]
        return []

    def dotted_targets(self, dotted: str) -> list[str]:
        """The project function a dotted path names, or the ``__init__``
        a class path runs."""
        if dotted in self.functions:
            return [dotted]
        if dotted in self.classes:
            return self._class_init(dotted)
        return []

    def name_targets(
        self, name: str, fn: FunctionInfo, minfo: ModuleInfo
    ) -> list[str]:
        """What a bare-name call inside ``fn`` runs: a function nested in
        it or in an enclosing function, a module function, a class's
        ``__init__``, or an imported project function or class."""
        scope: FunctionInfo | None = fn
        while scope is not None:
            if name in scope.nested:
                return [scope.nested[name]]
            scope = self.functions.get(scope.parent) if scope.parent else None
        if name in minfo.functions:
            return [minfo.functions[name]]
        if name in minfo.classes:
            return self._class_init(minfo.classes[name])
        imported = minfo.ctx.imports.get(name)
        if imported is not None:
            return self.dotted_targets(imported)
        return []

    def dispatch(self, class_qualname: str, method: str) -> list[str]:
        """Every implementation a call of ``method`` on an instance of
        the class may run, over its :meth:`class_family`."""
        targets = []
        for member in self.class_family(class_qualname):
            qualname = self.classes[member].methods.get(method)
            if qualname is not None:
                targets.append(qualname)
        return targets

    # ------------------------------------------------------------------
    # Attribute typing (strict: what is not evident stays untyped)

    def inherited(
        self, class_qualname: str, attr: str, table: dict[str, dict[str, _T]]
    ) -> _T | None:
        """``table[c][attr]`` for the nearest of the class and its
        ancestors that has one: a subclass method sees its base's
        attributes."""
        for candidate in [class_qualname, *self.ancestors(class_qualname)]:
            found = table.get(candidate, {}).get(attr)
            if found is not None:
                return found
        return None

    def attr_type(self, class_qualname: str, attr: str) -> str | None:
        return self.inherited(class_qualname, attr, self.attr_types)

    @property
    def attr_types(self) -> dict[str, dict[str, str]]:
        """class qualname -> attr name -> type (a project class
        qualname, a dotted external name, or ``dict``/``list``/``set``),
        from class-level annotations, annotated ``__init__`` parameters
        stored on ``self``, and ``__init__`` assignments."""
        return self._attr_scan[0]

    @property
    def attr_leaves(self) -> dict[str, dict[str, tuple[str, ...]]]:
        """class qualname -> attr name -> the project classes named
        anywhere in the attr's annotation (``dict[str, AnswerEngine]``
        contributes ``AnswerEngine``)."""
        return self._attr_scan[1]

    @cached_property
    def _attr_scan(
        self,
    ) -> tuple[dict[str, dict[str, str]], dict[str, dict[str, tuple[str, ...]]]]:
        # Scanned on first use, once every module has been added.
        types: dict[str, dict[str, str]] = {}
        leaves: dict[str, dict[str, tuple[str, ...]]] = {}
        for class_qualname in sorted(self.classes):
            _scan_attrs(
                self,
                class_qualname,
                types.setdefault(class_qualname, {}),
                leaves.setdefault(class_qualname, {}),
            )
        return types, leaves


def _scan_attrs(
    index: ProjectIndex,
    class_qualname: str,
    types: dict[str, str],
    leaves: dict[str, tuple[str, ...]],
) -> None:
    cinfo = index.classes[class_qualname]
    minfo = index.modules[cinfo.module]

    def record(attr: str, annotation: ast.expr | None) -> None:
        typed = resolve_annotation(annotation, minfo, index)
        if typed is not None:
            types.setdefault(attr, typed)
        found = _annotation_leaves(annotation, minfo, index)
        if found:
            leaves.setdefault(attr, found)

    # Class-level annotations (``clock: SimClock``) type attributes too.
    for stmt in cinfo.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            record(stmt.target.id, stmt.annotation)

    init_qualname = cinfo.methods.get("__init__")
    init = index.functions.get(init_qualname) if init_qualname else None
    if init is None:
        return

    # Annotated __init__ parameters, so ``self._clock = clock`` below
    # inherits the parameter's declared type.
    param_types: dict[str, str] = {}
    param_leaves: dict[str, tuple[str, ...]] = {}
    args = init.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        typed = resolve_annotation(arg.annotation, minfo, index)
        if typed is not None:
            param_types[arg.arg] = typed
        found = _annotation_leaves(arg.annotation, minfo, index)
        if found:
            param_leaves[arg.arg] = found

    for node in init.own_nodes:
        if isinstance(node, ast.AnnAssign):
            attr = self_attr(node.target)
            if attr is not None:
                record(attr, node.annotation)
            targets: list[ast.expr] = [node.target]
            value = node.value
        elif isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        else:
            continue
        for target in targets:
            attr = self_attr(target)
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


# ----------------------------------------------------------------------
# Expression typing


def self_attr(expr: ast.expr) -> str | None:
    """``attr`` for a ``self.attr`` expression."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def resolve_annotation(
    node: ast.expr | None, minfo: ModuleInfo, index: ProjectIndex
) -> str | None:
    """A type annotation's dotted name, unwrapping ``T | None`` and
    ``Optional[T]``; ``None`` when the annotation names no single type."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = resolve_annotation(node.left, minfo, index)
        if left is not None:
            return left
        return resolve_annotation(node.right, minfo, index)
    if isinstance(node, ast.Subscript):
        base = resolve_annotation(node.value, minfo, index)
        if base in ("typing.Optional", "Optional"):
            return resolve_annotation(node.slice, minfo, index)
        return None
    if isinstance(node, ast.Name):
        if node.id == "None":
            return None
        local = minfo.classes.get(node.id)
        if local is not None:
            return local
        return minfo.ctx.imports.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        return minfo.ctx.resolve(node)
    return None


def _annotation_leaves(
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


def ctor_of(call: ast.Call, minfo: ModuleInfo) -> str | None:
    """The canonical dotted constructor a call invokes, best effort."""
    resolved = minfo.ctx.resolve(call.func)
    if resolved is not None:
        return resolved
    if isinstance(call.func, ast.Name):
        local_cls = minfo.classes.get(call.func.id)
        if local_cls is not None:
            return local_cls
        return call.func.id
    return None


def _value_type(
    value: ast.expr | None, minfo: ModuleInfo, index: ProjectIndex
) -> str | None:
    """The type an assignment's right-hand side constructs, if evident."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        ctor = ctor_of(value, minfo)
        if ctor is not None and (ctor in index.classes or "." in ctor):
            return ctor
    return None
