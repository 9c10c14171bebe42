"""The determinism rules, DET001–DET006.

Each rule is a small :class:`ast.NodeVisitor` run over every indexed
module's tree, in :data:`RULES` order.  Every rule reasons over
*resolved* dotted paths (see :meth:`ModuleContext.resolve`), so aliased
imports cannot hide a violation, and method calls on local variables
(``rng.random()`` on a ``derive_rng`` product) are never confused with
module-level access.

Rules deliberately under-report when the receiver of a call cannot be
resolved statically: a linter that guesses produces waiver noise, and
waiver noise trains people to ignore it.
"""

from __future__ import annotations

import ast

from repro.devtools.common.context import ModuleContext, in_modules
from repro.devtools.common.findings import Finding, Rule
from repro.devtools.common.index import ProjectIndex

__all__ = ["ORDER_NEUTRAL_BUILTINS", "RULES", "DetRule", "run"]

#: Builtins through which unordered iteration is harmless: they either
#: impose an order (``sorted``), return an unordered value again
#: (``set``/``frozenset``), or aggregate order-insensitively.
ORDER_NEUTRAL_BUILTINS = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "min", "max", "any", "all"}
)

_DERIVE_SEED = "repro.llm.rng.derive_seed"


class DetRule(ast.NodeVisitor):
    """Base class for one determinism rule.

    Subclasses optionally set ``exempt_modules`` (dotted prefixes the
    rule does not apply to) and implement ``visit_*`` methods that call
    :meth:`report`.
    """

    #: Dotted module names (exact or package prefixes) this rule skips.
    exempt_modules: tuple[str, ...] = ()

    def __init__(self, ctx: ModuleContext, code: str) -> None:
        self.ctx = ctx
        self.code = code
        self.findings: list[Finding] = []
        self._stmt_lines: list[int] = []

    def visit(self, node: ast.AST):
        # Track the enclosing-statement stack so report() can anchor
        # pragma lookup to the statement's first line as well as the
        # violating node's own lines (multi-line statements report deep
        # inside themselves; the waiver belongs where the statement
        # starts).
        if isinstance(node, ast.stmt):
            self._stmt_lines.append(node.lineno)
            try:
                return super().visit(node)
            finally:
                self._stmt_lines.pop()
        return super().visit(node)

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                rule=self.code,
                message=message,
                snippet=self.ctx.snippet(line),
                end_line=getattr(node, "end_lineno", line) or line,
                stmt_line=self._stmt_lines[-1] if self._stmt_lines else line,
            )
        )


def _is_builtin(ctx, node: ast.expr, name: str) -> bool:
    """Whether ``node`` is the builtin ``name`` (not rebound by an import)."""
    return (
        isinstance(node, ast.Name)
        and node.id == name
        and node.id not in ctx.imports
    )


class GlobalRandomRule(DetRule):
    """DET001 — ad-hoc RNG use outside the derived-seed discipline.

    The study's invariant is that every draw is a pure function of
    ``(seed, config)`` routed through :func:`repro.llm.rng.derive_seed`'s
    collision-free length-prefixed encoding.  The module-level ``random``
    functions share hidden global state across call sites; bare
    ``random.Random(x)`` constructions invite collision-prone ad-hoc
    seed encodings (the ``(a, b).__repr__()`` trick).
    """
    exempt_modules = ("repro.llm.rng",)

    def _is_derived_seed(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        resolved = self.ctx.resolve(node.func)
        if resolved == _DERIVE_SEED:
            return True
        # Lenient fallback: a locally defined wrapper named derive_seed.
        return isinstance(node.func, ast.Name) and node.func.id == "derive_seed"

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.resolve(node.func)
        if resolved == "random.Random":
            seeded_ok = (
                len(node.args) == 1
                and not node.keywords
                and self._is_derived_seed(node.args[0])
            )
            if not seeded_ok:
                self.report(
                    node,
                    "random.Random(...) seeded outside derive_seed; use "
                    "derive_rng(*components) or random.Random(derive_seed(...))",
                )
        elif resolved == "random.SystemRandom":
            self.report(node, "random.SystemRandom draws OS entropy and can never be reproduced")
        elif resolved is not None and resolved.startswith("random."):
            self.report(
                node,
                f"{resolved}() uses the hidden module-global RNG; draw from a "
                "derive_rng(...) instance instead",
            )
        self.generic_visit(node)


class WallClockRule(DetRule):
    """DET002 — wall-clock reads inside library code.

    Results must not depend on when the study runs.  The simulated world
    has an explicit ``StudyClock``/``study_date``; real time is only
    legitimate for operator-facing timing (CLI progress, benchmarks),
    which lives in ``tools/``/``benchmarks/`` or carries a waiver.
    """

    _FORBIDDEN = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.localtime",
            "time.gmtime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.resolve(node.func)
        if resolved in self._FORBIDDEN:
            self.report(
                node,
                f"{resolved}() reads the wall clock; results must be a pure "
                "function of (seed, config)",
            )
        self.generic_visit(node)


class SetOrderRule(DetRule):
    """DET003 — iteration order of unordered collections leaking out.

    Set iteration order varies with ``PYTHONHASHSEED`` and insertion
    history; any set expression feeding an order-sensitive consumer
    (a ``for`` loop, list/tuple materialisation, ``str.join``,
    ``enumerate``) without an enclosing ``sorted()`` is flagged.

    ``dict`` / ``.keys()`` / ``.items()`` iteration is insertion-ordered
    (guaranteed since Python 3.7) and therefore deterministic given
    deterministic construction, so it is deliberately *not* flagged —
    flagging it would bury the real signal under hundreds of waivers.
    Set-typed *variables* are likewise not tracked (no dataflow); the
    rule targets the syntactic forms where intent is unambiguous.
    """

    def __init__(self, ctx, code) -> None:
        super().__init__(ctx, code)
        self._neutral_depth = 0

    # -- what counts as an unordered expression ------------------------
    def _is_unordered(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if _is_builtin(self.ctx, node.func, "set") or _is_builtin(
                self.ctx, node.func, "frozenset"
            ):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_unordered(node.func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_unordered(node.left) or self._is_unordered(node.right)
        return False

    def _flag(self, node: ast.expr, consumer: str) -> None:
        if self._neutral_depth == 0 and self._is_unordered(node):
            self.report(
                node,
                f"set iteration order is PYTHONHASHSEED-dependent and feeds "
                f"{consumer}; wrap in sorted() or restructure",
            )

    # -- order-sensitive consumers -------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._flag(node.iter, "a for loop")
        self.generic_visit(node)

    def _check_generators(self, node) -> None:
        for generator in node.generators:
            self._flag(generator.iter, "a comprehension")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_generators(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_generators(node)

    # Set/dict comprehensions rebuild unordered containers; iteration
    # order cannot leak through them, so only their nested parts matter.
    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if any(_is_builtin(self.ctx, func, name) for name in ("list", "tuple", "enumerate")):
            if node.args:
                self._flag(node.args[0], f"{func.id}()")
        elif isinstance(func, ast.Attribute) and func.attr == "join" and node.args:
            self._flag(node.args[0], "str.join()")
        if any(_is_builtin(self.ctx, func, name) for name in ORDER_NEUTRAL_BUILTINS):
            self._neutral_depth += 1
            self.generic_visit(node)
            self._neutral_depth -= 1
        else:
            self.generic_visit(node)


class BuiltinHashRule(DetRule):
    """DET004 — builtin ``hash()``.

    ``hash(str | bytes)`` is salted per process by ``PYTHONHASHSEED``;
    two runs of the same study disagree.  Stable hashing goes through
    :func:`repro.llm.rng.derive_seed` (SHA-256) instead.
    """

    def visit_Call(self, node: ast.Call) -> None:
        if _is_builtin(self.ctx, node.func, "hash"):
            self.report(
                node,
                "builtin hash() is salted per process (PYTHONHASHSEED) for "
                "str/bytes; use derive_seed(...) for a stable digest",
            )
        self.generic_visit(node)


class FilesystemOrderRule(DetRule):
    """DET005 — filesystem enumeration without ``sorted()``.

    ``os.listdir`` / ``glob`` / ``Path.iterdir`` order is
    filesystem-dependent (and differs across machines); any consumer
    that is not wrapped in ``sorted()`` is flagged.
    """

    _MODULE_FUNCS = frozenset(
        {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    )
    _PATH_METHODS = frozenset({"iterdir", "glob", "rglob"})

    def __init__(self, ctx, code) -> None:
        super().__init__(ctx, code)
        self._neutral_depth = 0

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.resolve(node.func)
        flagged = resolved in self._MODULE_FUNCS
        if not flagged and resolved is None:
            # Unresolvable receiver with a Path-enumeration method name:
            # a heuristic, but Path objects are the overwhelming case.
            flagged = (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._PATH_METHODS
            )
        if flagged and self._neutral_depth == 0:
            shown = resolved or node.func.attr
            self.report(
                node,
                f"{shown}() enumeration order is filesystem-dependent; wrap "
                "the call in sorted()",
            )
        if _is_builtin(self.ctx, node.func, "sorted"):
            self._neutral_depth += 1
            self.generic_visit(node)
            self._neutral_depth -= 1
        else:
            self.generic_visit(node)


class EnvironReadRule(DetRule):
    """DET006 — environment reads outside the config boundary.

    Ambient environment reads scattered through library code make a
    study's behaviour depend on invisible machine state.  All
    environment access funnels through :mod:`repro.core.config` (which
    turns it into explicit, logged configuration).
    """
    exempt_modules = ("repro.core.config",)

    _TARGETS = frozenset({"os.environ", "os.environb", "os.getenv"})

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.ctx.resolve(node) in self._TARGETS:
            self.report(
                node,
                "ambient environment read; route it through repro.core.config "
                "so the study config stays the single source of truth",
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # Catches `from os import environ, getenv` spellings.
        if self.ctx.resolve(node) in self._TARGETS:
            self.report(
                node,
                "ambient environment read; route it through repro.core.config "
                "so the study config stays the single source of truth",
            )


RULES = (
    Rule(
        "DET001",
        "ad-hoc RNG",
        "random.* call or random.Random(...) not seeded via derive_seed; "
        "use repro.llm.rng.derive_rng/derive_seed",
        GlobalRandomRule,
    ),
    Rule(
        "DET002",
        "wall clock",
        "time.time/monotonic or datetime.now/utcnow/today in library code; "
        "thread the StudyClock/config date instead",
        WallClockRule,
    ),
    Rule(
        "DET003",
        "set iteration order",
        "set literal/call iterated into ordered output without sorted(); "
        "wrap in sorted() or restructure to order-insensitive counting",
        SetOrderRule,
    ),
    Rule(
        "DET004",
        "builtin hash()",
        "hash() on str/bytes is PYTHONHASHSEED-salted; use "
        "derive_seed(...) for stable hashing",
        BuiltinHashRule,
    ),
    Rule(
        "DET005",
        "fs enumeration order",
        "os.listdir/glob/Path.iterdir without sorted(); directory order "
        "is filesystem-dependent",
        FilesystemOrderRule,
    ),
    Rule(
        "DET006",
        "ambient environ read",
        "os.environ/os.getenv outside repro.core.config; thread the value "
        "through StudyConfig",
        EnvironReadRule,
    ),
)


def run(index: ProjectIndex) -> tuple[list[Finding], None]:
    """Every DET finding over every indexed module (no graph)."""
    findings: list[Finding] = []
    for minfo in index.modules.values():
        for rule in RULES:
            if in_modules(minfo.module, rule.check.exempt_modules):
                continue
            visitor = rule.check(minfo.ctx, rule.code)
            visitor.visit(minfo.tree)
            findings.extend(visitor.findings)
    return findings, None
