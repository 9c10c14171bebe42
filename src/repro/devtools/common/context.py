"""Per-module lint context: source, dotted module name, import aliases.

The rules never inspect raw AST names directly — they ask the context to
*resolve* an expression to a canonical dotted path (``random.Random``,
``datetime.datetime.now``, ``repro.llm.rng.derive_seed``), which makes
``import random as _random`` and ``from random import Random as R``
indistinguishable from the plain spellings.  Every rule family resolves
through this one table.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["ModuleContext", "collect_imports", "in_modules", "module_name_for"]


def in_modules(module: str, prefixes: tuple[str, ...]) -> bool:
    """Whether a dotted name is one of ``prefixes`` or lies inside one."""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def module_name_for(path_parts: tuple[str, ...]) -> str:
    """Dotted module name from a file path's parts.

    The name is rooted at the *last* ``repro`` component so both
    ``src/repro/llm/rng.py`` and an installed ``.../site-packages/repro/
    llm/rng.py`` resolve to ``repro.llm.rng``.  Files outside a ``repro``
    tree (test fixtures, scratch scripts) fall back to their bare stem.
    """
    parts = list(path_parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__" and len(parts) > 1:
        parts.pop()
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[anchor:])
    return parts[-1] if parts else ""


def collect_imports(tree: ast.Module, module: str) -> dict[str, str]:
    """Map every locally bound import name to its canonical dotted path."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: climb from the current package.
                package = module.split(".")
                package = package[: len(package) - node.level]
                base = ".".join(package + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


@dataclass
class ModuleContext:
    """Everything a rule needs to know about the module being linted."""

    path: str
    module: str
    source_lines: list[str] = field(default_factory=list)
    imports: dict[str, str] = field(default_factory=dict)

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted path of a Name/Attribute chain, if known.

        Returns ``None`` when the chain is not rooted in an imported name
        (e.g. a method call on a local variable) — rules must treat that
        as "unknown receiver" and stay silent rather than guess.
        """
        chain: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.imports.get(current.id)
        if root is None:
            return None
        return ".".join([root, *reversed(chain)])

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""
