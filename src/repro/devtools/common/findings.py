"""The :class:`Finding` record every rule produces, and the :class:`Rule`
row every family's rule table is made of.

All four rule families report through this one dataclass so the
pragma, baseline and reporter machinery in :mod:`repro.devtools.common`
works identically for each of them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, NamedTuple

__all__ = ["Finding", "Rule"]


class Rule(NamedTuple):
    """One row of a family's rule table, run in table order."""

    code: str
    title: str
    summary: str
    #: The family's check for this rule; what it is called with is the
    #: family's business (a visitor class, or a function over a graph).
    check: Callable[..., Any]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Findings sort by location so reports (and the baseline file) are
    stable across runs regardless of rule execution order — the linters
    hold themselves to the determinism contract they enforce.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    #: The stripped source line, used both for display and as the
    #: line-number-independent identity that baseline entries match on.
    snippet: str = field(default="", compare=False)
    #: Last physical line of the flagged expression (pragmas anywhere in
    #: the statement's line range waive it).
    end_line: int = field(default=0, compare=False)
    #: First physical line of the enclosing *statement*.  A violation
    #: deep inside a multi-line statement is reported at its own line,
    #: but the natural place for the waiver comment is the line the
    #: statement starts on — pragma lookup honours both anchors.
    stmt_line: int = field(default=0, compare=False)
    #: Suppressed by an inline ``# <tool>: ignore[...]`` pragma.
    waived: bool = field(default=False, compare=False)
    #: Grandfathered by the checked-in baseline file.
    baselined: bool = field(default=False, compare=False)

    @property
    def blocking(self) -> bool:
        """Whether this finding should fail the lint run."""
        return not (self.waived or self.baselined)

    def key(self) -> str:
        """Line-number-independent identity used by the baseline.

        Keyed on (path, rule, snippet) rather than the line number so
        unrelated edits above a grandfathered site do not invalidate it.
        """
        return f"{self.path}::{self.rule}::{self.snippet}"

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
            "waived": self.waived,
            "baselined": self.baselined,
        }
