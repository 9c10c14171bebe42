"""Inline waiver pragmas.

Syntax, on (or anywhere within the line span of) the offending statement::

    rng = random.Random(seed)  # detlint: ignore[DET001] -- seed is an explicit API parameter

A bare ``# detlint: ignore`` waives every rule on that line; a
``# detlint: skip-file`` comment anywhere in the file skips it entirely.
Comments are extracted with :mod:`tokenize`, so pragma-shaped text inside
string literals is never mistaken for a waiver.

The pragma prefix names the rule family it waives: ``# conclint:
ignore[CONC002] -- reason`` works exactly like the detlint spelling, and
each family reads only its own namespace, so a detlint pragma never
waives a CONC finding on the same line.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field, replace

from repro.devtools.common.findings import Finding

__all__ = ["NAMESPACES", "Pragmas", "apply_waivers", "parse_pragmas"]

#: One pragma namespace per rule family.
NAMESPACES = ("detlint", "conclint", "locklint", "cachelint")

_PRAGMA_RE = re.compile(
    rf"#\s*(?P<namespace>{'|'.join(NAMESPACES)}):\s*(?P<kind>ignore|skip-file)"
    r"(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)

#: Sentinel meaning "waive every rule on this line".
ALL_RULES = "*"


@dataclass
class Pragmas:
    """Waivers parsed from one module's comments."""

    skip_file: bool = False
    #: line number -> set of waived rule codes (or ``{ALL_RULES}``).
    by_line: dict[int, frozenset[str]] = field(default_factory=dict)

    def waives(self, rule: str, first_line: int, last_line: int) -> bool:
        for line in range(first_line, max(first_line, last_line) + 1):
            codes = self.by_line.get(line)
            if codes is not None and (ALL_RULES in codes or rule in codes):
                return True
        return False

    def waives_finding(self, finding: Finding) -> bool:
        """Whether a pragma covers ``finding``.

        Both anchors count: any line in the flagged node's own span, and
        the first line of the enclosing statement — so a violation deep
        inside a multi-line statement can be waived on the line where
        the statement (and typically the reader's attention) starts.
        """
        if self.waives(finding.rule, finding.line, finding.end_line):
            return True
        return bool(finding.stmt_line) and self.waives(
            finding.rule, finding.stmt_line, finding.stmt_line
        )


def apply_waivers(
    findings: list[Finding], pragmas: dict[str, Pragmas]
) -> list[Finding]:
    """Mark pragma-covered findings as waived and drop every finding in
    a skip-file module; ``pragmas`` maps each module's path to its
    pragmas in the findings' family namespace."""
    kept = []
    for finding in findings:
        module_pragmas = pragmas[finding.path]
        if module_pragmas.skip_file:
            continue
        kept.append(
            replace(finding, waived=True)
            if module_pragmas.waives_finding(finding)
            else finding
        )
    return kept


def parse_pragmas(source: str) -> dict[str, Pragmas]:
    """Every namespace's waivers, from one pass over the comments.

    Within one comment each namespace honours its first pragma only.
    """
    found = {namespace: Pragmas() for namespace in NAMESPACES}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return found
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        seen: set[str] = set()
        for match in _PRAGMA_RE.finditer(token.string):
            namespace = match.group("namespace")
            if namespace in seen:
                continue
            seen.add(namespace)
            pragmas = found[namespace]
            if match.group("kind") == "skip-file":
                pragmas.skip_file = True
                continue
            raw_codes = match.group("codes")
            codes = (
                frozenset(c.strip() for c in raw_codes.split(",") if c.strip())
                if raw_codes
                else frozenset({ALL_RULES})
            )
            line = token.start[0]
            existing = pragmas.by_line.get(line, frozenset())
            pragmas.by_line[line] = existing | codes
    return found
