"""``python -m repro lint``: one parse, four rule families, one baseline.

Every file under the analyzed paths is parsed once into a
:class:`~repro.devtools.common.index.ProjectIndex`, and the rule
families in :data:`FAMILIES` run over that one index:

=========  ==========  =============================================
namespace  ``--dump``  guards
=========  ==========  =============================================
detlint                every result is a pure function of the seed
                       and the config
conclint   callgraph   nothing a pool worker reaches mutates shared
                       state
locklint   lockgraph   the lock discipline of the serving tier
cachelint  cachegraph  cache invalidation by the index epoch
=========  ==========  =============================================

Each family's findings pass through its own pragma namespace
(``# <namespace>: ignore[...]`` and ``skip-file``); then one baseline,
``.lint-baseline.json``, grandfathers known debt.  Two codes belong to
the pass itself: ``LINT000``, a file that does not parse, and
``LINT001``, a file whose dotted module name an earlier file (in
sorted path order) already took — it is not analyzed, because the index
holds one module per name.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any, NamedTuple

from repro.devtools import cachelint, conclint, detlint, locklint
from repro.devtools.common.baseline import (
    apply_baseline,
    existing_reasons,
    load_baseline,
    write_baseline,
)
from repro.devtools.common.findings import Finding, Rule
from repro.devtools.common.index import ProjectIndex
from repro.devtools.common.pragmas import apply_waivers
from repro.devtools.common.report import (
    DEFAULT_PATHS,
    LintReport,
    iter_python_files,
)
from repro.devtools.common.reporters import render_json, render_text

__all__ = ["FAMILIES", "Family", "analyze", "main", "rules"]


class Family(NamedTuple):
    """One rule family."""

    #: Pragma namespace its waivers are spelled in.
    namespace: str
    #: ``--dump`` name of the graph ``run`` returns, if it returns one.
    graph: str | None
    rules: tuple[Rule, ...]
    #: The family's findings over the index, and its graph (or None).
    run: Callable[[ProjectIndex], tuple[list[Finding], Any]]


FAMILIES = (
    Family("detlint", None, detlint.RULES, detlint.run),
    Family("conclint", "callgraph", conclint.RULES, conclint.run),
    Family("locklint", "lockgraph", locklint.RULES, locklint.run),
    Family("cachelint", "cachegraph", cachelint.RULES, cachelint.run),
)


def rules() -> list[Rule]:
    """Every family's rule table, in family order."""
    return [rule for family in FAMILIES for rule in family.rules]


def analyze(
    paths: list[str | Path] | None = None,
    baseline: str | Path | None = None,
) -> LintReport:
    """Lint files/trees and apply the baseline; the main entry point.

    Raises :class:`FileNotFoundError` for a path that does not exist.
    """
    files = iter_python_files(list(paths or DEFAULT_PATHS))
    index = ProjectIndex.build(files)
    findings = [
        Finding(
            path=path,
            line=exc.lineno or 0,
            col=exc.offset or 0,
            rule="LINT000",
            message=f"file does not parse: {exc.msg}",
        )
        for path, exc in index.broken.items()
    ]
    findings += [
        Finding(
            path=path,
            line=1,
            col=0,
            rule="LINT001",
            message=f"module {index.by_path[taken_by].module} is already "
            f"analyzed from {taken_by}; this file was not analyzed",
        )
        for path, taken_by in index.duplicates.items()
    ]
    graphs = {}
    for family in FAMILIES:
        found, graph = family.run(index)
        pragmas = {
            path: minfo.pragmas[family.namespace]
            for path, minfo in index.by_path.items()
        }
        findings += apply_waivers(found, pragmas)
        if family.graph is not None:
            graphs[family.graph] = graph
    findings.sort()
    base_dir = Path(baseline).resolve().parent if baseline is not None else None
    findings = apply_baseline(findings, load_baseline(baseline), base_dir)
    return LintReport(findings=findings, files_checked=len(files), graphs=graphs)


def main(args: argparse.Namespace, out=None) -> int:
    """Run the parsed ``python -m repro lint`` command; its exit code."""
    out = out if out is not None else sys.stdout
    if args.list_rules:
        for rule in rules():
            print(f"{rule.code:<8}  {rule.title:<22} {rule.summary}", file=out)
        return 0

    try:
        report = analyze(
            args.paths, None if args.no_baseline else args.baseline
        )
    except FileNotFoundError as exc:
        print(f"lint: no such file or directory: {exc.filename}", file=sys.stderr)
        return 2

    if args.dump is not None:
        print(report.graphs[args.dump].to_json(), file=out)
        return 0

    if args.update_baseline:
        write_baseline(
            report.findings, args.baseline, reasons=existing_reasons(args.baseline)
        )
        print(
            f"baseline updated: {args.baseline} "
            f"({len([f for f in report.findings if not f.waived])} entries)",
            file=out,
        )
        return 0

    if args.format == "json":
        print(render_json(report), file=out)
    else:
        print(render_text(report, verbose=args.verbose), file=out)
    return report.exit_code
