"""The five LOCK rules, evaluated over a :class:`LockGraph`.

Unlike detlint's per-file visitors, every rule here reads the completed
whole-program graph; the functions below turn graph facts into
:class:`~repro.devtools.common.findings.Finding` records anchored at the
source location that best explains each hazard.
"""

from __future__ import annotations

from repro.devtools.common.findings import Finding, Rule
from repro.devtools.common.index import ProjectIndex
from repro.devtools.locklint.lockgraph import (
    LockGraph,
    acquire_guarded,
    build_lockgraph,
)
from repro.devtools.locklint.sites import build_sites

__all__ = ["RULES", "run"]


def run(index: ProjectIndex) -> tuple[list[Finding], LockGraph]:
    """Every LOCK finding, and the lock graph the rules ran against."""
    graph = build_lockgraph(index, build_sites(index))
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule.check(graph, rule.code))
    return findings, graph


# ----------------------------------------------------------------------


def _lock001(graph: LockGraph, code: str) -> list[Finding]:
    """Every unordered site pair acquired in both orders, once each."""
    findings = []
    reported: set[tuple[str, str]] = set()
    for edge in graph.mutex_edges():
        pair = tuple(sorted((edge.outer, edge.inner)))
        if pair in reported:
            continue
        back = graph.find_path(edge.inner, edge.outer)
        if back is None:
            continue
        reported.add(pair)
        back_desc = "; ".join(
            f"{step.via} ({step.path}:{step.line})" for step in back
        )
        findings.append(
            graph.index.line_finding(
                edge.path,
                edge.line,
                code,
                f"lock-order cycle between {edge.outer} and {edge.inner}: "
                f"this path acquires {edge.inner} while holding "
                f"{edge.outer} [{edge.via}], but the reverse order also "
                f"occurs [{back_desc}]",
            )
        )
    return findings


def _lock002(graph: LockGraph, code: str) -> list[Finding]:
    findings = []
    for qualname in sorted(graph.summaries):
        summary = graph.summaries[qualname]
        path = graph.index.modules[summary.fn.module].path
        for line, held, desc in summary.blocking:
            if not held:
                continue
            findings.append(
                graph.index.line_finding(
                    path, line, code,
                    f"blocking operation ({desc}) while holding "
                    f"{', '.join(held)}",
                )
            )
        for line, held, targets in summary.calls:
            if not held:
                continue
            for target in targets:
                blocked = graph.blocked_star.get(target, {})
                for desc in sorted(blocked):
                    findings.append(
                        graph.index.line_finding(
                            path, line, code,
                            f"call to {target} can block ({desc}) while "
                            f"holding {', '.join(held)} "
                            f"[{blocked[desc]}]",
                        )
                    )
    return findings


def _lock003(graph: LockGraph, code: str) -> list[Finding]:
    findings = []
    for edge in graph.self_edges():
        site = graph.table.sites.get(edge.outer)
        if site is None or site.reentrant:
            continue
        findings.append(
            graph.index.line_finding(
                edge.path, edge.line, code,
                f"re-entrant acquisition of non-reentrant site "
                f"{site.name} (self-deadlock): {edge.via}",
            )
        )
    return findings


def _lock004(graph: LockGraph, code: str) -> list[Finding]:
    findings = []
    for qualname in sorted(graph.summaries):
        summary = graph.summaries[qualname]
        fn = summary.fn
        minfo = graph.index.modules[fn.module]
        for site_name, line in summary.acquire_calls:
            if acquire_guarded(
                fn, site_name, line, graph.table, minfo, graph.index
            ):
                continue
            findings.append(
                graph.index.line_finding(
                    minfo.path, line, code,
                    f"bare {site_name}.acquire() without a guaranteed "
                    f"release on exception paths — use `with`, or "
                    f"try/finally (or release in an except handler for "
                    f"handoff patterns)",
                )
            )
    return findings


def _lock005(graph: LockGraph, code: str) -> list[Finding]:
    findings = []
    for qualname in sorted(graph.summaries):
        summary = graph.summaries[qualname]
        path = graph.index.modules[summary.fn.module].path
        for site_name, line, in_loop in summary.waits:
            if in_loop:
                continue
            findings.append(
                graph.index.line_finding(
                    path, line, code,
                    f"{site_name}.wait() outside a `while predicate:` "
                    f"loop — spurious wakeups and stolen signals break "
                    f"the waited-for invariant",
                )
            )
    return findings


RULES = (
    Rule(
        "LOCK001",
        "lock-order cycle",
        "two lock sites are acquired in both orders on different paths "
        "(deadlock on an adversarial schedule)",
        _lock001,
    ),
    Rule(
        "LOCK002",
        "blocking call under lock",
        "a blocking operation (Event.wait, Future.result, Queue.get/put, "
        "sleep, subprocess/file I/O, Semaphore.acquire) is reachable "
        "while a lock is held",
        _lock002,
    ),
    Rule(
        "LOCK003",
        "re-entrant acquisition",
        "a non-reentrant lock site can be re-acquired while already held "
        "(self-deadlock)",
        _lock003,
    ),
    Rule(
        "LOCK004",
        "unbalanced acquire",
        "a bare .acquire() without a guaranteed .release() on exception "
        "paths (use `with`, or try/finally)",
        _lock004,
    ),
    Rule(
        "LOCK005",
        "wait outside predicate loop",
        "Condition.wait not wrapped in a `while predicate:` loop "
        "(spurious wakeups break the invariant)",
        _lock005,
    ),
)
