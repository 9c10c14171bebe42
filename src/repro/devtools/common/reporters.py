"""Text and JSON rendering of a :class:`LintReport`."""

from __future__ import annotations

import json

from repro.devtools.common.report import LintReport

__all__ = ["render_json", "render_text"]


def _status(finding) -> str:
    if finding.waived:
        return " (waived)"
    if finding.baselined:
        return " (baselined)"
    return ""


def render_text(report: LintReport, *, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary.

    Waived findings are hidden unless ``verbose``; baselined ones are
    always shown (they are debt, and debt should stay visible).
    """
    lines = []
    for finding in report.findings:
        if finding.waived and not verbose:
            continue
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.message}{_status(finding)}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    s = report.summary()
    lines.append(
        f"lint: {s['files']} files, {s['findings']} findings "
        f"({s['blocking']} blocking, {s['baselined']} baselined, "
        f"{s['waived']} waived)"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report for CI annotation tooling."""
    payload = {
        "summary": report.summary(),
        "findings": [f.to_dict() for f in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
