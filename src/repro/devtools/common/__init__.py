"""Machinery shared by the four rule families (detlint, conclint,
locklint, cachelint) that ``python -m repro lint`` runs:

* :mod:`~repro.devtools.common.index` — the :class:`ProjectIndex` every
  file is parsed into once, and the typed receiver resolution built on
  it;
* :mod:`~repro.devtools.common.findings` — the :class:`Finding` record
  every rule produces and the :class:`Rule` row of every rule table;
* :mod:`~repro.devtools.common.pragmas` — ``# <family>: ignore[...]`` /
  ``skip-file`` waiver parsing, one namespace per family;
* :mod:`~repro.devtools.common.baseline` — the grandfathered-findings
  JSON baseline with mandatory reasons;
* :mod:`~repro.devtools.common.report` — :class:`LintReport` and
  deterministic file discovery;
* :mod:`~repro.devtools.common.reporters` — text and JSON rendering;
* :mod:`~repro.devtools.common.context` — per-module import-alias
  resolution (:class:`ModuleContext`).

The rule engines stay in their families' packages; nothing here knows
any rule code.
"""
