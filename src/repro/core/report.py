"""Rendering experiment results as the paper's rows and series.

Each ``render_*`` function takes a result object from
:class:`repro.core.study.ComparativeStudy` and returns the text table or
series the corresponding paper artifact shows, so a benchmark run prints
directly comparable output.
"""

from __future__ import annotations

from repro.analysis.freshness import FreshnessReport
from repro.analysis.overlap import OverlapReport
from repro.analysis.typology import TypologyReport
from repro.core.study import (
    ComparativeStudy,
    Fig2Result,
    Fig4Result,
    Table1Result,
    Table2Result,
    Table3Result,
)
from repro.engines.registry import AI_ENGINE_NAMES
from repro.stats.mannwhitney import mann_whitney_u
from repro.entities.intents import Intent
from repro.webgraph.domains import SourceType

__all__ = [
    "render_fig1",
    "render_fig2",
    "render_fig3",
    "render_fig4",
    "render_resilience_annotations",
    "render_serve_stats",
    "render_stats",
    "render_table1",
    "render_table2",
    "render_table3",
]


def _pct(value: float) -> str:
    return f"{100.0 * value:5.1f}%"


def render_fig1(report: OverlapReport) -> str:
    """Figure 1: AI-vs-Google domain overlap over ranking queries."""
    lines = [
        "Figure 1 — AI-vs-Google Domain Overlap over Ranking Queries",
        f"  ({report.query_count} queries; baseline: {report.baseline} top-10)",
    ]
    for system in AI_ENGINE_NAMES:
        if system in report.mean_overlap:
            lines.append(f"  {system:<11} {_pct(report.mean_overlap[system])}")
    lines.append(f"  cross-model overlap: {_pct(report.cross_model_overlap)}")
    lines.append(f"  unique-domain ratio: {_pct(report.unique_domain_ratio)}")
    return "\n".join(lines)


def render_fig2(result: Fig2Result) -> str:
    """Figure 2: overlap on popular and niche entity-comparison queries."""
    lines = [
        "Figure 2 — AI-vs-Google & Gemini Domain Overlap on Popular and Niche Entities",
        f"  {'system':<11} {'vs Google pop':>13} {'vs Google nic':>13} "
        f"{'vs Gemini pop':>13} {'vs Gemini nic':>13}",
    ]
    for system in AI_ENGINE_NAMES:
        cells = []
        for report in (
            result.vs_google_popular,
            result.vs_google_niche,
            result.vs_gemini_popular,
            result.vs_gemini_niche,
        ):
            cells.append(
                _pct(report.mean_overlap[system])
                if system in report.mean_overlap
                else "    —"
            )
        lines.append(f"  {system:<11} " + " ".join(f"{c:>13}" for c in cells))
    lines.append(
        "  unique-domain ratio: popular "
        + _pct(result.vs_google_popular.unique_domain_ratio)
        + " -> niche "
        + _pct(result.vs_google_niche.unique_domain_ratio)
    )
    lines.append(
        "  cross-model overlap: popular "
        + _pct(result.vs_google_popular.cross_model_overlap)
        + " -> niche "
        + _pct(result.vs_google_niche.cross_model_overlap)
    )
    return "\n".join(lines)


def render_fig3(report: TypologyReport) -> str:
    """Figure 3: source category distribution by intent and model."""
    order = [t for t in (SourceType.EARNED, SourceType.SOCIAL, SourceType.BRAND)]
    lines = [
        "Figure 3 — Source category distribution by intent and model",
        f"  {'system':<11} " + " ".join(f"{t.value:>7}" for t in order) + "   (aggregate)",
    ]
    for system in report.systems:
        shares = report.overall[system]
        lines.append(
            f"  {system:<11} " + " ".join(_pct(shares[t]) for t in order)
        )
    for intent in Intent:
        lines.append(f"  -- {intent.value} --")
        for system in report.systems:
            shares = report.by_intent[intent][system]
            lines.append(
                f"  {system:<11} " + " ".join(_pct(shares[t]) for t in order)
            )
    return "\n".join(lines)


def _render_freshness(report: FreshnessReport, label: str) -> list[str]:
    lines = [f"  -- {label} --"]
    for engine, age in sorted(report.median_age_days.items(), key=lambda kv: kv[1]):
        summary = report.age_summary.get(engine)
        spread = (
            f"  (p25 {summary.p25:6.0f}  p75 {summary.p75:6.0f}  n={summary.count})"
            if summary
            else ""
        )
        significance = ""
        google_ages = report.ages.get("Google", [])
        engine_ages = report.ages.get(engine, [])
        if engine != "Google" and len(google_ages) >= 8 and len(engine_ages) >= 8:
            try:
                test = mann_whitney_u(engine_ages, google_ages)
            except ValueError:
                pass
            else:
                marker = "*" if test.significant() else " "
                significance = f"  vs Google p={test.p_value:.3g}{marker}"
        lines.append(f"  {engine:<11} median {age:6.0f} days{spread}{significance}")
    return lines


def render_fig4(result: Fig4Result) -> str:
    """Figure 4 / Section 2.3: article ages and domain concentration."""
    lines = ["Figure 4 — Article age in days by engine and vertical"]
    lines.extend(_render_freshness(result.electronics, "Consumer Electronics"))
    lines.extend(_render_freshness(result.automotive, "Automotive"))
    lines.append("Section 2.3 — Domain concentration (HHI; top cited domains)")
    for report in (result.electronics_concentration, result.automotive_concentration):
        lines.append(f"  -- {report.vertical_group} --")
        for engine, hhi in report.ordered_by_concentration():
            profile = report.engines[engine]
            leaders = ", ".join(d for d, __ in profile.top_domains[:4])
            lines.append(
                f"  {engine:<11} HHI {hhi:.3f}  "
                f"({profile.distinct_domains} domains)  top: {leaders}"
            )
    return "\n".join(lines)


def render_table1(result: Table1Result) -> str:
    """Table 1: SS and ESI perturbation sensitivity."""
    lines = [
        "Table 1 — Snippet Shuffle (SS) and ESI perturbations",
        f"  {'Setting':<18} {'SS (Normal)':>12} {'SS (Strict)':>12} {'ESI':>8}",
    ]
    for setting in ("popular", "niche"):
        lines.append(
            f"  {setting.title() + ' Entities':<18} "
            f"{result.ss_normal[setting]:>12.2f} "
            f"{result.ss_strict[setting]:>12.2f} "
            f"{result.esi[setting]:>8.2f}"
        )
    return "\n".join(lines)


def render_table2(result: Table2Result) -> str:
    """Table 2: Kendall tau between holistic and pairwise rankings."""
    lines = [
        "Table 2 — Kendall tau between one-shot R and pairwise-derived R'",
        f"  {'Setting':<18} {'tau (Normal)':>13} {'tau (Strict)':>13}",
    ]
    for setting in ("popular", "niche"):
        lines.append(
            f"  {setting.title() + ' Entities':<18} "
            f"{result.tau_normal[setting]:>13.3f} "
            f"{result.tau_strict[setting]:>13.3f}"
        )
    return "\n".join(lines)


def render_stats(study: "ComparativeStudy") -> str:
    """Execution statistics for one study: phases, pools, caches.

    Rendered by ``python -m repro run --stats``; covers the runner's
    per-phase wall time and query counts, each engine's memo-cache
    hits/misses (as observed in this process — forked pool workers keep
    their own short-lived copies), and the world's evidence cache.
    """
    stats = study.runner.stats
    effective = ""
    if stats.effective_executor and stats.effective_executor != stats.executor:
        # The pool degraded (e.g. no fork support -> threads); make the
        # substitution visible next to what was requested.
        effective = f" (effective: {stats.effective_executor})"
    lines = [
        "Run statistics",
        f"  runner: workers={stats.workers} executor={stats.executor}{effective}",
        f"  {'phase':<12} {'wall s':>8} {'queries':>9} {'pool tasks':>11}",
    ]
    for phase in stats.phases.values():
        lines.append(
            f"  {phase.label:<12} {phase.seconds:>8.2f} "
            f"{phase.queries:>9} {phase.pool_tasks:>11}"
        )
    lines.append(
        f"  {'total':<12} {stats.total_seconds:>8.2f} {stats.total_queries:>9}"
    )
    lines.append("  engine memo caches (this process):")
    for name, engine in study.world.engines.items():
        hits, misses = engine.cache_stats()
        lines.append(f"    {name:<11} hits {hits:>6}  misses {misses:>6}")
    evidence_stats = study.world.evidence_cache.counters()
    lines.append(
        f"  evidence cache: {evidence_stats.size} contexts, "
        f"{evidence_stats.hits} hits / {evidence_stats.misses} misses "
        f"(hit rate {100.0 * evidence_stats.hit_rate:.0f}%)"
    )
    search_engine = study.world.search_engine
    query_stats = search_engine.query_cache_stats()
    lines.append(
        f"  query cache: {query_stats.size} entries, "
        f"{query_stats.hits} hits / {query_stats.misses} misses "
        f"(hit rate {100.0 * query_stats.hit_rate:.0f}%)"
    )
    snippet_stats = search_engine.snippet_cache.counters()
    lines.append(
        f"  snippet cache: {snippet_stats.size} pages, "
        f"{snippet_stats.hits} hits / {snippet_stats.misses} misses "
        f"(hit rate {100.0 * snippet_stats.hit_rate:.0f}%)"
    )
    ctx = study.world.resilience
    if ctx is not None:
        lines.append(
            f"  resilience: plan seed={ctx.config.plan.seed} "
            f"specs={len(ctx.config.plan.specs)} "
            f"sim clock={ctx.clock.now():.2f}s"
        )
        events = stats.resilience_events or ctx.events.snapshot()
        for name in sorted(events):
            lines.append(f"    {name:<22} {events[name]:>6}")
        if not events:
            lines.append("    (no resilience events)")
        quarantined = ctx.quarantine.count("quarantined")
        degraded = ctx.quarantine.count("degraded")
        if quarantined or degraded:
            lines.append(
                f"    quarantine registry: {quarantined} quarantined, "
                f"{degraded} degraded"
            )
    if stats.journal_replays:
        lines.append(f"  journal: {stats.journal_replays} chunks replayed")
    return "\n".join(lines)


def render_serve_stats(snapshot) -> str:
    """One serve run's accounting, paper-report style.

    Takes a :class:`~repro.serve.stats.ServeSnapshot` (or anything
    shaped like one).  The hit/coalesce/miss split is the serving
    tier's headline: misses are the only requests that computed, hits
    were already memoized, and coalesced requests piggybacked on an
    in-flight duplicate — together they are the work the tier absorbed.
    """
    outcomes = snapshot.outcomes
    lines = [
        "Serving statistics",
        f"  requests: {snapshot.requests} over {snapshot.sim_seconds:.1f} "
        f"simulated s ({snapshot.wall_seconds:.2f} wall s, "
        f"{snapshot.throughput_rps:.0f} req/s)",
        f"  outcomes: hit {outcomes['hit']}  coalesced "
        f"{outcomes['coalesced']}  miss {outcomes['miss']}  shed "
        f"{outcomes['shed']}  degraded {outcomes['degraded']}  partial "
        f"{outcomes.get('partial', 0)}",
        f"  duplicate absorption: "
        f"{100.0 * snapshot.duplicate_absorption:.1f}% of answered "
        "requests served without a computation",
        f"  admission waits: {snapshot.admission_waits}",
        f"  service latency: p50 {snapshot.service.p50_ms:.2f} ms  "
        f"p90 {snapshot.service.p90_ms:.2f} ms  "
        f"p99 {snapshot.service.p99_ms:.2f} ms  "
        f"max {snapshot.service.max_ms:.2f} ms",
        f"  queue delay: p50 {snapshot.queue_delay.p50_ms:.2f} ms  "
        f"p99 {snapshot.queue_delay.p99_ms:.2f} ms",
    ]
    return "\n".join(lines)


def render_resilience_annotations(resilience, phase: str) -> str:
    """Per-cell provenance footnote for one experiment's lost data.

    Empty string when the phase quarantined nothing — appending the
    annotation must not perturb a clean run's rendered output.  Records
    are sorted (engine, key, site) for deterministic rendering and
    capped, with an explicit remainder count, so a pathological plan
    cannot swamp the table it annotates.
    """
    records = resilience.quarantine.records(phase)
    if not records:
        return ""
    cap = 20
    ordered = sorted(records, key=lambda r: (r.engine, r.key, r.site))
    lines = [
        f"  ! {len(ordered)} cell(s) degraded by failures "
        f"(values above may rest on partial data):"
    ]
    for record in ordered[:cap]:
        lines.append(
            f"    {record.kind}: engine={record.engine} query={record.key} "
            f"site={record.site} attempts={record.attempts} ({record.reason})"
        )
    if len(ordered) > cap:
        lines.append(f"    ... and {len(ordered) - cap} more")
    return "\n".join(lines)


def render_table3(result: Table3Result) -> str:
    """Table 3: representative citation-miss rates (SUV queries)."""
    names = list(result.representative)
    lines = [
        "Table 3 — Representative citation-miss rates (SUV queries)",
        "  Entity    " + " ".join(f"{n:>10}" for n in names),
        "  Miss Rate " + " ".join(f"{result.representative[n]:>10.2f}" for n in names),
        f"  overall miss rate: {result.overall_miss_rate:.2f}",
    ]
    return "\n".join(lines)
