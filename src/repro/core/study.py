"""ComparativeStudy: one method per paper table/figure.

Each method builds its workload from the study config, runs the systems,
and returns a typed result object.  The benchmark harness and the
experiment registry are thin wrappers over these methods.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.analysis.citations import CitationMissReport, citation_miss_rates
from repro.analysis.concentration import ConcentrationReport, domain_concentration
from repro.analysis.freshness import FreshnessReport, freshness_by_engine
from repro.analysis.overlap import OverlapReport, domain_overlap
from repro.analysis.pairwise import pairwise_consistency
from repro.analysis.perturbations import PerturbationKind, sensitivity
from repro.analysis.typology import TypologyReport, typology_by_intent
from repro.core.runner import StudyRunner
from repro.core.world import World
from repro.engines.base import Answer
from repro.engines.generative import context_from_pages
from repro.engines.retrieval import SourcingPolicy
from repro.entities.queries import (
    PopularityClass,
    Query,
    comparison_queries,
    intent_queries,
    ranking_queries,
)
from repro.entities.verticals import (
    AUTOMOTIVE_VERTICALS,
    CONSUMER_TOPICS,
    ELECTRONICS_VERTICALS,
    NICHE_VERTICALS,
)
from repro.llm.context import ContextWindow
from repro.llm.model import GroundingMode, RankedAnswer
from repro.resilience.faults import ResilienceExhausted
from repro.resilience.quarantine import QuarantineRecord

__all__ = [
    "ComparativeStudy",
    "Fig2Result",
    "Fig4Result",
    "Table1Result",
    "Table2Result",
    "Table3Result",
]


@dataclass(frozen=True)
class Fig2Result:
    """Figure 2: overlap on popular vs niche comparison queries."""

    vs_google_popular: OverlapReport
    vs_google_niche: OverlapReport
    vs_gemini_popular: OverlapReport
    vs_gemini_niche: OverlapReport

    def overlap_shift(self, system: str) -> float:
        """Niche-minus-popular overlap change vs Google (percentage points
        as a fraction)."""
        return (
            self.vs_google_niche.mean_overlap[system]
            - self.vs_google_popular.mean_overlap[system]
        )


@dataclass(frozen=True)
class Fig4Result:
    """Figure 4 / Section 2.3: ages and domain concentration per vertical."""

    electronics: FreshnessReport
    automotive: FreshnessReport
    electronics_concentration: ConcentrationReport
    automotive_concentration: ConcentrationReport


@dataclass(frozen=True)
class Table1Result:
    """Table 1: Delta_avg per (setting, cell)."""

    ss_normal: dict[str, float]   # "popular"/"niche" -> Delta_avg
    ss_strict: dict[str, float]
    esi: dict[str, float]


@dataclass(frozen=True)
class Table2Result:
    """Table 2: Kendall tau per (setting, grounding)."""

    tau_normal: dict[str, float]
    tau_strict: dict[str, float]


@dataclass(frozen=True)
class Table3Result:
    """Table 3 + surrounding text: citation-miss statistics."""

    report: CitationMissReport
    representative: dict[str, float]  # display name -> miss rate
    overall_miss_rate: float


def _mean(values: Sequence[float]) -> float:
    """Mean of a result cell; NaN when every query was filtered out.

    Tiny workloads (or strict filters) can empty a setting's cell —
    e.g. every query lost its context or had fewer than two candidates.
    The paper's tables simply have no number there, so the aggregation
    reports NaN instead of dividing by zero.
    """
    return sum(values) / len(values) if values else float("nan")


class ComparativeStudy:
    """Runs the paper's experiments against a :class:`World`.

    ``runner`` controls execution strategy (worker pools); it defaults
    to a :class:`StudyRunner` built from the world's config, which is
    sequential at ``workers=1``.  Results are identical for any runner.
    """

    def __init__(self, world: World, runner: StudyRunner | None = None) -> None:
        self._world = world
        self._runner = runner if runner is not None else StudyRunner(world)

    @property
    def world(self) -> World:
        return self._world

    @property
    def runner(self) -> StudyRunner:
        return self._runner

    # ------------------------------------------------------------------
    # Shared helpers

    def _answers(self, queries: Sequence[Query]) -> dict[str, list[Answer]]:
        return self._runner.answers(queries)

    #: The evidence-retrieval behaviour of "gpt-4o-search-preview with web
    #: search enabled" (Section 3.1): a relevance-dominant search tool with
    #: only mild persona shaping — it fetches what matches, not what the
    #: answering model would editorially prefer.
    EVIDENCE_POLICY = SourcingPolicy(
        earned_affinity=0.15,
        brand_affinity=0.05,
        social_affinity=0.1,
        retailer_affinity=0.0,
        freshness_weight=0.15,
        freshness_half_life_days=180.0,
        authority_weight=0.1,
        quality_weight=0.1,
        relevance_weight=1.0,
        familiarity_pull=0.1,
        candidate_pool=40,
        citations_per_answer=10,
        max_per_domain=2,
        selection_jitter=0.1,
    )

    def _evidence_context(self, query: Query, depth: int = 10) -> ContextWindow:
        """Retrieve the Section 3.1 evidence ``D_q`` for one query.

        Memoized on the world's evidence cache: retrieval depends on
        the query text, the (depth-carrying) policy and the state of
        the index it searches, so the key is (text, policy, index
        epoch) — Tables 1, 2 and 3 run against a shared world without
        ever retrieving the same context twice, and index growth moves
        every key instead of serving stale evidence.
        """
        policy = replace(self.EVIDENCE_POLICY, citations_per_answer=depth)
        key = (query.text, policy, self._world.search_engine.index.epoch)
        ctx = self._world.resilience

        def retrieve() -> ContextWindow:
            # The impl entry point, not select_sources: evidence
            # retrieval has its own fault site ("evidence.context",
            # below), and nesting the engine-side
            # "retrieval.select_sources" site inside it would run two
            # retry ladders over one operation.
            pages = self._world.retriever._select_sources_impl(query.text, policy)
            return context_from_pages(
                pages,
                query.text,
                snippet_cache=self._world.search_engine.snippet_cache,
            )

        try:
            if ctx is None:
                return self._world.evidence_cache.get_or_compute(key, retrieve)
            # Behind the "evidence.context" fault site, keyed like the
            # cache.
            return self._world.evidence_cache.get_or_compute(
                key, lambda: ctx.call("evidence.context", key, retrieve)
            )
        except ResilienceExhausted as exc:
            # Graceful degradation: an exhausted evidence retrieval
            # empties this query's context, so the table loops skip the
            # query and the affected cell aggregates to an annotated
            # NaN instead of killing the run.  The quarantine record
            # preserves which cell lost data and why.
            if ctx is None or ctx.config.fail_fast:
                raise
            ctx.events.bump("evidence_quarantines")
            ctx.quarantine.record(
                QuarantineRecord(
                    phase=ctx.current_phase,
                    site=exc.site,
                    engine="evidence",
                    key=query.id,
                    attempts=exc.attempts,
                    reason=exc.reason,
                )
            )
            return ContextWindow([])

    def _perturbation_queries(self) -> dict[str, list[Query]]:
        sizes = self._world.config.sizes
        seed = self._world.config.seed
        popular = ranking_queries(
            self._world.catalog,
            verticals=("suvs", "electric_cars", "smartphones", "laptops", "airlines"),
            count=sizes.perturbation_queries,
            seed=seed + 31,
            id_prefix="pq-pop",
        )
        niche = ranking_queries(
            self._world.catalog,
            verticals=NICHE_VERTICALS,
            count=sizes.perturbation_queries,
            seed=seed + 32,
            niche_entities=True,
            id_prefix="pq-nic",
        )
        return {"popular": popular, "niche": niche}

    # ------------------------------------------------------------------
    # Figure 1

    def domain_overlap_ranking(self) -> OverlapReport:
        """Figure 1: AI-vs-Google overlap over ranking queries."""
        queries = ranking_queries(
            self._world.catalog,
            verticals=CONSUMER_TOPICS,
            count=self._world.config.sizes.ranking_queries,
            seed=self._world.config.seed + 11,
        )
        return domain_overlap(self._answers(queries))

    # ------------------------------------------------------------------
    # Figure 2

    def domain_overlap_popular_niche(self) -> Fig2Result:
        """Figure 2: overlap on popular vs niche comparison queries."""
        sizes = self._world.config.sizes
        queries = comparison_queries(
            self._world.catalog,
            n_popular=sizes.comparison_popular,
            n_niche=sizes.comparison_niche,
            seed=self._world.config.seed + 12,
            niche_verticals=NICHE_VERTICALS,
        )
        answers = self._answers(queries)

        def subset(cls: PopularityClass) -> dict[str, list[Answer]]:
            keep = [i for i, q in enumerate(queries) if q.popularity_class is cls]
            return {
                name: [system_answers[i] for i in keep]
                for name, system_answers in answers.items()
            }

        popular, niche = subset(PopularityClass.POPULAR), subset(PopularityClass.NICHE)
        return Fig2Result(
            vs_google_popular=domain_overlap(popular, baseline="Google"),
            vs_google_niche=domain_overlap(niche, baseline="Google"),
            vs_gemini_popular=domain_overlap(popular, baseline="Gemini"),
            vs_gemini_niche=domain_overlap(niche, baseline="Gemini"),
        )

    # ------------------------------------------------------------------
    # Figure 3

    def source_typology(self) -> TypologyReport:
        """Figure 3: source composition by intent and system."""
        queries = intent_queries(
            self._world.catalog,
            verticals=ELECTRONICS_VERTICALS,
            count=self._world.config.sizes.intent_queries,
            seed=self._world.config.seed + 13,
        )
        return typology_by_intent(self._answers(queries), queries)

    # ------------------------------------------------------------------
    # Figure 4

    def freshness(self) -> Fig4Result:
        """Figure 4 / Section 2.3: ages and concentration per vertical."""
        sizes = self._world.config.sizes
        electronics_queries = ranking_queries(
            self._world.catalog,
            verticals=ELECTRONICS_VERTICALS,
            count=sizes.freshness_queries_per_vertical,
            seed=self._world.config.seed + 14,
            id_prefix="fq-ce",
        )
        automotive_queries = ranking_queries(
            self._world.catalog,
            verticals=AUTOMOTIVE_VERTICALS,
            count=sizes.freshness_queries_per_vertical,
            seed=self._world.config.seed + 15,
            id_prefix="fq-au",
        )
        clock = self._world.corpus.clock
        electronics_answers = self._answers(electronics_queries)
        automotive_answers = self._answers(automotive_queries)
        return Fig4Result(
            electronics=freshness_by_engine(
                electronics_answers, clock, "consumer_electronics"
            ),
            automotive=freshness_by_engine(
                automotive_answers, clock, "automotive"
            ),
            electronics_concentration=domain_concentration(
                electronics_answers, "consumer_electronics"
            ),
            automotive_concentration=domain_concentration(
                automotive_answers, "automotive"
            ),
        )

    # ------------------------------------------------------------------
    # Table 1

    def perturbation_sensitivity(self) -> Table1Result:
        """Table 1: SS and ESI Delta_avg for popular and niche entities."""
        runs = self._world.config.sizes.perturbation_runs
        llm = self._world.reference_llm
        catalog = self._world.catalog
        workloads = self._perturbation_queries()

        ss_normal: dict[str, float] = {}
        ss_strict: dict[str, float] = {}
        esi: dict[str, float] = {}
        for setting, queries in workloads.items():
            cells: dict[str, list[float]] = {"ssn": [], "sss": [], "esi": []}
            for query in queries:
                context = self._evidence_context(query)
                candidates = list(query.entities)
                if len(candidates) < 2 or len(context) == 0:
                    continue
                common = dict(
                    llm=llm, query=query.text, candidates=candidates,
                    context=context, runs=runs, seed=self._world.config.seed,
                )
                cells["ssn"].append(
                    sensitivity(
                        kind=PerturbationKind.SNIPPET_SHUFFLE,
                        mode=GroundingMode.NORMAL,
                        **common,
                    ).delta_avg
                )
                cells["sss"].append(
                    sensitivity(
                        kind=PerturbationKind.SNIPPET_SHUFFLE,
                        mode=GroundingMode.STRICT,
                        **common,
                    ).delta_avg
                )
                cells["esi"].append(
                    sensitivity(
                        kind=PerturbationKind.ENTITY_SWAP,
                        mode=GroundingMode.NORMAL,
                        catalog=catalog,
                        **common,
                    ).delta_avg
                )
            ss_normal[setting] = _mean(cells["ssn"])
            ss_strict[setting] = _mean(cells["sss"])
            esi[setting] = _mean(cells["esi"])
        return Table1Result(ss_normal=ss_normal, ss_strict=ss_strict, esi=esi)

    # ------------------------------------------------------------------
    # Table 2

    def pairwise_agreement(self) -> Table2Result:
        """Table 2: Kendall tau between holistic and pairwise rankings."""
        llm = self._world.reference_llm
        sizes = self._world.config.sizes
        workloads = self._perturbation_queries()

        tau_normal: dict[str, float] = {}
        tau_strict: dict[str, float] = {}
        for setting, queries in workloads.items():
            taus_n, taus_s = [], []
            for query in queries[: sizes.pairwise_queries]:
                context = self._evidence_context(query)
                candidates = list(query.entities)
                if len(candidates) < 2 or len(context) == 0:
                    continue
                taus_n.append(
                    pairwise_consistency(
                        llm, query.text, candidates, context, GroundingMode.NORMAL
                    ).tau
                )
                taus_s.append(
                    pairwise_consistency(
                        llm, query.text, candidates, context, GroundingMode.STRICT
                    ).tau
                )
            tau_normal[setting] = _mean(taus_n)
            tau_strict[setting] = _mean(taus_s)
        return Table2Result(tau_normal=tau_normal, tau_strict=tau_strict)

    # ------------------------------------------------------------------
    # Table 3

    # The makes Table 3 reports, in the paper's column order.
    TABLE3_ENTITIES = (
        ("Toyota", "suvs:toyota"),
        ("Honda", "suvs:honda"),
        ("Kia", "suvs:kia"),
        ("Chevrolet", "suvs:chevrolet"),
        ("Cadillac", "suvs:cadillac"),
        ("Infiniti", "suvs:infiniti"),
    )

    def citation_misses(self) -> Table3Result:
        """Table 3: representative citation-miss rates on SUV queries."""
        sizes = self._world.config.sizes
        llm = self._world.reference_llm
        queries = ranking_queries(
            self._world.catalog,
            verticals=("suvs",),
            count=sizes.citation_queries,
            seed=self._world.config.seed + 16,
            id_prefix="t3",
        )
        candidates = [e.id for e in self._world.catalog.in_vertical("suvs")]
        answers: list[RankedAnswer] = []
        for query in queries:
            context = self._evidence_context(query)
            answers.append(
                llm.rank_entities(
                    query.text, candidates, context,
                    mode=GroundingMode.NORMAL, top_k=10,
                )
            )
        report = citation_miss_rates(answers)
        representative = {
            name: report.miss_rate.get(entity_id, 0.0)
            for name, entity_id in self.TABLE3_ENTITIES
        }
        return Table3Result(
            report=report,
            representative=representative,
            overall_miss_rate=report.overall_miss_rate,
        )
