"""World assembly: everything the experiments need, from one seed.

A :class:`World` bundles the synthetic web (corpus + registry), the
entity catalog, the Google stand-in, the engine fleet, and a reference
LLM (the "gpt-4o with deterministic settings" of Section 3.1).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import StudyConfig
from repro.core.runner import EvidenceCache
from repro.engines.base import AnswerEngine
from repro.engines.registry import build_engines
from repro.engines.retrieval import Retriever
from repro.entities.catalog import EntityCatalog, build_default_catalog
from repro.llm.model import LLMConfig, SimulatedLLM
from repro.llm.pretraining import PretrainedKnowledge
from repro.llm.rng import derive_seed
from repro.resilience.context import ResilienceContext
from repro.search.engine import SearchEngine
from repro.search.sharding import ShardedSearchEngine
from repro.webgraph.corpus import Corpus, CorpusConfig, CorpusGenerator
from repro.webgraph.domains import DomainRegistry, build_default_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.loop import ServeLoop

__all__ = ["World"]

_log = logging.getLogger(__name__)


@dataclass
class World:
    """A fully assembled study environment."""

    config: StudyConfig
    catalog: EntityCatalog
    registry: DomainRegistry
    corpus: Corpus
    search_engine: SearchEngine
    engines: dict[str, AnswerEngine]
    retriever: Retriever
    reference_llm: SimulatedLLM = field(repr=False)
    #: Shared memo for Section 3.1 evidence contexts: every experiment
    #: run against this world retrieves each (query, depth) context at
    #: most once (see :class:`repro.core.runner.EvidenceCache`).
    evidence_cache: EvidenceCache = field(default_factory=EvidenceCache, repr=False)
    #: Optional resilience context (fault injection + retry/breaker/
    #: quarantine machinery).  ``None`` — the default — leaves every
    #: execution path byte-identical to a world without the layer;
    #: install via :meth:`install_resilience`.
    resilience: "ResilienceContext | None" = field(default=None, repr=False)

    @classmethod
    def build(cls, config: StudyConfig | None = None) -> "World":
        """Assemble a world from a config (defaults to ``StudyConfig()``)."""
        config = config or StudyConfig()
        catalog = build_default_catalog()
        registry = build_default_registry()
        corpus_config = CorpusConfig(
            seed=config.seed,
            pages_per_volume_unit=2.0 * config.corpus_scale,
            study_date=config.study_date,
        )
        started = time.perf_counter()  # detlint: ignore[DET002] -- build-log timing, not part of results
        corpus = CorpusGenerator(registry, catalog, corpus_config).generate()
        _log.info(
            "corpus generated: %d pages, %d domains, %d link edges (%.2fs)",
            len(corpus), len(corpus.domains()), corpus.link_graph.edge_count(),
            time.perf_counter() - started,  # detlint: ignore[DET002]
        )
        return cls.assemble(config, catalog, registry, corpus)

    @classmethod
    def assemble(
        cls,
        config: StudyConfig,
        catalog: EntityCatalog,
        registry: DomainRegistry,
        corpus: Corpus,
    ) -> "World":
        """Assemble a world around an explicit corpus.

        Used by :mod:`repro.aeo.interventions` to rebuild the ecosystem
        after injecting synthetic content; :meth:`build` is this plus the
        default corpus generation.
        """
        started = time.perf_counter()  # detlint: ignore[DET002] -- build-log timing, not part of results
        if config.search_shards:
            # Document-partitioned substrate: float-exact equal to the
            # single-index engine, built in parallel when workers > 1.
            search_engine: SearchEngine = ShardedSearchEngine(
                corpus,
                registry,
                shards=config.search_shards,
                builders=config.workers,
                build_executor=config.executor,
            )
        else:
            search_engine = SearchEngine(corpus, registry)
        engines = build_engines(
            corpus, registry, catalog, search_engine, study_seed=config.seed
        )
        retriever = Retriever(corpus, registry, search_engine)
        _log.info(
            "ecosystem assembled: %d engines, index of %d docs (%.2fs)",
            len(engines), search_engine.index.doc_count,
            time.perf_counter() - started,  # detlint: ignore[DET002]
        )

        # The Section 3 experiments probe one model ("gpt-4o with
        # deterministic settings"); the reference LLM reuses the GPT-4o
        # engine's seed so both views of the model agree.
        model_seed = derive_seed("model", config.seed, "GPT-4o")
        knowledge = PretrainedKnowledge(corpus, catalog, model_seed=model_seed)
        reference_llm = SimulatedLLM(knowledge, LLMConfig(seed=model_seed))

        return cls(
            config=config,
            catalog=catalog,
            registry=registry,
            corpus=corpus,
            search_engine=search_engine,
            engines=engines,
            retriever=retriever,
            reference_llm=reference_llm,
        )

    def ai_engines(self) -> dict[str, AnswerEngine]:
        """The four generative engines (everything but Google)."""
        return {name: e for name, e in self.engines.items() if name != "Google"}

    def google(self) -> AnswerEngine:
        """The traditional-search baseline."""
        return self.engines["Google"]

    def install_resilience(self, context: ResilienceContext | None) -> None:
        """Attach a resilience context to every fault site in this world.

        Wires the context through the engines (``"engine.answer"``), the
        retriever (``"retrieval.select_sources"``), the evidence cache
        (``"evidence.context"``), and — on a sharded substrate — the
        search engine's scatter (``"search.shard"``); the runner picks
        it up from ``world.resilience`` for chunk containment.  Passing
        ``None`` detaches everything, restoring the exact
        pre-resilience paths.  Forked pool workers inherit the wired
        world copy-on-write, so fault decisions — pure functions of the
        plan seed — agree on both sides of the fork.
        """
        self.resilience = context
        for engine in self.engines.values():
            engine.set_resilience(context)
        self.retriever.set_resilience(context)
        self.evidence_cache.resilience = context
        if hasattr(self.search_engine, "set_resilience"):
            self.search_engine.set_resilience(context)

    def clear_resilience(self) -> None:
        """Detach the resilience layer (convenience for tests)."""
        self.install_resilience(None)

    def serve_loop(self, **kwargs) -> "ServeLoop":
        """An answer-serving loop over this (warm) world.

        Keyword arguments go to :class:`repro.serve.loop.ServeLoop`
        (``workers``, ``max_pending``, ``stats``).  If a resilience
        context is installed the loop shares its clock and breakers, so
        load-generator arrivals and breaker cooldowns live on one
        simulated timeline.
        """
        from repro.serve.loop import ServeLoop

        return ServeLoop(self, **kwargs)

    def clear_caches(self) -> None:
        """Reset every world-level memo to a cold state.

        Drops the engine answer memos, the shared evidence cache, and
        the search substrate's query and snippet caches.  Used by tests
        that compare cold and warm runs; a study never needs it.
        """
        for engine in self.engines.values():
            engine.clear_cache()
        self.evidence_cache.clear()
        self.search_engine.clear_query_cache()
        self.search_engine.snippet_cache.clear()
