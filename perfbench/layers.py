"""The layer table: which boundaries are wrapped, what each reports, and
which end-to-end metric and workload each layer is predicted to move.

Every later change to the program is judged against these names.  For
each layer the table names the workload where it does most of its work
and the workloads where it should not move; on the latter the traced run
must record no span of the layer in the timed phase (set-up layers work
only in set-up, so they are predicted absent from every timed phase).
"""

from __future__ import annotations

from dataclasses import dataclass

from tracing import Boundary, Tracer, self_times

__all__ = ["LAYERS", "WORKLOADS", "Layer", "boundaries", "layer_metrics", "metric_specs", "nearest_rank", "span_counts"]

WORKLOADS = ("study", "serve_cold", "serve_hot")
SERVE = ("serve_cold", "serve_hot")


@dataclass(frozen=True)
class Layer:
    name: str
    boundaries: tuple[Boundary, ...]
    #: ``(stat, unit, better)`` beyond the default ``calls``/``self_s``.
    stats: tuple[tuple[str, str, str], ...] = ()
    #: Whether ``calls`` and ``self_s`` are reported.
    timed: bool = True
    should_move: str = ""
    most_work: tuple[str, ...] = ()
    unchanged_on: tuple[str, ...] = ()


# -- hooks -------------------------------------------------------------
# Each records its layer's counters at the boundary it is attached to.


def _pages(tracer, args, kwargs, result, token):
    tracer.count("webgraph.corpus", "pages", len(result))


def _docs_scored(tracer, args, kwargs, result, token):
    tracer.count("search.bm25", "docs_scored", len(result))
    if tracer.current_layer() == "engines.retrieval.pool":
        tracer.count("engines.retrieval.pool", "docs_scored", len(result))


def _pool_kept(tracer, args, kwargs, result, token):
    tracer.count("engines.retrieval.pool", "kept", len(result))
    if tracer.current_layer() == "engines.retrieval.rerank":
        tracer.count("engines.retrieval.rerank", "pool", len(result))


def _selected(tracer, args, kwargs, result, token):
    pool = kwargs.get("pool")
    if pool is not None:
        tracer.count("engines.retrieval.rerank", "pool", len(pool))
    tracer.count("engines.retrieval.rerank", "selected", len(result))


def _jitter_draw(tracer, args, kwargs, result, token):
    if args and args[0] == "select":
        tracer.count("engines.retrieval.rerank", "draws")
        tracer.see("engines.retrieval.rerank", "draws", args[1:3])


def _delta(layer: str, read, names=("hits", "misses")):
    """Hooks counting how far the pair ``read(args, kwargs)`` moves in a call."""

    def before(args, kwargs):
        return read(args, kwargs)

    def after(tracer, args, kwargs, result, token):
        if token is None:
            return
        for name, now, then in zip(names, read(args, kwargs), token):
            tracer.count(layer, name, now - then)

    return before, after


def _query_cache(args, kwargs):
    counters = args[0].query_cache_stats()
    return counters.hits, counters.misses


def _snippet_cache(args, kwargs):
    cache = kwargs.get("snippet_cache")
    if cache is None:
        return None
    counters = cache.counters()
    return counters.hits, counters.misses


def _evidence_cache(args, kwargs):
    stats = args[0].stats
    return stats.hits, stats.misses


def _answer_memo(args, kwargs):
    return args[0].cache_stats()


def _flights(args, kwargs):
    return args[0].counters()


def _fingerprint(tracer, args, kwargs, result, token):
    tracer.see("llm.context.fingerprint", "values", result)


def _entities_scored(tracer, args, kwargs, result, token):
    tracer.count("llm.model.rank", "entities_scored", len(result.scores))


def _drain(tracer, args, kwargs, result, token):
    snapshot = args[0].stats.snapshot()
    tracer.count("serve.loop", "admission_waits", snapshot.admission_waits)
    for outcome, count in snapshot.outcomes.items():
        tracer.count("serve.loop", f"outcome.{outcome}", count)
    tracer.sample("serve.loop", "queue", (r.queue_delay_seconds for r in result))
    tracer.sample("serve.loop", "service", (r.service_seconds for r in result))


def _request_op(args, kwargs):
    engine, query = args[0], args[1]
    return f"{engine.name}:{query.cache_key}"


_QUERY_CACHE = _delta("search.engine", _query_cache)
_SNIPPETS = _delta("engines.generative.evidence", _snippet_cache)
_EVIDENCE = _delta("core.runner.evidence", _evidence_cache)
_MEMO = _delta("engines.base.answer", _answer_memo)
_FLIGHTS = _delta("serve.singleflight", _flights, ("led", "coalesced"))

_FRACTION = "fraction"

LAYERS: tuple[Layer, ...] = (
    Layer(
        "webgraph.corpus",
        (Boundary("webgraph.corpus", "repro.webgraph.corpus:CorpusGenerator.generate", after=_pages),),
        stats=(("pages", "count", "lower"),),
        should_move="setup_s", most_work=WORKLOADS, unchanged_on=WORKLOADS,
    ),
    Layer(
        "search.index",
        (
            Boundary("search.index", "repro.search.index:InvertedIndex.add_all"),
            Boundary("search.index", "repro.search.index:InvertedIndex.freeze"),
        ),
        should_move="setup_s", most_work=WORKLOADS, unchanged_on=WORKLOADS,
    ),
    Layer(
        "search.pagerank",
        (Boundary("search.pagerank", "repro.search.engine:pagerank"),),
        should_move="setup_s", most_work=WORKLOADS, unchanged_on=WORKLOADS,
    ),
    Layer(
        "llm.pretraining",
        (Boundary("llm.pretraining", "repro.llm.pretraining:PretrainedKnowledge.__init__"),),
        should_move="setup_s", most_work=WORKLOADS, unchanged_on=WORKLOADS,
    ),
    Layer(
        "search.bm25",
        (Boundary("search.bm25", "repro.search.bm25:BM25Scorer.score_terms", after=_docs_scored),),
        stats=(("docs_scored", "count", "lower"),),
        should_move="throughput_rps and latency_p50_ms on serve_cold; run_s on study",
        most_work=("serve_cold", "study"), unchanged_on=("serve_hot",),
    ),
    Layer(
        "engines.retrieval.pool",
        (Boundary("engines.retrieval.pool", "repro.engines.retrieval:Retriever.candidates", after=_pool_kept),),
        stats=(("kept_share", _FRACTION, "higher"),),
        should_move="throughput_rps and latency_p50_ms on serve_cold; run_s on study",
        most_work=("serve_cold", "study"), unchanged_on=("serve_hot",),
    ),
    Layer(
        "engines.retrieval.rerank",
        (
            Boundary("engines.retrieval.rerank", "repro.engines.retrieval:Retriever.select_sources", after=_selected),
            Boundary("engines.retrieval.rerank", "repro.engines.retrieval:derive_rng", after=_jitter_draw, span=False),
        ),
        stats=(("selected_share", _FRACTION, "higher"), ("jitter_distinct_share", _FRACTION, "higher")),
        should_move="throughput_rps and latency_p50_ms on serve_cold; run_s on study",
        most_work=("serve_cold", "study"), unchanged_on=("serve_hot",),
    ),
    Layer(
        "search.engine",
        (Boundary("search.engine", "repro.search.engine:SearchEngine.search", *_QUERY_CACHE),),
        stats=(("query_cache_hit_rate", _FRACTION, "higher"),),
        should_move="throughput_rps and latency_p50_ms on serve_cold; run_s on study",
        most_work=("study", "serve_cold"), unchanged_on=("serve_hot",),
    ),
    Layer(
        "engines.generative.evidence",
        (
            Boundary("engines.generative.evidence", "repro.engines.generative:context_from_pages", *_SNIPPETS),
            Boundary("engines.generative.evidence", "repro.core.study:context_from_pages", *_SNIPPETS),
        ),
        stats=(("snippet_cache_hit_rate", _FRACTION, "higher"),),
        should_move="throughput_rps and latency_p50_ms on serve_cold; run_s on study",
        most_work=("study", "serve_cold"), unchanged_on=("serve_hot",),
    ),
    Layer(
        "core.runner.evidence",
        (Boundary("core.runner.evidence", "repro.core.runner:EvidenceCache.get_or_compute", *_EVIDENCE),),
        stats=(("hit_rate", _FRACTION, "higher"),),
        should_move="run_s", most_work=("study",), unchanged_on=SERVE,
    ),
    Layer(
        "llm.context.fingerprint",
        (Boundary("llm.context.fingerprint", "repro.llm.context:ContextWindow.fingerprint", after=_fingerprint),),
        stats=(("distinct_share", _FRACTION, "higher"),),
        should_move="run_s on study; a little of throughput_rps on serve_cold",
        most_work=("study",), unchanged_on=("serve_hot",),
    ),
    Layer(
        "llm.model.rank",
        (Boundary("llm.model.rank", "repro.llm.model:SimulatedLLM.rank_entities", after=_entities_scored),),
        stats=(("entities_scored", "count", "lower"),),
        should_move="run_s", most_work=("study",), unchanged_on=("serve_hot",),
    ),
    Layer(
        "llm.model.pairwise",
        (Boundary("llm.model.pairwise", "repro.llm.model:SimulatedLLM.pairwise_judge"),),
        should_move="run_s", most_work=("study",), unchanged_on=SERVE,
    ),
    Layer(
        "analysis",
        (
            Boundary("analysis", "repro.core.study:sensitivity"),
            Boundary("analysis", "repro.core.study:pairwise_consistency"),
        ),
        should_move="run_s", most_work=("study",), unchanged_on=SERVE,
    ),
    Layer(
        "core.experiments",
        (Boundary("core.experiments", "repro.core.experiments:run_experiment", op=lambda args, kwargs: args[0]),),
        stats=tuple(
            (f"{experiment}_s", "s", "lower")
            for experiment in ("fig1", "fig2", "fig3", "fig4", "table1", "table2", "table3")
        ),
        timed=False,
        should_move="run_s", most_work=("study",), unchanged_on=SERVE,
    ),
    Layer(
        "engines.base.answer",
        (Boundary("engines.base.answer", "repro.engines.base:AnswerEngine.answer", *_MEMO),),
        stats=(("memo_hit_rate", _FRACTION, "higher"),),
        should_move="run_s, throughput_rps",
        most_work=("study", "serve_cold"), unchanged_on=("serve_hot",),
    ),
    Layer(
        "engines.base.cached_answer",
        (Boundary("engines.base.cached_answer", "repro.engines.base:AnswerEngine.cached_answer", op=_request_op),),
        should_move="throughput_rps, latency_p50_ms",
        most_work=("serve_hot",), unchanged_on=("study",),
    ),
    Layer(
        "serve.loop",
        (Boundary("serve.loop", "repro.serve.loop:ServeLoop.serve", after=_drain, op=lambda args, kwargs: "drain"),),
        stats=(
            ("self_s", "s", "lower"),
            ("queue_p50_ms", "ms", "lower"),
            ("queue_p99_ms", "ms", "lower"),
            ("service_p50_ms", "ms", "lower"),
            ("service_p99_ms", "ms", "lower"),
            ("admission_waits", "count", "lower"),
            ("outcome.hit", "count", "higher"),
            ("outcome.coalesced", "count", "higher"),
            ("outcome.miss", "count", "lower"),
            ("outcome.shed", "count", "lower"),
            ("outcome.degraded", "count", "lower"),
            ("outcome.partial", "count", "lower"),
        ),
        timed=False,
        should_move="throughput_rps, latency_p50_ms", most_work=("serve_hot",), unchanged_on=("study",),
    ),
    Layer(
        "serve.singleflight",
        (Boundary("serve.singleflight", "repro.serve.singleflight:SingleFlight.do", *_FLIGHTS),),
        stats=(("coalesced_share", _FRACTION, "higher"),),
        should_move="latency_p50_ms", most_work=("serve_cold",), unchanged_on=("study", "serve_hot"),
    ),
    Layer(
        "serve.stats",
        (Boundary("serve.stats", "repro.serve.stats:ServeStats.record"),),
        should_move="throughput_rps", most_work=("serve_hot",), unchanged_on=("study",),
    ),
)

#: Traced run_s over untraced run_s, minus one; reported with the layers.
OVERHEAD = ("tracing.overhead_share", _FRACTION, "lower")


def boundaries() -> list[Boundary]:
    return [boundary for layer in LAYERS for boundary in layer.boundaries]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in table order."""
    specs = []
    for layer in LAYERS:
        if layer.timed:
            specs.append((f"{layer.name}.calls", "count", "lower"))
            specs.append((f"{layer.name}.self_s", "s", "lower"))
        specs.extend((f"{layer.name}.{stat}", unit, better) for stat, unit, better in layer.stats)
    specs.append(OVERHEAD)
    return specs


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(q * len(ordered)) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced run except the overhead share.

    A layer none of whose boundaries resolved reports zeros; the caller
    lists it from ``tracer.missing``.
    """
    counts = tracer.counts
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    experiments: dict[str, float] = {}
    for span in tracer.spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
        self_s[span.layer] = self_s.get(span.layer, 0.0) + selfs[span.id]
        if span.layer == "core.experiments":
            experiments[span.op] = experiments.get(span.op, 0.0) + (span.end - span.start)

    def hit_rate(layer: str) -> float:
        hits = counts[layer, "hits"]
        return _share(hits, hits + counts[layer, "misses"])

    derived = {
        "webgraph.corpus.pages": counts["webgraph.corpus", "pages"],
        "search.bm25.docs_scored": counts["search.bm25", "docs_scored"],
        "engines.retrieval.pool.kept_share": _share(
            counts["engines.retrieval.pool", "kept"], counts["engines.retrieval.pool", "docs_scored"]
        ),
        "engines.retrieval.rerank.selected_share": _share(
            counts["engines.retrieval.rerank", "selected"], counts["engines.retrieval.rerank", "pool"]
        ),
        "engines.retrieval.rerank.jitter_distinct_share": _share(
            len(tracer.distinct["engines.retrieval.rerank", "draws"]),
            counts["engines.retrieval.rerank", "draws"],
        ),
        "search.engine.query_cache_hit_rate": hit_rate("search.engine"),
        "engines.generative.evidence.snippet_cache_hit_rate": hit_rate("engines.generative.evidence"),
        "core.runner.evidence.hit_rate": hit_rate("core.runner.evidence"),
        "llm.context.fingerprint.distinct_share": _share(
            len(tracer.distinct["llm.context.fingerprint", "values"]),
            calls.get("llm.context.fingerprint", 0),
        ),
        "llm.model.rank.entities_scored": counts["llm.model.rank", "entities_scored"],
        "engines.base.answer.memo_hit_rate": hit_rate("engines.base.answer"),
        "serve.loop.self_s": self_s.get("serve.loop", 0.0),
        "serve.loop.admission_waits": counts["serve.loop", "admission_waits"],
        "serve.singleflight.coalesced_share": _share(
            counts["serve.singleflight", "coalesced"],
            counts["serve.singleflight", "led"] + counts["serve.singleflight", "coalesced"],
        ),
    }
    for name in ("queue", "service"):
        values = tracer.samples["serve.loop", name]
        for q in (50, 99):
            derived[f"serve.loop.{name}_p{q}_ms"] = 1000.0 * nearest_rank(values, q)
    for outcome in ("hit", "coalesced", "miss", "shed", "degraded", "partial"):
        derived[f"serve.loop.outcome.{outcome}"] = counts["serve.loop", f"outcome.{outcome}"]

    metrics = {}
    for layer in LAYERS:
        if layer.timed:
            metrics[f"{layer.name}.calls"] = calls.get(layer.name, 0)
            metrics[f"{layer.name}.self_s"] = self_s.get(layer.name, 0.0)
        for stat, _, _ in layer.stats:
            name = f"{layer.name}.{stat}"
            if layer.name == "core.experiments":
                metrics[name] = experiments.get(stat[: -len("_s")], 0.0)
            else:
                metrics[name] = derived[name]
    return metrics


def span_counts(tracer: Tracer) -> dict[str, dict[str, int]]:
    """Phase (``setup`` or ``run``) -> layer -> spans recorded."""
    counts: dict[str, dict[str, int]] = {"setup": {}, "run": {}}
    for span in tracer.spans:
        phase = counts[span.phase]
        phase[span.layer] = phase.get(span.layer, 0) + 1
    return counts
