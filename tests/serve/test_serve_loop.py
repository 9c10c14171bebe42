"""Serving-tier acceptance: coalescing, determinism, backpressure.

The bar, in increasing strength:

* a coalesced serve of a duplicated workload returns byte-identical
  answers to the batch :class:`~repro.core.runner.StudyRunner`;
* the hit/coalesce/miss split is counter-verified — misses equal
  distinct cold keys *exactly*, at any worker width;
* a targeted ``engine.answer`` chaos plan trips only the faulted
  engine's breaker, sheds only its traffic, and leaves every other
  engine's answers untouched;
* recoverable chaos leaves the digest byte-identical to a clean run.
"""

import pytest

from repro.core.report import render_serve_stats
from repro.core.runner import StudyRunner
from repro.engines.registry import ENGINE_NAMES
from repro.resilience import (
    FaultPlan,
    ResilienceConfig,
    ResilienceContext,
)
from repro.serve.loadgen import LoadProfile, ServeRequest, generate_requests, query_pool
from repro.serve.loop import answers_digest


def _requests_for(queries, engines=ENGINE_NAMES, copies=1, gap=0.01):
    """A hand-built stream: every (engine, query) pair, ``copies`` times.

    Duplicates are interleaved (all pairs once, then again) so that at
    small gaps concurrent duplicates actually overlap in the pool.
    """
    requests = []
    arrival = 0.0
    for _ in range(copies):
        for query in queries:
            for engine in engines:
                arrival += gap
                requests.append(
                    ServeRequest(
                        index=len(requests),
                        arrival=arrival,
                        engine=engine,
                        query=query,
                    )
                )
    return requests


def _install(world, spec=None, seed=0, **config):
    plan = FaultPlan.parse(spec, seed=seed) if spec else FaultPlan(seed=seed)
    ctx = ResilienceContext(ResilienceConfig(plan=plan, **config))
    world.install_resilience(ctx)
    return ctx


class TestCoalescedServingEquivalence:
    def test_duplicated_workload_matches_batch_runner(self, serve_world):
        queries = query_pool(serve_world.catalog, 12, seed=21)
        batch = StudyRunner(serve_world, workers=1).answers(queries)

        serve_world.clear_caches()
        loop = serve_world.serve_loop(workers=4)
        results = loop.serve(_requests_for(queries, copies=3, gap=0.001))

        served = {}
        for result in results:
            served.setdefault(result.request.engine, {})[
                result.request.query.cache_key
            ] = result.answer
        for engine in ENGINE_NAMES:
            for query, expected in zip(queries, batch[engine]):
                assert served[engine][query.cache_key] == expected

    def test_miss_count_equals_distinct_keys_exactly(self, serve_world):
        queries = query_pool(serve_world.catalog, 10, seed=22)
        engines = ("Google", "Gemini")
        loop = serve_world.serve_loop(workers=4)
        copies = 4
        results = loop.serve(
            _requests_for(queries, engines=engines, copies=copies, gap=0.0005)
        )
        snapshot = loop.stats.snapshot()
        distinct = len(queries) * len(engines)
        total = distinct * copies
        assert len(results) == total
        assert snapshot.outcomes["miss"] == distinct
        assert (
            snapshot.outcomes["hit"] + snapshot.outcomes["coalesced"]
            == total - distinct
        )
        assert snapshot.outcomes["shed"] == snapshot.outcomes["degraded"] == 0
        assert snapshot.duplicate_absorption == pytest.approx(
            1.0 - distinct / total
        )
        # The engines agree: each computed exactly its distinct queries.
        for engine in engines:
            __, misses = serve_world.engines[engine].cache_stats()
            assert misses == len(queries)

    def test_flight_leader_rechecks_the_memo(self, serve_world, monkeypatch):
        """A key memoized between the loop's peek and its flight is a hit.

        Replays the race deterministically: the memo is primed, but the
        loop's first peek misses, as if another flight for the key had
        finished just after it.
        """
        query = query_pool(serve_world.catalog, 1, seed=24)[0]
        engine = serve_world.engines["Claude"]
        memoized = engine.answer(query)
        peek = engine.cached_answer
        peeks = []

        def first_peek_misses(q):
            peeks.append(q)
            return None if len(peeks) == 1 else peek(q)

        monkeypatch.setattr(engine, "cached_answer", first_peek_misses)
        loop = serve_world.serve_loop(workers=1)
        (result,) = loop.serve(_requests_for([query], engines=("Claude",)))
        outcomes = loop.stats.snapshot().outcomes
        assert result.outcome == "hit"
        assert outcomes["hit"] == 1 and outcomes["miss"] == 0
        assert result.answer is memoized
        assert len(peeks) == 2
        # The flight never re-entered the memo's counted path.
        assert engine.cache_stats() == (0, 1)

    def test_coalesced_requests_share_the_leaders_answer(self, serve_world):
        queries = query_pool(serve_world.catalog, 4, seed=23)
        loop = serve_world.serve_loop(workers=8)
        results = loop.serve(
            _requests_for(queries, engines=("Claude",), copies=8, gap=0.0)
        )
        by_key = {}
        for result in results:
            by_key.setdefault(result.request.query.cache_key, set()).add(
                id(result.answer)
            )
        # Every duplicate of a key received the *same object*: either
        # the memo entry or the in-flight leader's result.
        assert all(len(ids) == 1 for ids in by_key.values())


class TestWorkerWidthDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_digest_identical_at_any_width(self, serve_world, workers):
        profile = LoadProfile(requests=120, pool_size=24, burstiness=3.0, seed=7)
        requests = generate_requests(serve_world.catalog, profile)
        serve_world.clear_caches()
        loop = serve_world.serve_loop(workers=workers)
        digest = answers_digest(loop.serve(requests))
        serve_world.clear_caches()
        again = serve_world.serve_loop(workers=workers)
        assert answers_digest(again.serve(requests)) == digest
        # Cross-width: pin against the sequential reference.
        serve_world.clear_caches()
        reference = serve_world.serve_loop(workers=1)
        assert answers_digest(reference.serve(requests)) == digest

    def test_warm_serve_digests_like_cold(self, serve_world):
        profile = LoadProfile(requests=60, pool_size=12, seed=9)
        requests = generate_requests(serve_world.catalog, profile)
        loop = serve_world.serve_loop(workers=4)
        cold = answers_digest(loop.serve(requests))
        warm = answers_digest(loop.serve(requests))
        assert warm == cold
        # Second pass is all hits: the memo absorbed the whole stream.
        assert loop.stats.snapshot().outcomes["hit"] >= len(requests)


class TestBackpressureAndChaos:
    def test_targeted_chaos_trips_only_the_faulted_breaker(self, serve_world):
        ctx = _install(serve_world, "engine.answer@Gemini:1.0:inf")
        queries = query_pool(serve_world.catalog, 8, seed=31)
        loop = serve_world.serve_loop(workers=4)
        results = loop.serve(_requests_for(queries, copies=2, gap=0.01))

        assert ctx.breaker_for("Gemini").is_open
        for engine in ENGINE_NAMES:
            if engine != "Gemini":
                assert not ctx.breaker_for(engine).is_open
        # Shed and degraded traffic is Gemini's alone; everyone else
        # answered normally.
        bad = [r for r in results if r.outcome in ("shed", "degraded")]
        assert bad and all(r.request.engine == "Gemini" for r in bad)
        snapshot = loop.stats.snapshot()
        assert snapshot.outcomes["degraded"] >= ctx.config.breaker_threshold
        assert snapshot.outcomes["shed"] > 0
        assert ctx.events.get("serve_shed") == snapshot.outcomes["shed"]
        # Quarantine provenance points at the serve phase.
        records = ctx.quarantine.records("serve")
        assert records and all(r.engine == "Gemini" for r in records)

    def test_unfaulted_engines_answers_match_clean_run(self, serve_world):
        queries = query_pool(serve_world.catalog, 6, seed=32)
        clean_loop = serve_world.serve_loop(workers=4)
        clean = clean_loop.serve(_requests_for(queries, copies=2))
        serve_world.clear_caches()
        _install(serve_world, "engine.answer@Perplexity:1.0:inf")
        chaotic_loop = serve_world.serve_loop(workers=4)
        chaotic = chaotic_loop.serve(_requests_for(queries, copies=2))
        keep = [r for r in clean if r.request.engine != "Perplexity"]
        kept = [r for r in chaotic if r.request.engine != "Perplexity"]
        assert answers_digest(keep) == answers_digest(kept)

    def test_recoverable_chaos_is_byte_identical_to_clean(self, serve_world):
        profile = LoadProfile(requests=80, pool_size=16, seed=33)
        requests = generate_requests(serve_world.catalog, profile)
        clean = answers_digest(serve_world.serve_loop(workers=4).serve(requests))
        serve_world.clear_caches()
        ctx = _install(serve_world, "engine.answer:0.4:1")
        chaotic = answers_digest(
            serve_world.serve_loop(workers=4).serve(requests)
        )
        assert chaotic == clean
        assert ctx.events.get("retries") > 0
        # Recoverable faults never trip a breaker (PR 5 invariant).
        for engine in ENGINE_NAMES:
            assert not ctx.breaker_for(engine).is_open

    def test_admission_window_blocks_but_completes(self, serve_world):
        profile = LoadProfile(requests=60, pool_size=12, qps=1000.0, seed=34)
        requests = generate_requests(serve_world.catalog, profile)
        loop = serve_world.serve_loop(workers=2, max_pending=1)
        results = loop.serve(requests)
        assert len(results) == len(requests)
        snapshot = loop.stats.snapshot()
        assert snapshot.requests == len(requests)
        # With a one-slot window under a 1000-qps burst the submitter
        # must have stalled at least once — and dropped nothing.
        assert snapshot.admission_waits > 0

    def test_fail_fast_propagates(self, serve_world):
        from repro.resilience.faults import InjectedFault

        _install(
            serve_world, "engine.answer@Claude:1.0:inf", fail_fast=True
        )
        queries = query_pool(serve_world.catalog, 4, seed=35)
        loop = serve_world.serve_loop(workers=2)
        with pytest.raises(InjectedFault):
            loop.serve(_requests_for(queries, engines=("Claude",)))


class TestServeStatsRendering:
    def test_render_serve_stats_covers_the_headline_counters(self, serve_world):
        profile = LoadProfile(requests=40, pool_size=8, seed=41)
        requests = generate_requests(serve_world.catalog, profile)
        loop = serve_world.serve_loop(workers=2)
        loop.serve(requests)
        text = render_serve_stats(loop.stats.snapshot())
        assert "Serving statistics" in text
        assert "requests: 40" in text
        assert "coalesced" in text and "miss" in text
        assert "duplicate absorption" in text
        assert "service latency" in text and "p99" in text

    def test_world_serve_loop_factory_shares_resilience_clock(self, serve_world):
        ctx = _install(serve_world)
        loop = serve_world.serve_loop(workers=1)
        assert loop.clock is ctx.clock
