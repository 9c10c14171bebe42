"""Serving under shard chaos: byte-identical or honestly partial.

The acceptance contract for the shard fault domain and partial
coverage at the serving tier:

* **Recoverable** ``search.shard`` plans recover inside the retry
  ladder, so the served stream's ``answers_digest`` is byte-identical
  to the clean baseline recorded in ``BENCH_serving.json`` — at any
  shard count and worker width, with zero coverage records.
* **Unrecoverable** loss of a shard degrades requests to ``partial``:
  the answer is served (from the surviving shards' evidence), coverage
  provenance is populated, and *nothing* partial enters the memo — a
  re-drain recomputes instead of replaying the degraded answer as a
  ``hit``.  That holds for every engine that searches, since organic
  ranking and the generative candidate pools share one scatter, and
  for the study's evidence contexts.
"""

import json
import pathlib

import pytest

from repro.core.config import StudyConfig
from repro.core.report import render_serve_stats
from repro.core.study import ComparativeStudy
from repro.core.world import World
from repro.engines.registry import ENGINE_NAMES
from repro.resilience import (
    FaultPlan,
    ResilienceConfig,
    ResilienceContext,
)
from repro.serve import LoadProfile, answers_digest, generate_requests
from repro.serve.loadgen import query_pool

from tests.serve.conftest import SERVE_SIZES
from tests.serve.test_serve_loop import _requests_for

BENCH_SERVING = pathlib.Path(__file__).parents[2] / "BENCH_serving.json"

#: The exact profile ``tools/serve_smoke.py`` records the digest under.
SMOKE_PROFILE = LoadProfile(
    requests=400, qps=200.0, burstiness=4.0, zipf_s=1.1, pool_size=48, seed=17
)


def _install(world, spec, seed=0):
    ctx = ResilienceContext(
        ResilienceConfig(plan=FaultPlan.parse(spec, seed=seed))
    )
    world.install_resilience(ctx)
    return ctx


@pytest.fixture(scope="module", params=(1, 4), ids=("shards1", "shards4"))
def chaos_world(request):
    return World.build(
        StudyConfig(
            seed=13,
            corpus_scale=0.35,
            sizes=SERVE_SIZES,
            search_shards=request.param,
        )
    )


@pytest.fixture(autouse=True)
def _pristine_chaos(chaos_world):
    chaos_world.clear_resilience()
    chaos_world.clear_caches()
    yield
    chaos_world.clear_resilience()
    chaos_world.clear_caches()


class TestRecoverableShardChaos:
    def test_digest_matches_clean_baseline(self, chaos_world):
        """failures=2 recovers at attempt 3: the whole smoke stream
        digests to the pinned clean-run baseline, bit for bit."""
        ctx = _install(chaos_world, "search.shard:0.5:2:error", seed=5)
        requests = generate_requests(chaos_world.catalog, SMOKE_PROFILE)
        results = chaos_world.serve_loop(workers=4).serve(requests)
        recorded = json.loads(BENCH_SERVING.read_text())["smoke"][
            "answers_digest"
        ]
        assert answers_digest(results) == recorded
        assert ctx.coverage.count() == 0
        snapshot = {r.outcome for r in results}
        assert "partial" not in snapshot
        assert "degraded" not in snapshot
        if chaos_world.config.search_shards:
            assert ctx.events.get("faults_injected") > 0


class TestUnrecoverableShardLoss:
    def test_partial_outcomes_with_coverage_provenance(self, chaos_world):
        if chaos_world.config.search_shards < 4:
            pytest.skip("single-shard world: losing shard 2 needs 4 shards")
        ctx = _install(chaos_world, "search.shard@2:1.0:inf")
        queries = query_pool(chaos_world.catalog, 6, seed=31)
        loop = chaos_world.serve_loop(workers=1)
        results = loop.serve(_requests_for(queries, copies=2))
        assert len(results) == len(queries) * 2 * len(ENGINE_NAMES)
        outcomes = loop.stats.snapshot().outcomes
        assert outcomes["partial"] > 0
        assert outcomes["shed"] == 0
        assert ctx.coverage.count() > 0
        assert all(
            record.missing == (2,) for record in ctx.coverage.records()
        )
        # Partial answers are real answers over surviving shards, not
        # degraded apologies.
        for result in results:
            if result.outcome == "partial":
                assert result.answer.text
        text = render_serve_stats(loop.stats.snapshot())
        assert "partial" in text

    def test_partial_answers_never_enter_the_memo(self, chaos_world):
        """A second drain of the same stream recomputes every partial
        leader — none were memoized, so none come back as hits."""
        if chaos_world.config.search_shards < 4:
            pytest.skip("single-shard world: losing shard 2 needs 4 shards")
        _install(chaos_world, "search.shard@2:1.0:inf")
        queries = query_pool(chaos_world.catalog, 5, seed=32)
        stream = _requests_for(queries)
        first_loop = chaos_world.serve_loop(workers=1)
        first = first_loop.serve(stream)
        second_loop = chaos_world.serve_loop(workers=1)
        second = second_loop.serve(stream)
        counts_first = first_loop.stats.snapshot().outcomes
        counts_second = second_loop.stats.snapshot().outcomes
        assert counts_first["partial"] > 0
        assert counts_second["partial"] == counts_first["partial"]
        # Deterministic even while degraded: same stream, same answers.
        assert answers_digest(first) == answers_digest(second)

    def test_generative_retrieval_reports_the_lost_shard(self, chaos_world):
        """GPT-4o, Claude and Perplexity score their candidate pools
        through the same scatter as organic search: every request that
        searched comes back ``partial``, and a second drain recomputes
        it instead of replaying a memoized partial answer."""
        if chaos_world.config.search_shards < 4:
            pytest.skip("single-shard world: losing shard 2 needs 4 shards")
        ctx = _install(chaos_world, "search.shard@2:1.0:inf")
        queries = query_pool(chaos_world.catalog, 6, seed=31)
        stream = _requests_for(queries, engines=("GPT-4o", "Claude", "Perplexity"))
        first = chaos_world.serve_loop(workers=1).serve(stream)
        second = chaos_world.serve_loop(workers=1).serve(stream)
        # An answer cites sources exactly when its engine searched, and
        # only Claude may answer from pre-training alone.
        searched = [r for r in first if r.answer.citations]
        assert searched
        assert all(r.outcome == "partial" for r in searched)
        assert all(
            r.request.engine == "Claude" and not r.answer.citations
            for r in first
            if r.outcome != "partial"
        )
        assert ctx.coverage.count() > 0
        assert all(
            record.missing == (2,) for record in ctx.coverage.records()
        )
        for a, b in zip(first, second):
            if a.outcome == "partial":
                assert b.outcome == "partial"
        assert answers_digest(first) == answers_digest(second)

    def test_partial_evidence_never_enters_the_evidence_cache(
        self, chaos_world
    ):
        """A Section 3.1 evidence context retrieved while a shard is
        lost is returned, with provenance, but never stored."""
        if chaos_world.config.search_shards < 4:
            pytest.skip("single-shard world: losing shard 2 needs 4 shards")
        ctx = _install(chaos_world, "search.shard@2:1.0:inf")
        query = query_pool(chaos_world.catalog, 1, seed=33)[0]
        context = ComparativeStudy(chaos_world)._evidence_context(query)
        assert len(context) > 0
        assert ctx.coverage.count() > 0
        assert all(
            record.missing == (2,) for record in ctx.coverage.records()
        )
        cache = chaos_world.evidence_cache
        assert len(cache) == 0
        assert cache.counters().misses == 0

    def test_recovery_after_plan_lift_restores_clean_digest(
        self, chaos_world
    ):
        """Once the shard 'recovers' (plan detached), the same stream
        digests to the clean baseline — no partial state lingers."""
        if chaos_world.config.search_shards < 4:
            pytest.skip("single-shard world: losing shard 2 needs 4 shards")
        _install(chaos_world, "search.shard@2:1.0:inf")
        requests = generate_requests(chaos_world.catalog, SMOKE_PROFILE)
        chaos_world.serve_loop(workers=1).serve(requests)
        chaos_world.clear_resilience()
        chaos_world.clear_caches()
        results = chaos_world.serve_loop(workers=1).serve(requests)
        recorded = json.loads(BENCH_SERVING.read_text())["smoke"][
            "answers_digest"
        ]
        assert answers_digest(results) == recorded
