"""Parallel-vs-sequential determinism and evidence-cache behaviour.

The runner's acceptance bar: for any worker count and executor kind,
every experiment's result — object and rendered text — is byte-identical
to the sequential run.  The evidence cache's bar: Tables 1, 2 and 3 on a
shared world never retrieve the same evidence context twice.
"""

import pytest

from repro.core.config import StudyConfig, default_workers
from repro.core.report import render_fig1, render_fig3, render_table3
from repro.core.runner import EvidenceCache, RunStats, StudyRunner
from repro.core.study import ComparativeStudy


def _fresh(world) -> None:
    """Reset every memo so each timed/counted run starts cold."""
    world.clear_caches()


def _study(world, workers, executor="process") -> ComparativeStudy:
    return ComparativeStudy(
        world, runner=StudyRunner(world, workers=workers, executor=executor)
    )


class TestParallelDeterminism:
    @pytest.mark.parametrize(
        "method, renderer",
        [
            ("domain_overlap_ranking", render_fig1),
            ("source_typology", render_fig3),
            ("citation_misses", render_table3),
        ],
        ids=["fig1", "fig3", "table3"],
    )
    def test_workers4_matches_sequential(self, tiny_world, method, renderer):
        _fresh(tiny_world)
        sequential = getattr(_study(tiny_world, 1), method)()
        _fresh(tiny_world)
        parallel = getattr(_study(tiny_world, 4), method)()
        assert sequential == parallel
        assert renderer(sequential) == renderer(parallel)

    def test_thread_executor_matches_sequential(self, tiny_world):
        _fresh(tiny_world)
        sequential = _study(tiny_world, 1).domain_overlap_ranking()
        _fresh(tiny_world)
        threaded = _study(tiny_world, 3, "thread").domain_overlap_ranking()
        assert sequential == threaded
        assert render_fig1(sequential) == render_fig1(threaded)

    def test_fig2_subsetting_survives_parallelism(self, tiny_world):
        # Fig 2 slices the answer lists by query position after the
        # fan-out, so chunk reassembly order is load-bearing here.
        _fresh(tiny_world)
        sequential = _study(tiny_world, 1).domain_overlap_popular_niche()
        _fresh(tiny_world)
        parallel = _study(tiny_world, 4).domain_overlap_popular_niche()
        assert sequential == parallel


def _explode_chunk(engine_name, queries, attempt=1):
    """Module-level (picklable) stand-in for a crashing worker chunk."""
    raise RuntimeError("chunk exploded")


class TestWorkerExceptionPropagation:
    """A raising chunk must fail fast (no resilience) and say where.

    The error names the originating engine and query ids under both
    executors; with a resilience context installed the same failure is
    contained instead (see tests/resilience/test_containment.py).
    """

    def _queries(self, world):
        from repro.entities.queries import ranking_queries

        return ranking_queries(world.catalog, count=4, seed=29)

    def _assert_attributed(self, excinfo, world, queries):
        error = excinfo.value
        assert error.engine in world.engines
        assert set(error.query_ids) <= {q.id for q in queries}
        message = str(error)
        assert error.engine in message
        assert error.query_ids[0] in message
        assert "chunk exploded" in message

    def test_process_executor_reports_engine_and_queries(
        self, tiny_world, monkeypatch
    ):
        import repro.core.runner as runner_module

        monkeypatch.setattr(runner_module, "_answer_chunk", _explode_chunk)
        runner = StudyRunner(tiny_world, workers=2, executor="process")
        queries = self._queries(tiny_world)
        with pytest.raises(runner_module.ChunkExecutionError) as excinfo:
            runner.answers(queries)
        self._assert_attributed(excinfo, tiny_world, queries)

    def test_thread_executor_reports_engine_and_queries(
        self, tiny_world, monkeypatch
    ):
        import repro.core.runner as runner_module

        def _explode(world, engine_name, queries, attempt=1):
            raise RuntimeError("chunk exploded")

        monkeypatch.setattr(runner_module, "_execute_chunk", _explode)
        runner = StudyRunner(tiny_world, workers=2, executor="thread")
        queries = self._queries(tiny_world)
        with pytest.raises(runner_module.ChunkExecutionError) as excinfo:
            runner.answers(queries)
        self._assert_attributed(excinfo, tiny_world, queries)


class TestExecutorDegradation:
    """The effective executor is recorded (the no-fork degrade itself is
    covered for both fork-handshake callers in test_forkpool.py)."""

    def _queries(self, world):
        from repro.entities.queries import ranking_queries

        return ranking_queries(world.catalog, count=4, seed=31)

    def test_fork_platform_records_effective_process(self, tiny_world):
        runner = StudyRunner(tiny_world, workers=2, executor="process")
        runner.answers(self._queries(tiny_world))
        assert runner.stats.effective_executor == "process"

        from repro.core.report import render_stats

        study = ComparativeStudy(tiny_world, runner=runner)
        assert "(effective:" not in render_stats(study)


class TestEvidenceCache:
    def test_tables_share_contexts_with_zero_duplicate_retrievals(
        self, tiny_world
    ):
        _fresh(tiny_world)
        study = ComparativeStudy(tiny_world)
        cache = tiny_world.evidence_cache

        study.perturbation_sensitivity()
        misses_after_t1 = cache.stats.misses
        assert misses_after_t1 > 0
        # Every retrieval so far went into the cache exactly once.
        assert misses_after_t1 == len(cache)

        # Table 2 revisits Table 1's queries: all hits, no new retrievals.
        study.pairwise_agreement()
        assert cache.stats.misses == misses_after_t1
        assert cache.stats.hits > 0

        # Table 3 brings its own queries, each retrieved exactly once.
        study.citation_misses()
        assert cache.stats.misses == len(cache)

        # Re-running Table 1 is now retrieval-free.
        misses_before_rerun = cache.stats.misses
        study.perturbation_sensitivity()
        assert cache.stats.misses == misses_before_rerun

    def test_results_identical_on_warm_cache(self, tiny_world):
        _fresh(tiny_world)
        study = ComparativeStudy(tiny_world)
        cold = study.perturbation_sensitivity()
        warm = study.perturbation_sensitivity()
        assert cold == warm

    def test_failing_compute_leaves_cache_clean(self):
        # A compute that raises must not count a miss it never delivered,
        # nor leave a poisoned entry; the next lookup computes afresh.
        cache = EvidenceCache()

        def boom():
            raise ValueError("retrieval fell over")

        with pytest.raises(ValueError, match="retrieval fell over"):
            cache.get_or_compute("k", boom)
        assert "k" not in cache
        assert cache.stats.misses == 0
        assert cache.stats.hits == 0

        assert cache.get_or_compute("k", lambda: 7) == 7
        assert cache.stats.misses == 1
        assert cache.stats.misses == len(cache)

    def test_racing_failing_compute_does_not_poison_winner(self):
        # Regression for the miss-then-hit bug: a failing compute racing
        # a succeeding one used to pre-count its miss, breaking the
        # misses == len(cache) invariant the sharing tests rely on.
        # The barrier sits *inside* the computes, so every thread has
        # already probed (and missed) before any compute can finish —
        # the failures genuinely race the successful insert.
        import threading

        cache = EvidenceCache()
        n_fail = 3
        barrier = threading.Barrier(n_fail + 1)
        errors = []

        def failing_compute():
            barrier.wait()
            raise ValueError("injected")

        def failing():
            try:
                cache.get_or_compute("k", failing_compute)
            except ValueError as exc:
                errors.append(exc)

        def succeeding_compute():
            barrier.wait()
            return 42

        threads = [threading.Thread(target=failing) for _ in range(n_fail)] + [
            threading.Thread(
                target=lambda: cache.get_or_compute("k", succeeding_compute)
            )
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(errors) == n_fail
        assert cache.get_or_compute("k", lambda: -1) == 42  # not poisoned
        assert cache.stats.misses == 1 == len(cache)
        assert cache.stats.hits == 1  # the final probe only

    def test_limit_evicts_fifo(self):
        # Computes are deterministic per key, as real memo computes are
        # (the cache witness rejects a re-insert that changes a value),
        # so the recompute is proven by counting calls.
        cache = EvidenceCache(limit=2)
        calls = []

        def compute(key):
            calls.append(key)
            return key.upper()

        for key in ("a", "b", "c"):  # "c" evicts "a"
            cache.get_or_compute(key, lambda: compute(key))
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.stats.evictions == 1
        assert cache.get_or_compute("a", lambda: compute("a")) == "A"
        assert calls == ["a", "b", "c", "a"]  # recomputed

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            EvidenceCache(limit=0)


class TestRunnerConfig:
    def test_workers_one_uses_no_pool(self, tiny_world):
        runner = StudyRunner(tiny_world, workers=1)
        runner.answers([])
        phases = runner.stats.phases["(ad hoc)"]
        assert phases.pool_tasks == 0

    def test_rejects_bad_workers_and_executor(self, tiny_world):
        with pytest.raises(ValueError):
            StudyRunner(tiny_world, workers=0)
        with pytest.raises(ValueError):
            StudyRunner(tiny_world, executor="carrier-pigeon")
        with pytest.raises(ValueError):
            StudyConfig(workers=0)
        with pytest.raises(ValueError):
            StudyConfig(executor="carrier-pigeon")

    def test_runner_defaults_come_from_config(self, tiny_world):
        runner = StudyRunner(tiny_world)
        assert runner.workers == tiny_world.config.workers
        assert runner.executor == tiny_world.config.executor

    def test_default_workers_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert default_workers() == 4
        assert StudyConfig().workers == 4
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        assert default_workers() == 1

    def test_workers_do_not_affect_config_equality(self):
        # The determinism invariant, reflected in config identity.
        assert StudyConfig(workers=1) == StudyConfig(workers=4)


class TestRunStats:
    def test_phases_accumulate(self):
        stats = RunStats(workers=2, executor="thread")
        with stats.phase("fig1"):
            stats.count_pool_work(queries=100, pool_tasks=10)
        with stats.phase("fig1"):
            stats.count_pool_work(queries=50, pool_tasks=5)
        phase = stats.phases["fig1"]
        assert phase.queries == 150
        assert phase.pool_tasks == 15
        assert phase.seconds >= 0.0
        assert stats.total_queries == 150

    def test_runner_counts_queries(self, tiny_world):
        from repro.entities.queries import ranking_queries

        _fresh(tiny_world)
        queries = ranking_queries(tiny_world.catalog, count=4, seed=99)
        runner = StudyRunner(tiny_world, workers=2)
        with runner.stats.phase("probe"):
            answers = runner.answers(queries)
        assert set(answers) == set(tiny_world.engines)
        assert all(len(a) == 4 for a in answers.values())
        phase = runner.stats.phases["probe"]
        assert phase.queries == 4 * len(tiny_world.engines)
        assert phase.pool_tasks > 0

    def test_render_stats_smoke(self, tiny_world):
        from repro.core.report import render_stats

        study = ComparativeStudy(tiny_world)
        text = render_stats(study)
        assert "workers=" in text
        assert "evidence cache" in text


def test_engine_cache_counters(tiny_world):
    from repro.entities.queries import ranking_queries

    _fresh(tiny_world)
    engine = tiny_world.engines["GPT-4o"]
    query = ranking_queries(tiny_world.catalog, count=1, seed=41)[0]
    engine.answer(query)
    engine.answer(query)
    assert engine.cache_stats() == (1, 1)
    engine.clear_cache()
    assert engine.cache_stats() == (0, 0)
