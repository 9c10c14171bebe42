"""Parallel study execution: worker pools, evidence caching, run stats.

The paper's workloads are embarrassingly parallel across (engine, query)
pairs, and the Section 3 experiments re-retrieve the same evidence
context ``D_q`` for the same queries in Tables 1, 2 and 3.  This module
exploits both facts:

* :class:`StudyRunner` fans ``engine.answer_all`` out over a
  ``concurrent.futures`` pool.  ``workers=1`` (the default) is the plain
  sequential loop the study always used, so determinism-sensitive tests
  see no pool at all.  With ``workers > 1`` the workload is chunked per
  engine and reassembled in submission order, which makes parallel
  results **byte-identical** to sequential ones — engines are
  deterministic per query, and ordering is fixed by construction, not by
  completion time.
* :class:`EvidenceCache` is the world-level memo for the Section 3.1
  evidence contexts, keyed ``(query text, policy, index epoch)``, so
  each context is retrieved exactly once per world no matter how many
  experiments revisit it.  Like every memo in the codebase — the
  engine answer memos, :class:`~repro.search.engine.SearchEngine`'s
  query-result cache and its :class:`~repro.search.snippets.SnippetCache`
  — it is a :class:`~repro.caching.BoundedCache`: instance-owned and
  lock-guarded, so forked pool workers inherit warm copies
  copy-on-write, the thread executor shares one safely, and cached
  values are deterministic, so worker topology never changes results.
* :class:`RunStats` counts what happened (queries answered, pool tasks,
  cache hits/misses, wall time per phase) and is rendered by
  :func:`repro.core.report.render_stats` and ``python -m repro run
  --stats``.

Process pools use the ``fork`` start method and ship the world to
workers by inheritance (:func:`repro.forkpool.fork_inherit`), so
nothing as large as a corpus is ever pickled; only query chunks go in
and answer lists come back.  On platforms without ``fork`` the runner
degrades to threads — with a :class:`RuntimeWarning` and the effective
executor recorded in :class:`RunStats`, so degraded runs are visible.

Resilience (see :mod:`repro.resilience`): when the world carries an
installed :class:`~repro.resilience.context.ResilienceContext`, the
runner becomes a containment boundary.  A failing worker chunk is
retried with deterministic backoff and, if it keeps failing, re-run
query-by-query in the parent so the surviving queries complete and only
the truly broken ones are quarantined as degraded answers — the pool is
never killed.  A :class:`~repro.resilience.journal.RunJournal` records
each completed (engine, query-chunk) result so ``python -m repro run
--resume`` replays finished chunks and recomputes only the missing
ones.  Without a context, failures propagate exactly as before — as a
:class:`ChunkExecutionError` naming the engine and query ids.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.caching import BoundedCache, CacheCounters
from repro.engines.base import Answer
from repro.entities.queries import Query
from repro.forkpool import EXECUTORS, fork_inherit, inherited
from repro.llm.rng import derive_seed
from repro.resilience.context import ResilienceContext, ResilienceEvents
from repro.resilience.faults import ResilienceExhausted
from repro.resilience.journal import RunJournal, journal_key
from repro.resilience.quarantine import QuarantineRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.world import World

__all__ = [
    "ChunkExecutionError",
    "EvidenceCache",
    "PhaseStats",
    "RunStats",
    "StudyRunner",
]


# ----------------------------------------------------------------------
# Evidence cache


class EvidenceCache(BoundedCache):
    """World-level memo for the Section 3.1 evidence contexts.

    A :class:`~repro.caching.BoundedCache` under its own witness site.
    The study keys it ``(query text, policy, index epoch)`` — everything
    the retrieval depends on (the policy carries the evidence depth) —
    so ``counters().misses == len(cache)`` until eviction begins: one
    retrieval per key per world.  No epoch supplier: the cache never
    sees the index, the *keys* carry its epoch, which the witness's
    same-key/different-value check enforces.
    """

    def __init__(self, limit: int = 8192) -> None:
        super().__init__(limit, site="EvidenceCache._entries")

    @property
    def stats(self) -> CacheCounters:
        """A snapshot of :meth:`counters`, under the name the repo
        benchmark's evidence layer reads (``perfbench/layers.py``)."""
        return self.counters()


# ----------------------------------------------------------------------
# Run statistics


@dataclass
class PhaseStats:
    """What one labelled phase of a run did."""

    label: str
    seconds: float = 0.0
    queries: int = 0
    pool_tasks: int = 0


class RunStats:
    """Timing and work counters for one study run.

    Phases are labelled via the :meth:`phase` context manager (the
    experiment registry labels them with the experiment id); pool
    accounting from :class:`StudyRunner` lands on whichever phase is
    active, or an ``(ad hoc)`` bucket outside any phase.

    Beyond phase timing the stats carry the run's resilience telemetry:
    ``effective_executor`` (what the pool actually ran on, e.g. after a
    no-``fork`` degrade), ``journal_replays`` (chunks served from the
    resume journal), and ``resilience_events`` (a snapshot of the
    context's retry/fault/breaker/quarantine counters, refreshed after
    every ``StudyRunner.answers`` call).
    """

    def __init__(self, workers: int = 1, executor: str = "process") -> None:
        self.workers = workers
        self.executor = executor
        self.phases: dict[str, PhaseStats] = {}
        self._stack: list[str] = []
        self.effective_executor: str | None = None
        self.journal_replays = 0
        self.resilience_events: dict[str, int] = {}

    @property
    def current_phase(self) -> str:
        """The innermost active phase label (``(ad hoc)`` outside any)."""
        return self._stack[-1] if self._stack else "(ad hoc)"

    def _bucket(self, label: str | None = None) -> PhaseStats:
        name = label or self.current_phase
        if name not in self.phases:
            self.phases[name] = PhaseStats(label=name)
        return self.phases[name]

    @contextmanager
    def phase(self, label: str) -> Iterator[PhaseStats]:
        """Attribute wall time (and nested pool work) to ``label``."""
        bucket = self._bucket(label)
        self._stack.append(label)
        started = time.perf_counter()  # detlint: ignore[DET002] -- RunStats timing, not part of results
        try:
            yield bucket
        finally:
            self._stack.pop()
            bucket.seconds += time.perf_counter() - started  # detlint: ignore[DET002]

    def count_pool_work(self, queries: int, pool_tasks: int) -> None:
        """Record one ``StudyRunner.answers`` call against the active phase."""
        bucket = self._bucket()
        bucket.queries += queries
        bucket.pool_tasks += pool_tasks

    @property
    def total_queries(self) -> int:
        return sum(p.queries for p in self.phases.values())

    @property
    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.phases.values())


# ----------------------------------------------------------------------
# Worker-side entry points


class ChunkExecutionError(RuntimeError):
    """A worker chunk failed with containment disabled (fail-fast path).

    Wraps the originating exception with the engine name and the query
    ids of the chunk, so a crash in a pool worker is attributable
    without digging through executor tracebacks.
    """

    def __init__(self, engine: str, queries: list[Query], cause: BaseException) -> None:
        ids = tuple(query.id for query in queries)
        head = ", ".join(ids[:4]) + (", ..." if len(ids) > 4 else "")
        super().__init__(
            f"engine {engine!r} chunk of {len(ids)} queries [{head}] failed: {cause}"
        )
        self.engine = engine
        self.query_ids = ids


@dataclass
class ChunkOutcome:
    """A process-pool chunk's answers plus the worker's telemetry delta.

    Event counters and quarantine records accumulated inside a forked
    worker would die with it; the worker ships the deltas home with the
    answers and the parent merges them, keeping ``render_stats`` honest
    about work done on the other side of the fork.
    """

    answers: list[Answer]
    events: dict[str, int] = field(default_factory=dict)
    quarantined: tuple[QuarantineRecord, ...] = ()


def _execute_chunk(
    world: "World", engine_name: str, queries: list[Query], attempt: int = 1
) -> list[Answer]:
    """Answer one chunk against ``world`` (shared by both executors).

    The ``"runner.chunk"`` fault site lives here: a plan can crash a
    whole chunk deterministically, keyed by (engine, first query id,
    size) so a parent-side resubmission — which bumps ``attempt`` —
    can deterministically succeed.
    """
    ctx = world.resilience
    if ctx is not None and queries:
        key = (engine_name, queries[0].id, len(queries))
        ctx.injector.check("runner.chunk", key, attempt, clock=ctx.clock)
    return world.engines[engine_name].answer_all(queries)


def _answer_chunk(
    engine_name: str, queries: list[Query], attempt: int = 1
) -> "list[Answer] | ChunkOutcome":
    """Answer one chunk in a forked worker, via the inherited world.

    With resilience installed, returns a :class:`ChunkOutcome` carrying
    the worker-local event/quarantine deltas; without, the plain answer
    list (byte-for-byte the historical protocol).
    """
    world: "World" = inherited()
    ctx = world.resilience
    if ctx is None:
        return _execute_chunk(world, engine_name, queries, attempt)
    events_before = ctx.events.snapshot()
    quarantine_before = len(ctx.quarantine)
    answers = _execute_chunk(world, engine_name, queries, attempt)
    return ChunkOutcome(
        answers=answers,
        events=ResilienceEvents.delta(events_before, ctx.events.snapshot()),
        quarantined=ctx.quarantine.records()[quarantine_before:],
    )


def _degraded_answer(engine_name: str, query: Query) -> Answer:
    """The empty placeholder emitted for a quarantined query.

    Keeps every answer list position-aligned with its workload (the
    figure-level subsetting indexes by position) while contributing no
    citations and no ranking — analyses see the cell as missing data.
    """
    return Answer(engine=engine_name, query_id=query.id, text="", citations=())


# ----------------------------------------------------------------------
# The runner


class StudyRunner:
    """Fans engine workloads out over a worker pool.

    ``workers`` and ``executor`` default to the world's
    :class:`~repro.core.config.StudyConfig`; ``workers=1`` takes the
    exact sequential path the study always had.  Executors:

    * ``"process"`` — ``fork``-based :class:`ProcessPoolExecutor`; the
      world is inherited copy-on-write, chunks of queries go out,
      answers come back.  Worker-side engine memo caches are forked
      copies and die with the pool, so the parent's caches are never
      mutated concurrently.  Falls back to threads where ``fork`` is
      unavailable (with a warning; ``stats.effective_executor`` records
      what actually ran).
    * ``"thread"`` — :class:`ThreadPoolExecutor` sharing the parent's
      engines; :meth:`AnswerEngine.answer` inserts under a lock, so the
      shared memo cache is safe (duplicate computations are
      deterministic and identical).

    Determinism invariant: results are keyed by (engine, chunk index)
    and reassembled in submission order, so for any worker count the
    output is byte-identical to ``workers=1``.

    Failure model: without a resilience context a failing chunk raises
    :class:`ChunkExecutionError` naming the engine and queries (fail
    fast).  With one installed, the chunk is resubmitted with backoff
    and, if still failing, re-run query-by-query in the parent; queries
    that cannot complete are quarantined as degraded answers and the
    run continues.  ``journal`` (a
    :class:`~repro.resilience.journal.RunJournal`) replays completed
    chunks across runs for ``--resume``.
    """

    def __init__(
        self,
        world: "World",
        workers: int | None = None,
        executor: str | None = None,
        stats: RunStats | None = None,
        journal: RunJournal | None = None,
    ) -> None:
        config = world.config
        self._world = world
        self.workers = config.workers if workers is None else workers
        self.executor = config.executor if executor is None else executor
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.executor not in EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}")
        self.stats = stats or RunStats(self.workers, self.executor)
        self._journal = journal
        self._config_fingerprint: str | None = None

    # ------------------------------------------------------------------

    def _resilience(self) -> ResilienceContext | None:
        return getattr(self._world, "resilience", None)

    def answers(self, queries: Sequence[Query]) -> dict[str, list[Answer]]:
        """Every engine's answers to ``queries``, possibly in parallel."""
        queries = list(queries)
        engines = self._world.engines
        ctx = self._resilience()
        if self.workers == 1 or len(queries) < 2:
            self.stats.count_pool_work(len(queries) * len(engines), 0)
            results = {
                name: self._answer_sequential(name, queries, ctx)
                for name in engines
            }
            self._mirror_events(ctx)
            return results
        return self._answers_pooled(queries, ctx)

    def _chunks(self, queries: list[Query]) -> list[list[Query]]:
        size = max(1, -(-len(queries) // self.workers))  # ceil division
        return [queries[i : i + size] for i in range(0, len(queries), size)]

    # ------------------------------------------------------------------
    # Journal keys and event mirroring

    def _journal_key(self, engine_name: str, queries: list[Query]) -> str:
        if self._config_fingerprint is None:
            config = self._world.config
            self._config_fingerprint = format(
                derive_seed(
                    "config", config.seed, config.corpus_scale,
                    config.study_date, config.sizes,
                ),
                "016x",
            )
        ctx = self._resilience()
        plan_fingerprint = "no-resilience" if ctx is None else str(ctx.config.plan)
        return journal_key(
            self._config_fingerprint,
            plan_fingerprint,
            engine_name,
            tuple(query.id for query in queries),
        )

    def _mirror_events(self, ctx: ResilienceContext | None) -> None:
        if ctx is not None:
            self.stats.resilience_events = ctx.events.snapshot()

    # ------------------------------------------------------------------
    # Sequential path

    def _answer_sequential(
        self, name: str, queries: list[Query], ctx: ResilienceContext | None
    ) -> list[Answer]:
        engine = self._world.engines[name]
        if ctx is None and self._journal is None:
            return engine.answer_all(queries)
        key = self._journal_key(name, queries)
        if self._journal is not None:
            replayed = self._journal.lookup(key, self._world.corpus)
            if replayed is not None and len(replayed) == len(queries):
                self.stats.journal_replays += 1
                return replayed
        answers, clean = self._contained_answers(name, engine, queries, ctx)
        if self._journal is not None and clean:
            self._journal.record(key, self.stats.current_phase, name, answers)
        return answers

    def _contained_answers(
        self, name: str, engine, queries: list[Query], ctx: ResilienceContext | None
    ) -> tuple[list[Answer], bool]:
        """Answer query-by-query, quarantining the ones that cannot finish.

        The last rung of the degradation ladder: every query below this
        point has already exhausted its site-level retries (or hit an
        open breaker, or a genuine bug).  Returns the position-aligned
        answers and whether the batch finished clean (journal-worthy).
        """
        if ctx is None or ctx.config.fail_fast:
            return engine.answer_all(queries), True
        answers: list[Answer] = []
        clean = True
        for query in queries:
            try:
                answers.append(engine.answer(query))
            except ResilienceExhausted as exc:
                clean = False
                ctx.events.bump("quarantined_queries")
                ctx.quarantine.record(
                    QuarantineRecord(
                        phase=ctx.current_phase, site=exc.site, engine=name,
                        key=query.id, attempts=exc.attempts, reason=exc.reason,
                    )
                )
                answers.append(_degraded_answer(name, query))
            except Exception as exc:  # containment boundary: keep the run alive
                clean = False
                ctx.events.bump("quarantined_queries")
                ctx.quarantine.record(
                    QuarantineRecord(
                        phase=ctx.current_phase, site="engine.answer", engine=name,
                        key=query.id, attempts=1,
                        reason=f"unhandled {type(exc).__name__}: {exc}",
                    )
                )
                answers.append(_degraded_answer(name, query))
        return answers, clean

    # ------------------------------------------------------------------
    # Pooled path

    def _submit_chunk(
        self, pool, forked: bool, name: str, chunk: list[Query], attempt: int
    ) -> Future:
        if forked:
            return pool.submit(_answer_chunk, name, chunk, attempt)
        return pool.submit(_execute_chunk, self._world, name, chunk, attempt)

    def _collect_chunk(
        self,
        pool,
        forked: bool,
        name: str,
        chunk: list[Query],
        future: Future,
        ctx: ResilienceContext | None,
    ) -> tuple[list[Answer], bool]:
        """One chunk's answers, after containment.  Returns (answers, clean)."""
        attempt = 1
        while True:
            try:
                raw = future.result()
            except Exception as exc:
                if ctx is None or ctx.config.fail_fast:
                    raise ChunkExecutionError(name, chunk, exc) from exc
                delay = ctx.config.retry.delay(attempt)
                if attempt < ctx.config.retry.max_attempts and ctx.deadline_allows(delay):
                    ctx.clock.sleep(delay)
                    ctx.events.bump("chunk_retries")
                    attempt += 1
                    future = self._submit_chunk(pool, forked, name, chunk, attempt)
                    continue
                # Chunk-level retries exhausted: salvage the chunk in the
                # parent, query by query, quarantining only what must be.
                ctx.events.bump("chunk_fallbacks")
                return self._contained_answers(
                    name, self._world.engines[name], chunk, ctx
                )
            if isinstance(raw, ChunkOutcome):
                if ctx is not None:
                    ctx.events.merge(raw.events)
                    ctx.quarantine.extend(raw.quarantined)
                return raw.answers, True
            return raw, True

    def _answers_pooled(
        self, queries: list[Query], ctx: ResilienceContext | None
    ) -> dict[str, list[Answer]]:
        engines = self._world.engines
        chunks = self._chunks(queries)

        # Resume: chunks already journalled replay without touching the pool.
        keys: dict[tuple[str, int], str] = {}
        replayed: dict[tuple[str, int], list[Answer]] = {}
        if self._journal is not None:
            for name in engines:
                for index, chunk in enumerate(chunks):
                    key = self._journal_key(name, chunk)
                    keys[(name, index)] = key
                    cached = self._journal.lookup(key, self._world.corpus)
                    if cached is not None and len(cached) == len(chunk):
                        self.stats.journal_replays += 1
                        replayed[(name, index)] = cached

        futures: dict[tuple[str, int], Future] = {}
        fresh: dict[tuple[str, int], tuple[list[Answer], bool]] = {}
        with fork_inherit(self._world, self.executor, self.workers) as (
            pool,
            forked,
        ):
            self.stats.effective_executor = "process" if forked else "thread"
            for name in engines:
                for index, chunk in enumerate(chunks):
                    if (name, index) in replayed:
                        continue
                    futures[(name, index)] = self._submit_chunk(
                        pool, forked, name, chunk, 1
                    )
            # Collection in submission order — not completion order —
            # is what makes the output independent of scheduling.
            for name in engines:
                for index, chunk in enumerate(chunks):
                    slot = (name, index)
                    if slot in replayed:
                        continue
                    fresh[slot] = self._collect_chunk(
                        pool, forked, name, chunk, futures[slot], ctx
                    )

        if self._journal is not None:
            for slot, (chunk_answers, clean) in fresh.items():
                if clean:
                    self._journal.record(
                        keys[slot], self.stats.current_phase, slot[0], chunk_answers
                    )

        results = {
            name: [
                answer
                for index in range(len(chunks))
                for answer in (
                    replayed[(name, index)]
                    if (name, index) in replayed
                    else fresh[(name, index)][0]
                )
            ]
            for name in engines
        }
        self.stats.count_pool_work(
            len(queries) * len(engines), len(chunks) * len(engines)
        )
        self._mirror_events(ctx)
        return results
