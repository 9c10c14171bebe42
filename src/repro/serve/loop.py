"""The answer-serving loop: a long-lived process over a warm world.

The batch study answers a fixed workload once; a serving tier drains an
open-ended *stream* of answer requests against a warm
:class:`~repro.core.world.World`, multiplexed across the whole engine
fleet.  :class:`ServeLoop` is that tier, built from pieces the pipeline
already trusts:

* **Memo hits at admission.**  The submitting thread peeks the target
  engine's memo as each request arrives; a hit (``hit``) is answered
  right there, with no future, no admission slot and no worker
  handoff.  On a popularity-skewed stream most requests are hits, so
  most of a drain never touches the pool.
* **Thread-pool scheduling, deterministic results.**  Cold keys are
  dispatched to a :class:`~concurrent.futures.ThreadPoolExecutor` in
  arrival order; every result lands at its stream position.  Engines
  are deterministic per query, so the *answers* are byte-identical at
  any worker width — only wall-clock latency varies.  (Processes would
  defeat the point: coalescing and memo sharing need one address
  space.)
* **Admission control.**  A bounded in-flight window applies
  backpressure to the pool: when the cold backlog reaches
  ``max_pending`` the submitter blocks (counted as an admission wait)
  instead of growing an unbounded queue.  Nothing is silently dropped,
  so completeness — and with it determinism — survives overload.
* **Request coalescing (single-flight).**  Cold keys enter a
  :class:`~repro.serve.singleflight.SingleFlight` group so concurrent
  duplicates of one ``Query.cache_key`` collapse into a single
  ``_answer_uncached`` computation (``miss`` for the leader,
  ``coalesced`` for followers; a leader whose key was memoized since
  admission is a ``hit``).  For any workload the number of misses
  equals the number of distinct cold keys — exactly.
* **Per-engine backpressure (PR 5 reuse).**  With a resilience context
  installed, each request consults its engine's
  :class:`~repro.resilience.policy.CircuitBreaker` *before* the memo
  peek and any pool slot: an open breaker sheds the request (memoized
  or not) immediately as a degraded answer (``shed``) instead of
  queueing doomed work.  Requests that exhaust the retry ladder inside
  the engine come back as ``degraded``, quarantined with serve-phase
  provenance — the loop never dies.  The context's per-phase deadline
  budget applies to the ``"serve"`` phase like any other.

Latency accounting is wall-clock and lives in
:class:`~repro.serve.stats.ServeStats` — telemetry, never results; see
that module for the two-timeline contract.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.runner import _degraded_answer
from repro.engines.base import Answer
from repro.resilience.clock import SimClock
from repro.resilience.faults import ResilienceExhausted
from repro.resilience.quarantine import QuarantineRecord
from repro.serve.loadgen import ServeRequest
from repro.serve.singleflight import SingleFlight
from repro.serve.stats import ServeStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.world import World

__all__ = ["ServeLoop", "ServeResult", "answers_digest"]


@dataclass(frozen=True)
class ServeResult:
    """One served request: the answer plus how it was produced."""

    request: ServeRequest
    answer: Answer
    #: "hit" | "coalesced" | "miss" | "shed" | "degraded".
    outcome: str
    #: Wall seconds spent servicing the request: the admission-time
    #: memo peek alone for a hit, the pool worker's compute for a miss
    #: or a coalesced request, 0.0 when shed.
    service_seconds: float
    #: Wall seconds between submission and a worker picking it up;
    #: 0.0 for a hit or a shed, which never reach the pool.
    queue_delay_seconds: float


def answers_digest(results: Iterable[ServeResult]) -> str:
    """SHA-256 over the answer content of a result stream.

    Covers everything deterministic — stream position, engine, query
    identity, answer text, citations, ranked entities — and nothing
    timing-dependent (outcomes and latencies are excluded: hit vs
    coalesced legitimately varies with scheduling).  Two runs of the
    same stream must digest identically at any worker width.
    """
    hasher = hashlib.sha256()
    for result in results:
        answer = result.answer
        hasher.update(
            repr(
                (
                    result.request.index,
                    result.request.engine,
                    result.request.query.cache_key,
                    answer.text,
                    answer.cited_urls(),
                    answer.ranked_entities,
                )
            ).encode("utf-8")
        )
    return hasher.hexdigest()


class ServeLoop:
    """Serve answer-request streams against one warm world."""

    def __init__(
        self,
        world: "World",
        workers: int = 4,
        max_pending: int | None = None,
        stats: ServeStats | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self._world = world
        self.workers = workers
        #: Admission window: in-flight + queued cold requests the loop
        #: will hold before the submitter blocks (backpressure, not
        #: drops); hits are answered at admission and never hold a slot.
        self.max_pending = max_pending if max_pending is not None else 4 * workers
        self.stats = stats or ServeStats()
        self.flight = SingleFlight()
        ctx = getattr(world, "resilience", None)
        #: The arrival timeline; shared with the resilience context's
        #: clock when one is installed so breaker cooldowns and load
        #: arrivals agree on what "now" means.
        self.clock: SimClock = ctx.clock if ctx is not None else SimClock()

    # ------------------------------------------------------------------

    def serve(self, requests: Sequence[ServeRequest]) -> list[ServeResult]:
        """Drain one request stream; results in stream order.

        Blocks until every request has an answer (real, coalesced, or
        degraded).  Deterministic in content: the returned answers are
        byte-identical across runs and worker widths — use
        :func:`answers_digest` to compare.
        """
        requests = list(requests)
        ctx = getattr(self._world, "resilience", None)
        if ctx is not None:
            ctx.begin_phase("serve")
        admission = threading.BoundedSemaphore(self.max_pending)
        results: list[ServeResult | None] = [None] * len(requests)
        futures: list[tuple[int, Future]] = []
        started = time.perf_counter()  # detlint: ignore[DET002] -- latency telemetry, not results
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            for position, request in enumerate(requests):
                # Arrivals advance the simulated timeline (monotonic:
                # streams are generated in arrival order).
                gap = request.arrival - self.clock.now()
                self.clock.sleep(gap)
                # The breaker first, so an open one sheds even a memoized
                # key; then the memo, so a hit never takes a slot.
                served = self._shed(ctx, request) or self._hit(request)
                if served is not None:
                    results[position] = served
                    continue
                if not admission.acquire(blocking=False):
                    # Backlog at capacity: block — backpressure, never
                    # drops — and make the stall visible in the stats.
                    self.stats.record_admission_wait()
                    admission.acquire()
                submitted = time.perf_counter()  # detlint: ignore[DET002] -- latency telemetry
                try:
                    future = pool.submit(
                        self._serve_one, request, submitted, admission, ctx
                    )
                except BaseException:
                    # The slot's release belongs to the worker; if the
                    # handoff itself fails (pool shut down mid-drain),
                    # no worker will ever run, so give the slot back
                    # here or the semaphore leaks permits.
                    admission.release()
                    raise
                futures.append((position, future))
            # Collection in submission order: result order is stream
            # order, independent of completion order.
            for position, future in futures:
                results[position] = future.result()
        self.stats.record_run(
            wall_seconds=time.perf_counter() - started,  # detlint: ignore[DET002] -- latency telemetry
            sim_seconds=requests[-1].arrival if requests else 0.0,
        )
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------

    def _shed(self, ctx, request: ServeRequest) -> ServeResult | None:
        """Admission-time breaker check: shed doomed work before queueing.

        Only an *open* breaker sheds (half-open probes pass through so
        the engine can recover); without a resilience context nothing
        is ever shed, keeping the clean path byte-identical.
        """
        if ctx is None:
            return None
        if ctx.breaker_for(request.engine).allow():
            return None
        ctx.events.bump("serve_shed")
        self.stats.record(
            "shed", service_seconds=0.0, queue_delay_seconds=0.0
        )
        return ServeResult(
            request=request,
            answer=_degraded_answer(request.engine, request.query),
            outcome="shed",
            service_seconds=0.0,
            queue_delay_seconds=0.0,
        )

    def _hit(self, request: ServeRequest) -> ServeResult | None:
        """Admission-time memo peek: a hit is served right here.

        The submitting thread answers a memoized key itself — no
        future, no admission slot, no worker handoff — so a hit never
        queues and its service time is the peek alone.  A miss returns
        ``None`` and goes to the pool.
        """
        started = time.perf_counter()  # detlint: ignore[DET002] -- latency telemetry
        engine = self._world.engines[request.engine]
        cached = engine.cached_answer(request.query)
        if cached is None:
            return None
        service = time.perf_counter() - started  # detlint: ignore[DET002] -- latency telemetry
        self.stats.record("hit", service, 0.0)
        return ServeResult(
            request=request,
            answer=cached,
            outcome="hit",
            service_seconds=service,
            queue_delay_seconds=0.0,
        )

    def _serve_one(
        self,
        request: ServeRequest,
        submitted: float,
        admission: threading.BoundedSemaphore,
        ctx,
    ) -> ServeResult:
        """Service one cold key on a pool worker (conclint entry point)."""
        try:
            picked_up = time.perf_counter()  # detlint: ignore[DET002] -- latency telemetry
            queue_delay = picked_up - submitted
            engine = self._world.engines[request.engine]
            outcome, answer = self._compute(engine, request, ctx)
            service = time.perf_counter() - picked_up  # detlint: ignore[DET002] -- latency telemetry
            self.stats.record(outcome, service, queue_delay)
            return ServeResult(
                request=request,
                answer=answer,
                outcome=outcome,
                service_seconds=service,
                queue_delay_seconds=queue_delay,
            )
        finally:
            admission.release()

    def _compute(self, engine, request: ServeRequest, ctx):
        """One cold-key computation behind the single-flight group.

        The leader peeks the memo again before computing: a flight for
        the same key may have finished between the admission peek
        (:meth:`_hit`) and this one's start, and its answer is then a
        ``hit``, not a second ``miss``.
        """
        key = (request.engine, request.query.cache_key)

        def lead():
            cached = engine.cached_answer(request.query)
            if cached is not None:
                return cached, True
            return engine.answer(request.query), False

        try:
            (answer, memoized), led = self.flight.do(key, lead)
        except ResilienceExhausted as exc:
            # The retry ladder (or the breaker inside it) gave up:
            # degrade this request, with provenance, and keep serving.
            if ctx is None:  # engine wired without the world: strict
                raise
            ctx.events.bump("quarantined_queries")
            ctx.quarantine.record(
                QuarantineRecord(
                    phase=ctx.current_phase,
                    site=exc.site,
                    engine=request.engine,
                    key=request.query.id,
                    attempts=exc.attempts,
                    reason=exc.reason,
                )
            )
            return "degraded", _degraded_answer(request.engine, request.query)
        except Exception as exc:  # containment boundary: the loop survives
            if ctx is None or ctx.config.fail_fast:
                raise
            ctx.events.bump("quarantined_queries")
            ctx.quarantine.record(
                QuarantineRecord(
                    phase=ctx.current_phase,
                    site="engine.answer",
                    engine=request.engine,
                    key=request.query.id,
                    attempts=1,
                    reason=f"unhandled {type(exc).__name__}: {exc}",
                )
            )
            return "degraded", _degraded_answer(request.engine, request.query)
        if led and memoized:
            return "hit", answer
        return ("miss" if led else "coalesced"), answer
