"""Counters and latency accounting for the serving tier.

Two timelines coexist in a serve run and the stats keep them apart:

* **Simulated time** orders the stream itself — request arrivals come
  from the load generator on the
  :class:`~repro.resilience.clock.SimClock` timeline and are fully
  deterministic.
* **Wall time** measures what the hardware actually did — per-request
  service latency and whole-run throughput.  Wall-clock numbers are
  telemetry, never results: answers are byte-identical across runs
  while latencies legitimately vary, which is why they live here and
  in ``BENCH_serving.json`` rather than anywhere the determinism
  contract covers.

All counter and latency writes happen under the instance lock
(conclint CONC002): the serve loop's pool workers share one
:class:`ServeStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lockorder import witness_lock

__all__ = ["LatencySummary", "ServeSnapshot", "ServeStats", "percentile"]

#: Request outcomes the loop classifies; order fixes rendering.
#: ``partial`` is retired and always 0: the loop no longer produces it,
#: but ``perfbench/workloads.py`` still reads ``outcomes["partial"]``,
#: so the key stays until the next benchmark change drops that read.
OUTCOMES = ("hit", "coalesced", "miss", "shed", "degraded", "partial")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Deterministic and dependency-free; 0.0 on an empty sample so
    renderers never special-case cold stats.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(q * len(ordered)) // 100))  # ceil(q/100 * n)
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(frozen=True)
class LatencySummary:
    """Percentiles over one latency sample, in milliseconds."""

    count: int
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def of(cls, seconds: list[float]) -> "LatencySummary":
        ms = [1000.0 * s for s in seconds]
        return cls(
            count=len(ms),
            p50_ms=percentile(ms, 50),
            p90_ms=percentile(ms, 90),
            p99_ms=percentile(ms, 99),
            max_ms=max(ms) if ms else 0.0,
        )


@dataclass(frozen=True)
class ServeSnapshot:
    """A point-in-time copy of one serve run's accounting."""

    #: Outcome name -> request count (every OUTCOMES key present).
    outcomes: dict[str, int]
    #: Callers that blocked on admission (queue at capacity).
    admission_waits: int
    service: LatencySummary
    queue_delay: LatencySummary
    #: Wall seconds the whole stream took to drain.
    wall_seconds: float
    #: Simulated seconds the arrival timeline spanned.
    sim_seconds: float

    @property
    def requests(self) -> int:
        return sum(self.outcomes.values())

    @property
    def answered(self) -> int:
        """Requests that produced a real answer (not shed or degraded)."""
        return (
            self.outcomes["hit"]
            + self.outcomes["coalesced"]
            + self.outcomes["miss"]
        )

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall second (0.0 before any work)."""
        return self.requests / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def duplicate_absorption(self) -> float:
        """Fraction of answered requests served without a computation.

        ``(hits + coalesced) / answered`` — for a duplicated workload
        this is deterministic: the memo plus single-flight guarantee
        exactly one miss per distinct cache key.
        """
        answered = self.answered
        if not answered:
            return 0.0
        return (self.outcomes["hit"] + self.outcomes["coalesced"]) / answered

    def payload(self) -> dict:
        """The JSON-ready block ``BENCH_serving.json`` records."""
        return {
            "requests": self.requests,
            "outcomes": dict(self.outcomes),
            "admission_waits": self.admission_waits,
            "duplicate_absorption": round(self.duplicate_absorption, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "wall_seconds": round(self.wall_seconds, 4),
            "sim_seconds": round(self.sim_seconds, 2),
            "service_ms": {
                "p50": round(self.service.p50_ms, 3),
                "p90": round(self.service.p90_ms, 3),
                "p99": round(self.service.p99_ms, 3),
                "max": round(self.service.max_ms, 3),
            },
            "queue_delay_ms": {
                "p50": round(self.queue_delay.p50_ms, 3),
                "p99": round(self.queue_delay.p99_ms, 3),
            },
        }


class ServeStats:
    """Lock-guarded accumulator shared by the serve loop's workers."""

    def __init__(self) -> None:
        self._lock = witness_lock("ServeStats._lock")
        self._outcomes = {name: 0 for name in OUTCOMES}
        self._admission_waits = 0
        self._service: list[float] = []
        self._queue_delay: list[float] = []
        self._wall_seconds = 0.0
        self._sim_seconds = 0.0

    def record(
        self, outcome: str, service_seconds: float, queue_delay_seconds: float
    ) -> None:
        """Account one finished request."""
        if outcome not in self._outcomes:
            raise ValueError(f"unknown outcome {outcome!r}")
        with self._lock:
            self._outcomes[outcome] += 1
            self._service.append(service_seconds)
            self._queue_delay.append(queue_delay_seconds)

    def record_admission_wait(self) -> None:
        with self._lock:
            self._admission_waits += 1

    def record_run(self, wall_seconds: float, sim_seconds: float) -> None:
        """Account one drained stream's timelines (additive)."""
        with self._lock:
            self._wall_seconds += wall_seconds
            self._sim_seconds += sim_seconds

    def snapshot(self) -> ServeSnapshot:
        # Copy under the lock, summarize outside it: LatencySummary.of
        # sorts the whole sample, and an O(n log n) pass under a lock
        # every worker touches per request is a convoy (locklint
        # LOCK002's compute-outside-the-lock discipline).
        with self._lock:
            outcomes = dict(self._outcomes)
            admission_waits = self._admission_waits
            service = list(self._service)
            queue_delay = list(self._queue_delay)
            wall_seconds = self._wall_seconds
            sim_seconds = self._sim_seconds
        return ServeSnapshot(
            outcomes=outcomes,
            admission_waits=admission_waits,
            service=LatencySummary.of(service),
            queue_delay=LatencySummary.of(queue_delay),
            wall_seconds=wall_seconds,
            sim_seconds=sim_seconds,
        )

    def reset(self) -> None:
        with self._lock:
            self._outcomes = {name: 0 for name in OUTCOMES}
            self._admission_waits = 0
            self._service = []
            self._queue_delay = []
            self._wall_seconds = 0.0
            self._sim_seconds = 0.0
