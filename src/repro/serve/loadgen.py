"""Deterministic, popularity-skewed request streams for the serving tier.

"Characterizing Web Search in the Age of Generative AI" motivates the
workload shape: live answer traffic is dominated by a small head of hot
queries with a long tail, and arrivals are bursty, not uniform.  The
generator reproduces both properties deterministically:

* **Query popularity is zipfian.**  The pool is drawn from the study's
  own workload generators (:mod:`repro.entities.queries` — ranking,
  comparison and intent queries), ranked in pool order, and each request
  samples rank ``r`` with probability proportional to ``1 / (r+1)**s``.
  The head of the pool therefore dominates the stream exactly the way a
  production query log's head does — which is what makes the serving
  tier's memo caches and request coalescing worth measuring.
* **Arrivals are bursty.**  Requests arrive in bursts whose size is
  geometric with mean ``burstiness``; bursts are separated by
  exponential gaps with rate ``qps / burstiness`` so the long-run rate
  stays ``qps`` regardless of how bursty the stream is.  ``burstiness=1``
  degenerates to a plain Poisson stream.  Arrival times are *simulated*
  seconds (the :class:`~repro.resilience.clock.SimClock` timeline), so
  the stream itself is a pure function of the profile — no wall clock,
  no detlint DET002 surface.

Every draw comes from one :func:`~repro.llm.rng.derive_rng` stream
seeded by the profile, so two generators with equal profiles emit
byte-identical request streams in any process.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.engines.registry import ENGINE_NAMES
from repro.entities.catalog import EntityCatalog
from repro.entities.queries import (
    Query,
    comparison_queries,
    intent_queries,
    ranking_queries,
)
from repro.llm.rng import derive_rng

__all__ = ["LoadProfile", "ServeRequest", "generate_requests", "query_pool"]


@dataclass(frozen=True)
class LoadProfile:
    """Everything that shapes one request stream (all of it seeded)."""

    #: Total requests to emit.
    requests: int = 256
    #: Long-run arrival rate, in requests per simulated second.
    qps: float = 32.0
    #: Mean burst size (>= 1).  1.0 is a plain Poisson stream; larger
    #: values pack arrivals into bursts at the same long-run rate.
    burstiness: float = 1.0
    #: Zipf exponent over query popularity ranks; larger is more skewed.
    zipf_s: float = 1.1
    #: Distinct queries in the pool the stream samples from.
    pool_size: int = 96
    #: Engines requests may target; empty means the full fleet.
    engines: tuple[str, ...] = ()
    #: Seed for every draw the generator makes.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be at least 1")
        if not (math.isfinite(self.qps) and self.qps > 0):
            raise ValueError("qps must be positive and finite")
        if not (math.isfinite(self.burstiness) and self.burstiness >= 1.0):
            raise ValueError("burstiness must be finite and at least 1")
        if not (math.isfinite(self.zipf_s) and self.zipf_s >= 0):
            raise ValueError("zipf_s must be finite and non-negative")
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        for name in self.engines:
            if name not in ENGINE_NAMES:
                known = ", ".join(ENGINE_NAMES)
                raise ValueError(f"unknown engine {name!r}; known: {known}")


@dataclass(frozen=True)
class ServeRequest:
    """One answer request: who asks which engine what, and when."""

    #: Stream position (0-based); ties on ``arrival`` preserve it.
    index: int
    #: Simulated seconds since stream start.
    arrival: float
    #: Target engine name (a key of ``world.engines``).
    engine: str
    query: Query


def query_pool(
    catalog: EntityCatalog, size: int, seed: int = 0
) -> list[Query]:
    """A popularity-ranked pool mixing the study's three query shapes.

    Pool order *is* popularity rank: the zipfian sampler weights early
    entries most, so interleaving ranking/comparison/intent queries
    round-robin keeps every shape represented in the hot head rather
    than burying whole shapes in the tail.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    per_shape = -(-size // 3)  # ceil: over-generate, then interleave
    shapes = [
        ranking_queries(catalog, count=per_shape, seed=seed, id_prefix="sv"),
        comparison_queries(
            catalog,
            n_popular=-(-per_shape // 2),
            n_niche=per_shape // 2,
            seed=seed,
        ),
        intent_queries(catalog, count=max(3, per_shape), seed=seed),
    ]
    interleaved = [
        query
        for group in itertools.zip_longest(*shapes)
        for query in group
        if query is not None
    ]
    return interleaved[:size]


def _zipf_cumulative(size: int, s: float) -> list[float]:
    """Cumulative zipfian weights over ranks ``0..size-1``."""
    total = 0.0
    cumulative = []
    for rank in range(size):
        total += 1.0 / float(rank + 1) ** s
        cumulative.append(total)
    return cumulative


def generate_requests(
    catalog: EntityCatalog,
    profile: LoadProfile,
    pool: Sequence[Query] | None = None,
) -> list[ServeRequest]:
    """The full request stream for ``profile``, in arrival order.

    A pure function of ``(catalog, profile, pool)``: queries, engines,
    burst shapes and arrival gaps all come from one derived RNG stream,
    so equal inputs yield byte-identical streams anywhere.
    """
    queries = (
        list(pool)
        if pool is not None
        else query_pool(catalog, profile.pool_size, seed=profile.seed)
    )
    if not queries:
        raise ValueError("query pool is empty")
    engines = tuple(profile.engines) or ENGINE_NAMES
    rng = derive_rng(
        "serve.loadgen",
        profile.seed,
        profile.requests,
        profile.qps,
        profile.burstiness,
        profile.zipf_s,
        len(queries),
        engines,
    )
    cumulative = _zipf_cumulative(len(queries), profile.zipf_s)
    total_weight = cumulative[-1]

    requests: list[ServeRequest] = []
    now = 0.0
    burst_left = 0
    burst_rate = profile.qps / profile.burstiness
    for index in range(profile.requests):
        if burst_left == 0:
            # Next burst: geometric size with mean ``burstiness``;
            # exponential gap keeps the long-run rate at ``qps``.
            if profile.burstiness > 1.0:
                burst_left = _geometric(rng, profile.burstiness)
                now += rng.expovariate(burst_rate)
            else:
                burst_left = 1
                now += rng.expovariate(profile.qps)
        rank = bisect.bisect_left(cumulative, rng.random() * total_weight)
        requests.append(
            ServeRequest(
                index=index,
                arrival=now,
                engine=engines[
                    rng.randrange(len(engines)) if len(engines) > 1 else 0
                ],
                query=queries[min(rank, len(queries) - 1)],
            )
        )
        burst_left -= 1
    return requests


def _geometric(rng, mean: float) -> int:
    """A geometric draw with the given mean (support ``1, 2, ...``)."""
    success = 1.0 / mean
    size = 1
    while rng.random() > success:
        size += 1
    return size
