"""The answer-serving tier: a long-lived loop over a warm world.

Turns the one-shot batch study into a long-running service: a
:class:`~repro.serve.loop.ServeLoop` drains deterministic,
popularity-skewed request streams (:mod:`repro.serve.loadgen`) across
the engine fleet with admission control, per-engine circuit-breaker
backpressure, and single-flight request coalescing
(:mod:`repro.serve.singleflight`), recording latency percentiles and
throughput (:mod:`repro.serve.stats`) without ever perturbing the
byte-identical answer contract.

Entry points: ``python -m repro serve`` on the CLI,
:meth:`repro.core.world.World.serve_loop` in code.
"""

from repro.serve.loadgen import (
    LoadProfile,
    ServeRequest,
    generate_requests,
    query_pool,
)
from repro.serve.loop import ServeLoop, ServeResult, answers_digest
from repro.serve.singleflight import SingleFlight
from repro.serve.stats import LatencySummary, ServeSnapshot, ServeStats

__all__ = [
    "LatencySummary",
    "LoadProfile",
    "ServeLoop",
    "ServeRequest",
    "ServeResult",
    "ServeSnapshot",
    "ServeStats",
    "SingleFlight",
    "answers_digest",
    "generate_requests",
    "query_pool",
]
