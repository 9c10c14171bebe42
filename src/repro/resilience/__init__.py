"""Deterministic fault injection and resilience for the study pipeline.

The paper's apparatus is a fleet of live commercial APIs whose real
failure modes — timeouts, rate limits, truncated responses, partial
retrieval — any large-scale measurement study has to survive.  This
package gives the reproduction the same survival machinery, built on the
repo's determinism contract:

* :mod:`repro.resilience.faults` — a seeded :class:`FaultInjector`
  driven by :func:`repro.llm.rng.derive_rng`: whether a named site
  faults on a given (key, attempt) is a pure function of the fault
  plan, so chaos runs are bit-replayable.
* :mod:`repro.resilience.clock` — :class:`SimClock`, a simulated
  monotonic clock advanced only by backoff sleeps and injected
  timeouts.  No wall-clock reads (detlint DET002 clean).
* :mod:`repro.resilience.policy` — :class:`RetryPolicy` (deterministic
  exponential backoff) and :class:`CircuitBreaker` (per-engine,
  counting *exhausted* operations, never transient attempts, so
  recoverable fault plans cannot trip it).
* :mod:`repro.resilience.quarantine` — the per-query quarantine
  registry with per-cell provenance for report annotations.
* :mod:`repro.resilience.context` — :class:`ResilienceContext`, the
  world-level bundle the fault sites consult, and its retrying
  :meth:`~ResilienceContext.call` primitive.
* :mod:`repro.resilience.journal` — :class:`RunJournal`, the on-disk
  record of completed (engine, query-chunk) results behind
  ``python -m repro run --resume``.

Invariants: with no resilience context installed the pipeline's code
paths are unchanged; with an empty fault plan installed, outputs are
byte-identical to the uninstalled tree; with a recoverable plan
(failures per key < retry attempts) outputs are byte-identical and the
retries surface in ``render_stats``.
"""

from repro.resilience.clock import SimClock
from repro.resilience.context import (
    ResilienceConfig,
    ResilienceContext,
    ResilienceEvents,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResilienceExhausted,
)
from repro.resilience.journal import RunJournal
from repro.resilience.policy import CircuitBreaker, RetryPolicy
from repro.resilience.quarantine import Quarantine, QuarantineRecord

__all__ = [
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "Quarantine",
    "QuarantineRecord",
    "ResilienceConfig",
    "ResilienceContext",
    "ResilienceEvents",
    "ResilienceExhausted",
    "RetryPolicy",
    "RunJournal",
    "SimClock",
]
