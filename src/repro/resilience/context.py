"""The world-level resilience bundle and its retrying call primitive.

One :class:`ResilienceContext` per world (installed via
:meth:`repro.core.world.World.install_resilience`) carries everything
the fault sites consult: the seeded injector, the simulated clock, the
retry policy, per-engine circuit breakers, the per-phase deadline
budget, the quarantine registry, and the event counters that surface in
``render_stats``.  Forked pool workers inherit a copy-on-write snapshot;
their event/quarantine deltas travel back with the chunk results and
are merged by the runner, mirroring the engine memo caches' process
model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.lockorder import witness_lock
from repro.resilience.clock import SimClock
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    ResilienceExhausted,
)
from repro.resilience.policy import CircuitBreaker, RetryPolicy
from repro.resilience.quarantine import Quarantine

__all__ = ["ResilienceConfig", "ResilienceContext", "ResilienceEvents"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy knobs for one resilience context.

    ``deadline_budget`` caps the *simulated* seconds a phase may spend
    on backoff and injected timeouts; when the budget is gone, retries
    stop early and the operation quarantines.  ``fail_fast`` is the
    strict mode: injected faults and exhausted operations propagate
    instead of degrading — the pre-resilience behaviour, on demand.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 5
    breaker_cooldown: float = 300.0
    deadline_budget: float | None = None
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.deadline_budget is not None and self.deadline_budget < 0:
            raise ValueError("deadline_budget must be non-negative")


class ResilienceEvents:
    """Lock-guarded named counters (retries, faults, quarantines, ...)."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._lock = witness_lock("ResilienceEvents._lock")

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + by

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """A sorted-key copy of every nonzero counter."""
        with self._lock:
            return {name: self._counts[name] for name in sorted(self._counts)}

    def merge(self, delta: dict[str, int]) -> None:
        """Fold a forked worker's counter delta into this process."""
        with self._lock:
            for name in sorted(delta):
                self._counts[name] = self._counts.get(name, 0) + delta[name]

    @staticmethod
    def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        """``after - before``, keeping only the keys that moved."""
        moved = {}
        for name in sorted(after):
            change = after[name] - before.get(name, 0)
            if change:
                moved[name] = change
        return moved


class ResilienceContext:
    """Everything the fault sites and containment layers share."""

    def __init__(self, config: ResilienceConfig | None = None) -> None:
        self.config = config or ResilienceConfig()
        self.injector = FaultInjector(self.config.plan)
        self.clock = SimClock()
        self.quarantine = Quarantine()
        self.events = ResilienceEvents()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = witness_lock("ResilienceContext._lock")
        self._phase = "(ad hoc)"
        self._phase_start = 0.0

    # ------------------------------------------------------------------
    # Phases and deadlines

    @property
    def current_phase(self) -> str:
        with self._lock:
            return self._phase

    def begin_phase(self, label: str) -> None:
        """Start a phase: quarantine provenance and the deadline budget
        are attributed from here until the next call."""
        now = self.clock.now()
        with self._lock:
            self._phase = label
            self._phase_start = now

    def deadline_allows(self, delay: float) -> bool:
        """Whether spending ``delay`` more sim-seconds fits the phase
        budget (always true without a budget)."""
        budget = self.config.deadline_budget
        if budget is None:
            return True
        with self._lock:
            start = self._phase_start
        return (self.clock.now() - start) + delay <= budget

    # ------------------------------------------------------------------
    # Breakers

    def breaker_for(self, engine: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(engine)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.clock,
                    failure_threshold=self.config.breaker_threshold,
                    cooldown=self.config.breaker_cooldown,
                )
                self._breakers[engine] = breaker
            return breaker

    # ------------------------------------------------------------------
    # The retrying call primitive

    def call(
        self,
        site: str,
        key: object,
        fn: Callable[[], Any],
        *,
        engine: str | None = None,
    ) -> Any:
        """Run ``fn`` behind the resilience ladder at ``site``.

        Injected faults are retried with deterministic exponential
        backoff over the simulated clock; retries stop at the policy's
        attempt cap or when the phase deadline budget is spent, raising
        :class:`ResilienceExhausted`.  With ``engine`` set, the engine's
        circuit breaker gates the call and records its outcome.  In
        ``fail_fast`` mode the first injected fault propagates raw.
        Real exceptions from ``fn`` always propagate — the substrate is
        deterministic, so a genuine bug would fail every retry anyway.
        """
        breaker = self.breaker_for(engine) if engine is not None else None
        if breaker is not None and not breaker.allow():
            self.events.bump("breaker_short_circuits")
            raise ResilienceExhausted(site, key, 0, "circuit open")
        policy = self.config.retry
        attempt = 1
        while True:
            try:
                self.injector.check(site, key, attempt, clock=self.clock)
                result = fn()
            except InjectedFault as fault:
                self.events.bump("faults_injected")
                if fault.kind == "timeout":
                    self.events.bump("timeouts")
                if self.config.fail_fast:
                    raise
                delay = policy.delay(attempt)
                if attempt >= policy.max_attempts or not self.deadline_allows(delay):
                    self.events.bump("exhausted")
                    if breaker is not None and breaker.record_exhaustion():
                        self.events.bump("breaker_opens")
                    reason = (
                        f"{fault.kind} fault persisted"
                        if attempt >= policy.max_attempts
                        else f"{fault.kind} fault; phase deadline budget spent"
                    )
                    raise ResilienceExhausted(site, key, attempt, reason) from fault
                self.clock.sleep(delay)
                self.events.bump("retries")
                attempt += 1
            else:
                if breaker is not None:
                    breaker.record_success()
                return result
