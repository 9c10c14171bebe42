"""Retry backoff and per-engine circuit breaking.

Both primitives are deliberately deterministic: backoff delays are a
closed-form function of the attempt number (no jitter — the fault
injector already decides *what* fails deterministically, so delay
randomization would only blur the replay), and the breaker counts
*exhausted operations*, never transient attempts.  That last choice is
load-bearing for the byte-identical invariant: under a recoverable
fault plan every operation eventually succeeds, the breaker never sees
a failure, and results cannot depend on breaker state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lockorder import witness_lock
from repro.resilience.clock import SimClock

__all__ = ["CircuitBreaker", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff over the simulated clock."""

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")

    def delay(self, attempt: int) -> float:
        """Backoff after failing ``attempt`` (1-based), in sim-seconds."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))


class CircuitBreaker:
    """Per-engine breaker over the simulated clock.

    Counts consecutive *exhausted* operations (retries already failed);
    at ``failure_threshold`` the circuit opens and calls short-circuit
    until ``cooldown`` simulated seconds pass, after which one trial is
    allowed (half-open).  A success closes the circuit and resets the
    count.  All state transitions happen under the instance lock so the
    serving tier's thread pool can share one breaker safely.
    """

    def __init__(
        self,
        clock: SimClock,
        failure_threshold: int = 5,
        cooldown: float = 300.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self._clock = clock
        self._threshold = failure_threshold
        self._cooldown = cooldown
        self._lock = witness_lock("CircuitBreaker._lock")
        self._consecutive = 0
        self._opened_at: float | None = None
        self.opens = 0
        self.short_circuits = 0

    @property
    def is_open(self) -> bool:
        with self._lock:
            return self._opened_at is not None

    def allow(self) -> bool:
        """Whether a call may proceed now (half-open grants one trial)."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._clock.now() - self._opened_at >= self._cooldown:
                # Half-open: permit a trial; a failure re-opens the
                # circuit from the trial's record_exhaustion.
                return True
            self.short_circuits += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive = 0
            self._opened_at = None

    def record_exhaustion(self) -> bool:
        """Record one exhausted operation; returns True if this opened
        (or re-opened) the circuit."""
        with self._lock:
            self._consecutive += 1
            if self._consecutive >= self._threshold:
                newly = self._opened_at is None
                self._opened_at = self._clock.now()
                if newly:
                    self.opens += 1
                return newly
            return False
