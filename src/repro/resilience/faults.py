"""Deterministic fault plans and the injector that executes them.

A :class:`FaultPlan` names *sites* (stable string identifiers of the
places in the pipeline that can fail — ``"engine.answer"``,
``"retrieval.select_sources"``, ``"evidence.context"``,
``"runner.chunk"``) and, per site, which fraction of keys fault and for
how many attempts.  Whether a given ``(site, key, attempt)`` faults is a
pure function of the plan — selection is a :func:`derive_rng` roll over
``(plan seed, site, key)``, never ambient randomness — so a chaos run
can be replayed bit-for-bit, in any process, at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.rng import derive_rng

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ResilienceExhausted",
]

#: The named injection sites the pipeline consults, with the key each
#: site presents to the injector.
FAULT_SITES = {
    "engine.answer": "(engine name, query id) — one engine answer",
    "retrieval.select_sources": "query text — one evidence retrieval",
    "evidence.context": "evidence-cache key — one Section 3.1 context",
    "runner.chunk": "(engine, first query id, size) — one pool chunk",
}


class InjectedFault(RuntimeError):
    """A simulated transient failure raised at a fault site.

    ``kind`` distinguishes plain errors from timeouts (which also
    consume simulated seconds) and whole-chunk crashes.  Carries a
    ``__reduce__`` so it survives the process-pool result pipe intact.
    """

    def __init__(self, site: str, key: object, attempt: int, kind: str = "error") -> None:
        super().__init__(
            f"injected {kind} at {site} (key={key!r}, attempt {attempt})"
        )
        self.site = site
        self.key = key
        self.attempt = attempt
        self.kind = kind

    def __reduce__(self):
        return (type(self), (self.site, self.key, self.attempt, self.kind))


class ResilienceExhausted(RuntimeError):
    """An operation failed even after the resilience ladder was applied.

    Raised when retries ran out, the phase deadline budget was consumed,
    or a circuit breaker short-circuited the call.  ``reason`` is a
    plain string (not the causing exception) so the error crosses the
    process-pool boundary without losing information.
    """

    def __init__(self, site: str, key: object, attempts: int, reason: str) -> None:
        super().__init__(
            f"{site} exhausted after {attempts} attempt(s) (key={key!r}): {reason}"
        )
        self.site = site
        self.key = key
        self.attempts = attempts
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.site, self.key, self.attempts, self.reason))


@dataclass(frozen=True)
class FaultSpec:
    """One site's failure behaviour.

    ``rate`` selects the fraction of keys that fault at all (selection
    is per-key, not per-call, so retries of a selected key see the same
    fate).  A selected key fails its first ``failures`` attempts and
    succeeds afterwards; ``failures=None`` means every attempt fails —
    the unrecoverable case that exercises quarantine.  ``kind="timeout"``
    additionally consumes ``timeout_seconds`` of simulated time.

    ``match`` narrows the spec to keys whose ``str()`` contains the
    substring — e.g. ``match="Gemini"`` at ``engine.answer`` (whose keys
    are ``(engine name, query id)``) faults exactly one engine, which is
    how the serving tier's breaker-isolation tests take one engine down
    without touching the rest of the fleet.  Matching is part of the
    key's identity, so it is as deterministic as the selection roll.
    """

    site: str
    rate: float = 1.0
    failures: int | None = 1
    kind: str = "error"
    timeout_seconds: float = 5.0
    match: str | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            known = ", ".join(sorted(FAULT_SITES))
            raise ValueError(f"unknown fault site {self.site!r}; known: {known}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.failures is not None and self.failures < 1:
            raise ValueError("failures must be None (always) or at least 1")
        if self.kind not in ("error", "timeout", "crash"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs; the empty plan injects nothing."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.specs

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI plan: ``site[@match]:rate[:failures[:kind]]``
        comma-joined.

        ``failures`` accepts an integer or ``inf`` (never recovers);
        e.g. ``engine.answer:0.2:1,retrieval.select_sources:0.1:inf``.
        ``site@match`` narrows the spec to keys containing the
        substring: ``engine.answer@Gemini:1.0:inf`` takes down exactly
        one engine.
        """
        specs = []
        for part in filter(None, (p.strip() for p in text.split(","))):
            fields = part.split(":")
            if len(fields) < 2:
                raise ValueError(f"fault spec {part!r} needs at least site:rate")
            site, rate = fields[0], float(fields[1])
            match: str | None = None
            if "@" in site:
                site, match = site.split("@", 1)
                if not match:
                    raise ValueError(f"fault spec {part!r} has an empty @match")
            failures: int | None = 1
            if len(fields) > 2:
                failures = None if fields[2] in ("inf", "-") else int(fields[2])
            kind = fields[3] if len(fields) > 3 else "error"
            specs.append(
                FaultSpec(
                    site=site, rate=rate, failures=failures, kind=kind, match=match
                )
            )
        return cls(seed=seed, specs=tuple(specs))


class FaultInjector:
    """Executes a :class:`FaultPlan` at the pipeline's named sites.

    Stateless beyond the plan: every decision re-derives from
    ``(plan seed, site, key)``, which is what makes injection identical
    across retries, worker processes, and reruns.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._by_site: dict[str, tuple[FaultSpec, ...]] = {}
        for spec in plan.specs:
            self._by_site[spec.site] = self._by_site.get(spec.site, ()) + (spec,)

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def would_fault(self, site: str, key: object, attempt: int) -> FaultSpec | None:
        """The spec that fires for this call, or ``None``."""
        for spec in self._by_site.get(site, ()):
            if spec.match is not None and spec.match not in str(key):
                continue
            if spec.rate < 1.0:
                roll = derive_rng("fault", self._plan.seed, site, key).random()
                if roll >= spec.rate:
                    continue
            if spec.failures is not None and attempt > spec.failures:
                continue
            return spec
        return None

    def check(self, site: str, key: object, attempt: int, clock=None) -> None:
        """Raise :class:`InjectedFault` if the plan says this call fails.

        Timeout faults consume their simulated duration from ``clock``
        before raising, modelling a call that burns its budget first.
        """
        spec = self.would_fault(site, key, attempt)
        if spec is None:
            return
        if spec.kind == "timeout" and clock is not None:
            clock.sleep(spec.timeout_seconds)
        raise InjectedFault(site, key, attempt, spec.kind)
