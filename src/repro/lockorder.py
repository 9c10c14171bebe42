"""Runtime lock-order witness (debug mode).

locklint (:mod:`repro.devtools.locklint`) proves the lock discipline
statically; this module is the dynamic half of the same contract.  When
``REPRO_LOCK_WITNESS=1`` (see
:func:`repro.core.config.lock_witness_enabled`), every lock site built
through :func:`witness_lock` returns an :class:`OrderedLock` that checks
each acquisition *before* blocking on the real lock:

1. re-entrant acquisition of the same (non-reentrant) site on one
   thread raises instead of self-deadlocking;
2. an acquisition that inverts the canonical hierarchy
   (:data:`CANONICAL_HIERARCHY`, the order locklint's lock graph is
   topologically sorted into) raises immediately;
3. every ``held -> acquired`` pair is recorded in a global observed-order
   graph; an acquisition whose edge closes a cycle raises with both
   acquisition paths, even for sites the hierarchy does not rank.

Because all three checks run before the underlying ``acquire()``, an
ordering bug becomes a failing test with a readable message instead of a
hung worker.  With the flag unset, :func:`witness_lock` returns a plain
``threading.Lock`` — zero overhead in production paths.
"""

from __future__ import annotations

import threading

from repro.core.config import lock_witness_enabled

__all__ = [
    "CANONICAL_HIERARCHY",
    "LockOrderViolation",
    "OrderedLock",
    "observed_edges",
    "reset_witness",
    "witness_lock",
]

#: The canonical single-order hierarchy over every named lock site in
#: ``src/repro`` (outermost first).  A thread holding site ``A`` may only
#: acquire sites strictly *later* in this tuple.  This is exactly the
#: order ``python -m repro locklint --dump-lockgraph`` emits (a
#: topological sort of the static acquired-while-held graph with
#: alphabetical tie-breaking — the one real constraint today is
#: ``CircuitBreaker._lock`` before ``SimClock._lock``); a meta-test
#: asserts the two never drift.  ``docs/architecture.md`` documents the
#: reasoning per site.
CANONICAL_HIERARCHY = (
    "BoundedCache._lock",
    "CacheWitness._lock",
    "CircuitBreaker._lock",
    "Quarantine._lock",
    "ResilienceContext._lock",
    "ResilienceEvents._lock",
    "RunJournal._lock",
    "ServeStats._lock",
    "SimClock._lock",
    "SingleFlight._lock",
)

_RANK = {site: index for index, site in enumerate(CANONICAL_HIERARCHY)}


class LockOrderViolation(RuntimeError):
    """An acquisition that deadlocks — or could, on another schedule."""


class _WitnessState:
    """Per-thread held stacks plus the global observed-order edge graph.

    All mutation happens through methods on the single module-level
    instance; the meta-lock only guards the (tiny) edge graph, never the
    witnessed locks themselves, so it cannot participate in the orders
    it polices.
    """

    def __init__(self) -> None:
        self._meta = threading.Lock()
        #: outer site -> inner site -> provenance (the held stack the
        #: first time the edge was observed).
        self._edges: dict[str, dict[str, str]] = {}
        self._held = threading.local()

    # -- per-thread held stack ----------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def push(self, site: str) -> None:
        self._stack().append(site)

    def pop(self, site: str) -> None:
        stack = self._stack()
        # Releases are LIFO in practice; tolerate out-of-order release
        # by removing the innermost matching entry.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == site:
                del stack[index]
                return

    # -- the checks (all run BEFORE the real acquire) -----------------

    def check(self, site: str) -> None:
        held = self._stack()
        if site in held:
            raise LockOrderViolation(
                f"re-entrant acquisition of non-reentrant lock site {site!r} "
                f"(held stack: {held})"
            )
        if not held:
            return
        outer = held[-1]
        if site in _RANK and outer in _RANK and _RANK[site] < _RANK[outer]:
            raise LockOrderViolation(
                f"hierarchy inversion: acquiring {site!r} while holding "
                f"{outer!r}; the canonical order requires {site!r} before "
                f"{outer!r} (held stack: {held})"
            )
        thread = threading.current_thread().name
        provenance = f"{thread}: held {held} then acquired {site!r}"
        with self._meta:
            for outer_site in held:
                self._edges.setdefault(outer_site, {}).setdefault(
                    site, provenance
                )
            cycle = self._find_path(site, held[-1])
            if cycle is not None:
                steps = " -> ".join(cycle + [site])
                paths = "; ".join(
                    self._edges[a][b]
                    for a, b in zip(cycle, cycle[1:] + [site])
                )
                raise LockOrderViolation(
                    f"lock-order cycle closed by acquiring {site!r} while "
                    f"holding {held[-1]!r}: {steps} (first observed: {paths}; "
                    f"current: {provenance})"
                )

    def _find_path(self, start: str, goal: str) -> list[str] | None:
        """Deterministic DFS path ``start -> ... -> goal`` in the edge graph."""
        seen: set[str] = set()
        path: list[str] = []

        def walk(node: str) -> bool:
            if node == goal:
                path.append(node)
                return True
            if node in seen:
                return False
            seen.add(node)
            for nxt in sorted(self._edges.get(node, ())):
                if walk(nxt):
                    path.insert(0, node)
                    return True
            return False

        return path if walk(start) else None

    # -- introspection ------------------------------------------------

    def snapshot(self) -> list[tuple[str, str, str]]:
        with self._meta:
            return [
                (outer, inner, self._edges[outer][inner])
                for outer in sorted(self._edges)
                for inner in sorted(self._edges[outer])
            ]

    def reset(self) -> None:
        with self._meta:
            self._edges.clear()
            self._held = threading.local()


_STATE = _WitnessState()


class OrderedLock:
    """A ``threading.Lock`` that fails loudly on ordering bugs.

    Drop-in for the subset of the lock API the codebase uses (context
    manager, ``acquire``/``release``, ``locked``).  Checks run before
    the underlying acquire so a violation raises instead of hanging.
    """

    __slots__ = ("_site", "_lock")

    def __init__(self, site: str) -> None:
        self._site = site
        self._lock = threading.Lock()

    @property
    def site(self) -> str:
        return self._site

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        _STATE.check(self._site)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            _STATE.push(self._site)
        return acquired

    def release(self) -> None:
        self._lock.release()
        _STATE.pop(self._site)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        return f"OrderedLock({self._site!r})"


def witness_lock(site: str) -> "threading.Lock | OrderedLock":
    """Build the lock for one named site.

    ``site`` is the canonical ``Class._attr`` name locklint discovers
    statically; passing it here is what ties the static and dynamic
    halves together.  Returns a plain ``threading.Lock`` unless
    ``REPRO_LOCK_WITNESS=1`` at construction time.
    """
    if lock_witness_enabled():
        return OrderedLock(site)
    return threading.Lock()


def observed_edges() -> list[tuple[str, str, str]]:
    """Sorted ``(outer, inner, provenance)`` edges seen so far (tests)."""
    return _STATE.snapshot()


def reset_witness() -> None:
    """Clear the observed-order graph and held stacks (tests)."""
    _STATE.reset()
