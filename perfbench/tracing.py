"""Outside-in tracing: time the calls into repro's layer boundaries.

The program is not instrumented.  :class:`Tracer` replaces the public
function at each boundary (a method on its class, or a module function
at the name its callers look up) with a wrapper that records one span
per call and, through the boundary's hooks, the layer's counters.
:meth:`Tracer.uninstall` puts every original back.

A span is ``(id, layer, start, end, parent, op, phase, thread)``.  Open
spans live on a per-thread stack, so nesting gives the parent.  A span
opened on a thread whose stack is empty (a serve worker) takes as parent
the innermost span open on the thread that installed the tracer (the
serve drain).  Closed spans are kept in memory and written out by
:meth:`Tracer.write` when the run ends.

Self time is a span's duration minus the union of its children's
intervals, clipped to the span: children that overlap each other (worker
spans under the drain) are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass

__all__ = ["Boundary", "Span", "Tracer", "self_times"]


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: ``target`` is ``"module:Qual.name"``.

    ``before(args, kwargs)`` runs ahead of the call and returns a token;
    ``after(tracer, args, kwargs, result, token)`` runs after a call that
    returned.  ``op(args, kwargs)`` names the op the call belongs to; it
    sticks to the calling thread until another boundary renames it.
    With ``span=False`` the wrapper only runs the hooks (a counter on a
    function too hot to time call by call).
    """

    layer: str
    target: str
    before: Callable | None = None
    after: Callable | None = None
    op: Callable | None = None
    span: bool = True


@dataclass(frozen=True)
class Span:
    id: int
    layer: str
    start: float
    end: float
    parent: int | None
    op: str | None
    phase: str
    thread: int


class _Open:
    __slots__ = ("id", "layer", "start", "parent", "op")

    def __init__(self, id, layer, start, parent, op):
        self.id = id
        self.layer = layer
        self.start = start
        self.parent = parent
        self.op = op


def _resolve(target: str) -> tuple[object, str, object]:
    """``(owner, attribute, original)`` for ``"module:Qual.name"``."""
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # Static lookup: a method comes back as the plain function stored on
    # the class, which is what has to be put back.
    return owner, attribute, inspect.getattr_static(owner, attribute)


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(layer, name) -> number`` recorded by boundary hooks.
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        #: ``(layer, name) -> set`` for distinct-value ratios.
        self.distinct: dict[tuple[str, str], set] = defaultdict(set)
        #: ``(layer, name) -> list`` of samples (latencies).
        self.samples: dict[tuple[str, str], list] = defaultdict(list)
        #: Layer -> why one of its boundaries could not be wrapped.
        self.missing: dict[str, str] = {}
        #: Tag written on every span; the workload sets it.
        self.phase = "setup"
        #: While False, wrappers call straight through and record nothing.
        self.enabled = True
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[_Open] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------

    def install(self, boundaries: Iterable[Boundary]) -> "Tracer":
        """Wrap every boundary that resolves; note the layers that do not.

        All targets are resolved before any is patched, so a module
        imported during resolution binds the originals, never a wrapper.
        """
        self._local.stack = self._main_stack
        resolved = []
        for boundary in boundaries:
            try:
                resolved.append((boundary, *_resolve(boundary.target)))
            except (ImportError, AttributeError) as exc:
                self.missing.setdefault(
                    boundary.layer, f"{boundary.target}: {type(exc).__name__}: {exc}"
                )
        for boundary, owner, attribute, original in resolved:
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(boundary, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap(self, boundary: Boundary, original: Callable) -> Callable:
        tracer = self
        layer, before, after, op = (
            boundary.layer, boundary.before, boundary.after, boundary.op,
        )
        if not boundary.span:

            @functools.wraps(original)
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                if tracer.enabled:
                    after(tracer, args, kwargs, result, None)
                return result

            return counted

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if op is not None:
                tracer._local.op = op(args, kwargs)
            token = before(args, kwargs) if before is not None else None
            span = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(tracer, args, kwargs, result, token)
            return result

        return traced

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> _Open:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._main_stack[-1].id
            except IndexError:
                parent = None
        span = _Open(
            next(self._ids), layer, time.perf_counter(), parent,
            getattr(self._local, "op", None),
        )
        stack.append(span)
        return span

    def _close(self, span: _Open) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            Span(
                span.id, span.layer, span.start, end, span.parent, span.op,
                self.phase, threading.get_ident(),
            )
        )

    def current_layer(self) -> str | None:
        """Layer of the innermost span open on the calling thread."""
        stack = self._stack()
        return stack[-1].layer if stack else None

    # -- counters ------------------------------------------------------

    def count(self, layer: str, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[layer, name] += amount

    def see(self, layer: str, name: str, value) -> None:
        with self._lock:
            self.distinct[layer, name].add(value)

    def sample(self, layer: str, name: str, values: Iterable[float]) -> None:
        with self._lock:
            self.samples[layer, name].extend(values)

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line (ids, times in seconds)."""
        base = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "layer": span.layer,
                            "start": round(span.start - base, 9),
                            "end": round(span.end - base, 9),
                            "parent": span.parent,
                            "op": span.op,
                            "phase": span.phase,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = (span.end - span.start) - covered
    return result
