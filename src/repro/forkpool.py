"""The fork handshake: hand one read-only value to pool workers.

The study runner ships its world to process workers and the shard
builder ships page groups.  Pickling either per task would push a
corpus through a pipe; ``fork`` instead snapshots the parent's memory
copy-on-write, so the value only has to sit in a module global while
the pool forks.  :func:`fork_inherit` is that handshake, once:

* it picks the pool: a ``fork`` :class:`ProcessPoolExecutor` for
  ``executor="process"`` where ``fork`` exists, else a
  :class:`ThreadPoolExecutor` (with a :class:`RuntimeWarning` when a
  process pool was asked for and ``fork`` is missing);
* it publishes the value only for a fork pool, since threads share the
  parent's address space and take their inputs as arguments;
* it retracts the value in ``finally`` on every path, pool-creation
  and submission failures and raising workers included, so no later
  fork can inherit a stale value.

Worker entry points read the value through :func:`inherited`.
:data:`_INHERITED` is conclint's one allowlisted module-global write
(CONC001).
"""

from __future__ import annotations

import multiprocessing
import warnings
from collections.abc import Iterator
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any

__all__ = ["EXECUTORS", "fork_available", "fork_inherit", "inherited"]

#: Executor kinds the pooled callers accept.
EXECUTORS = ("process", "thread")

#: The value forked workers inherit; ``None`` outside :func:`fork_inherit`.
_INHERITED: Any = None


def fork_available() -> bool:
    """Whether this platform offers the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


@contextmanager
def fork_inherit(
    value: Any, executor: str, workers: int
) -> Iterator[tuple[Executor, bool]]:
    """A ``workers``-wide pool whose forked workers inherit ``value``.

    Yields ``(pool, forked)``.  With ``forked`` true, workers read
    ``value`` through :func:`inherited`; otherwise the pool is a thread
    pool and the caller passes ``value`` to its tasks directly.  The
    pool is shut down (waiting for its tasks) before the value is
    retracted.
    """
    global _INHERITED
    forked = executor == "process" and fork_available()
    if executor == "process" and not forked:
        warnings.warn(
            "fork start method unavailable; degrading from the process "
            "executor to threads (results are identical, sharing "
            "semantics differ)",
            RuntimeWarning,
            stacklevel=3,
        )
    if forked:
        _INHERITED = value
    try:
        # Pool creation sits inside the try: if it fails (fd/process
        # limits), the value must still be retracted.
        if forked:
            pool: Executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        else:
            pool = ThreadPoolExecutor(max_workers=workers)
        try:
            yield pool, forked
        finally:
            pool.shutdown()
    finally:
        if forked:
            _INHERITED = None


def inherited() -> Any:
    """The value a forked worker inherited from :func:`fork_inherit`."""
    value = _INHERITED
    if value is None:
        raise RuntimeError("no inherited value: not inside a fork_inherit pool")
    return value
