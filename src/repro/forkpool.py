"""The fork handshake: hand one read-only value to pool workers.

The study runner ships its world to process workers.  Pickling it per
task would push a corpus through a pipe; ``fork`` instead snapshots the
parent's memory copy-on-write, so the value only has to sit in a module
global while the pool forks.  :func:`fork_inherit` is that handshake, once:

* it publishes the value, then creates a ``fork``
  :class:`ProcessPoolExecutor`;
* it retracts the value in ``finally`` on every path, pool-creation
  and submission failures and raising workers included, so no later
  fork can inherit a stale value.

It needs the ``fork`` start method; callers check
:func:`fork_available` first and run sequentially where it is missing.
Worker entry points read the value through :func:`inherited`.
:data:`_INHERITED` is conclint's one allowlisted module-global write
(CONC001).
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any

__all__ = ["fork_available", "fork_inherit", "inherited"]

#: The value forked workers inherit; ``None`` outside :func:`fork_inherit`.
_INHERITED: Any = None


def fork_available() -> bool:
    """Whether this platform offers the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


@contextmanager
def fork_inherit(value: Any, workers: int) -> Iterator[ProcessPoolExecutor]:
    """A ``workers``-wide fork pool whose workers inherit ``value``.

    Workers read ``value`` through :func:`inherited`.  The pool is shut
    down (waiting for its tasks) before the value is retracted.
    """
    global _INHERITED
    _INHERITED = value
    try:
        # Pool creation sits inside the try: if it fails (fd/process
        # limits), the value must still be retracted.
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
        )
        try:
            yield pool
        finally:
            pool.shutdown()
    finally:
        _INHERITED = None


def inherited() -> Any:
    """The value a forked worker inherited from :func:`fork_inherit`."""
    value = _INHERITED
    if value is None:
        raise RuntimeError("no inherited value: not inside a fork_inherit pool")
    return value
