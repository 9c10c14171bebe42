"""CONC003 fixture: parent-side mutation after fork-shipping an object.

``run_diverging`` assigns ``world`` to a handshake global and then
keeps mutating it while the pool is live — the forked workers never see
those writes.  ``run_inheriting`` does the same inside a
``fork_inherit`` block.  Mutations *before* the ship, after the block
retracts it, and of unrelated objects, must stay clean.
"""

from concurrent.futures import ProcessPoolExecutor

from repro.forkpool import fork_inherit

_SHIPPED_WORLD = None


def _chunk_task(chunk):
    return list(chunk)


def run_diverging(world, chunks):
    global _SHIPPED_WORLD
    world.tags["phase"] = "warming"  # before the ship: fine
    _SHIPPED_WORLD = world
    pool = ProcessPoolExecutor(max_workers=2)
    futures = [pool.submit(_chunk_task, chunk) for chunk in chunks]
    world.tags["phase"] = "running"  # expect[CONC003]
    world.pages.append("late")  # expect[CONC003]
    other = {"phase": "running"}
    other["phase"] = "done"  # unrelated object: fine
    pool.shutdown()
    _SHIPPED_WORLD = None
    return futures


def run_inheriting(world, chunks):
    world.tags["phase"] = "warming"  # before the ship: fine
    with fork_inherit(world, 2) as pool:
        futures = [pool.submit(_chunk_task, chunk) for chunk in chunks]
        world.tags["phase"] = "running"  # expect[CONC003]
    world.tags["phase"] = "done"  # after the block retracted it: fine
    return futures
