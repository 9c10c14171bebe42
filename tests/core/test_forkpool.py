"""The one fork handshake, checked through both of its callers.

``repro.forkpool.fork_inherit`` ships the study runner's world and the
shard builder's page groups to forked workers: it publishes the value
for a fork pool only and retracts it in ``finally``.  A leak would pin
the corpus in a module global for the process lifetime and hand every
*later* fork a stale snapshot.  Every case runs against both callers,
and whatever breaks (pool creation, task submission, a worker), the
inherited global must come back ``None``.
"""

import pytest

from repro import forkpool
from repro.core import runner as runner_module
from repro.core.runner import StudyRunner
from repro.entities.queries import ranking_queries
from repro.search import sharding
from repro.search.sharding import build_shard_indexes, partition_pages

from tests.search.test_sharded_equivalence import _sparse_page


def _explode_chunk(engine_name, queries, attempt=1):
    """Module-level (picklable) stand-in for a crashing study worker."""
    raise RuntimeError("worker exploded")


def _explode_build(shard_id, title_boost):
    """Module-level (picklable) stand-in for a crashing shard builder."""
    raise RuntimeError("worker exploded")


class _RunnerCaller:
    """``StudyRunner.answers``: ships the world."""

    def __init__(self, world):
        self.world = world
        self.queries = ranking_queries(world.catalog, count=4, seed=23)
        self.runner = None

    def shipped(self):
        return self.world

    def break_worker(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_answer_chunk", _explode_chunk)

    def run(self, executor="process"):
        self.runner = StudyRunner(self.world, workers=2, executor=executor)
        return self.runner.answers(self.queries)

    def sequential(self):
        return StudyRunner(self.world, workers=1).answers(self.queries)


class _BuilderCaller:
    """``build_shard_indexes``: ships the page groups."""

    def __init__(self):
        pages = [
            _sparse_page(i, f"Guide {i}", f"Useful advice number {i}.")
            for i in range(8)
        ]
        self.groups = partition_pages(pages, 2)

    def shipped(self):
        return tuple(tuple(pages) for pages in self.groups)

    def break_worker(self, monkeypatch):
        monkeypatch.setattr(sharding, "_build_parts_inherited", _explode_build)

    def run(self, executor="process"):
        indexes = build_shard_indexes(
            self.groups, builders=2, executor=executor
        )
        return [index.frozen_parts() for index in indexes]

    def sequential(self):
        return [index.frozen_parts() for index in build_shard_indexes(self.groups)]


@pytest.fixture(params=["runner", "builder"])
def caller(request):
    if request.param == "runner":
        return _RunnerCaller(request.getfixturevalue("tiny_world"))
    return _BuilderCaller()


@pytest.fixture
def pools(monkeypatch):
    """Record each pool ``fork_inherit`` creates and what was published
    at that moment, as ``(kind, inherited value)`` pairs."""
    created = []
    for kind, pool_type in (
        ("process", forkpool.ProcessPoolExecutor),
        ("thread", forkpool.ThreadPoolExecutor),
    ):
        def spy(*args, _kind=kind, _type=pool_type, **kwargs):
            created.append((_kind, forkpool._INHERITED))
            return _type(*args, **kwargs)

        monkeypatch.setattr(forkpool, pool_type.__name__, spy)
    return created


class TestForkInherit:
    def test_retracted_after_success(self, caller, pools):
        assert caller.run() == caller.sequential()
        # Published exactly while the fork pool was created...
        assert pools == [("process", caller.shipped())]
        # ...and retracted once it shut down.
        assert forkpool._INHERITED is None

    def test_retracted_when_pool_creation_fails(self, caller, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("process limit reached")

        monkeypatch.setattr(forkpool, "ProcessPoolExecutor", no_pool)
        with pytest.raises(OSError, match="process limit reached"):
            caller.run()
        assert forkpool._INHERITED is None

    def test_retracted_when_submission_fails(self, caller, monkeypatch):
        class BrokenPool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise RuntimeError("pool shut down")

            def shutdown(self, *args, **kwargs):
                pass

        monkeypatch.setattr(forkpool, "ProcessPoolExecutor", BrokenPool)
        with pytest.raises(RuntimeError, match="pool shut down"):
            caller.run()
        assert forkpool._INHERITED is None

    def test_retracted_when_a_worker_raises(self, caller, monkeypatch):
        caller.break_worker(monkeypatch)
        with pytest.raises(RuntimeError, match="worker exploded"):
            caller.run()
        assert forkpool._INHERITED is None

    def test_thread_executor_never_publishes(self, caller, pools):
        # Threads share the address space: no handshake is needed, and
        # none is published.
        assert caller.run("thread") == caller.sequential()
        assert pools == [("thread", None)]
        assert forkpool._INHERITED is None

    def test_no_fork_warns_and_uses_threads(self, caller, pools, monkeypatch):
        monkeypatch.setattr(forkpool, "fork_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="fork start method unavailable"):
            result = caller.run("process")
        assert result == caller.sequential()
        assert pools == [("thread", None)]
        assert forkpool._INHERITED is None
        if isinstance(caller, _RunnerCaller):
            from repro.core.report import render_stats
            from repro.core.study import ComparativeStudy

            assert caller.runner.stats.effective_executor == "thread"
            study = ComparativeStudy(caller.world, runner=caller.runner)
            assert "(effective: thread)" in render_stats(study)


def test_inherited_outside_a_fork_pool_raises():
    with pytest.raises(RuntimeError, match="no inherited value"):
        forkpool.inherited()
