"""The one fork handshake, checked through its caller.

``repro.forkpool.fork_inherit`` ships the study runner's world to forked
workers: it publishes the value while the pool forks and retracts it in
``finally``.  A leak would pin the corpus in a module global for the
process lifetime and hand every *later* fork a stale snapshot.  Whatever
breaks (pool creation, task submission, a worker), the inherited global
must come back ``None``.
"""

import pytest

from repro import forkpool
from repro.core import runner as runner_module
from repro.core.report import render_stats
from repro.core.runner import StudyRunner
from repro.core.study import ComparativeStudy
from repro.entities.queries import ranking_queries


def _explode_chunk(engine_name, queries, attempt=1):
    """Module-level (picklable) stand-in for a crashing study worker."""
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

    def run(self):
        self.runner = StudyRunner(self.world, workers=2)
        return self.runner.answers(self.queries)

    def sequential(self):
        return StudyRunner(self.world, workers=1).answers(self.queries)


@pytest.fixture(params=["runner"])
def caller(request, tiny_world):
    return _RunnerCaller(tiny_world)


@pytest.fixture
def pools(monkeypatch):
    """Record what was published as each pool ``fork_inherit`` creates."""
    created = []
    pool_type = forkpool.ProcessPoolExecutor

    def spy(*args, **kwargs):
        created.append(forkpool._INHERITED)
        return pool_type(*args, **kwargs)

    monkeypatch.setattr(forkpool, "ProcessPoolExecutor", spy)
    return created


class TestForkInherit:
    def test_retracted_after_success(self, caller, pools):
        assert caller.run() == caller.sequential()
        # Published exactly while the fork pool was created...
        assert pools == [caller.shipped()]
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

    def test_no_fork_warns_and_runs_sequentially(self, caller, pools, monkeypatch):
        monkeypatch.setattr(runner_module, "fork_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="fork start method unavailable"):
            result = caller.run()
        assert result == caller.sequential()
        # No pool, nothing published: the sequential loop answered.
        assert pools == []
        assert forkpool._INHERITED is None
        assert caller.runner.workers == 1
        assert caller.runner.stats.phases["(ad hoc)"].pool_tasks == 0
        study = ComparativeStudy(caller.world, runner=caller.runner)
        assert "  runner: workers=1\n" in render_stats(study)


def test_inherited_outside_a_fork_pool_raises():
    with pytest.raises(RuntimeError, match="no inherited value"):
        forkpool.inherited()
