"""Runner containment of genuinely buggy engines (not injected faults).

The pre-resilience contract — a raising chunk fails fast with engine and
query attribution — lives in tests/core/test_runner_parallel.py.  Here:
with a resilience context installed, the same failure is contained — the
broken queries quarantine as degraded answers, the rest of the workload
completes, and the pool survives.
"""

import pytest

from repro.core.runner import StudyRunner
from repro.engines.base import Answer, AnswerEngine
from repro.entities.queries import ranking_queries
from repro.resilience import ResilienceConfig, ResilienceContext


class _BoomEngine(AnswerEngine):
    """Deterministically buggy: crashes on one specific query."""

    name = "Boom"

    def __init__(self, poison_id: str) -> None:
        super().__init__()
        self._poison_id = poison_id

    def _answer_uncached(self, query):
        if query.id == self._poison_id:
            raise RuntimeError(f"boom on {query.id}")
        return Answer(engine=self.name, query_id=query.id, text=f"ok {query.id}")


@pytest.fixture()
def queries(chaos_world):
    return ranking_queries(chaos_world.catalog, count=6, seed=47)


@pytest.fixture()
def boom_world(chaos_world, queries):
    """The chaos world plus a buggy engine, removed again afterwards."""
    chaos_world.engines["Boom"] = _BoomEngine(queries[2].id)
    chaos_world.install_resilience(ResilienceContext(ResilienceConfig()))
    yield chaos_world
    del chaos_world.engines["Boom"]


def test_buggy_engine_is_quarantined_pool_survives(boom_world, queries):
    ctx = boom_world.resilience
    runner = StudyRunner(boom_world, workers=2)
    answers = runner.answers(queries)

    # The broken query degraded; every other (engine, query) completed.
    assert set(answers) == set(boom_world.engines)
    assert all(len(per_engine) == len(queries) for per_engine in answers.values())
    boom = answers["Boom"]
    assert boom[2].text == ""  # position-aligned degraded placeholder
    assert boom[2].citations == ()
    assert [a.text for i, a in enumerate(boom) if i != 2] == [
        f"ok {q.id}" for i, q in enumerate(queries) if i != 2
    ]
    for name in boom_world.engines:
        if name != "Boom":
            assert all(a.text for a in answers[name])

    # Provenance: one quarantine record naming the engine and query.
    records = [r for r in ctx.quarantine.records() if r.engine == "Boom"]
    assert len(records) == 1
    assert records[0].key == queries[2].id
    assert "unhandled RuntimeError" in records[0].reason
    assert ctx.events.get("quarantined_queries") == 1
    # The chunk was retried before falling back to per-query salvage.
    assert ctx.events.get("chunk_retries") > 0
    assert ctx.events.get("chunk_fallbacks") == 1


def test_buggy_engine_contained_sequentially(boom_world, queries):
    ctx = boom_world.resilience
    runner = StudyRunner(boom_world, workers=1)
    answers = runner.answers(queries)
    assert answers["Boom"][2].text == ""
    assert ctx.events.get("quarantined_queries") == 1
    assert ctx.events.get("chunk_retries") == 0  # no pool involved


def test_fail_fast_restores_propagation(boom_world, queries):
    from repro.core.runner import ChunkExecutionError

    boom_world.install_resilience(
        ResilienceContext(ResilienceConfig(fail_fast=True))
    )
    runner = StudyRunner(boom_world, workers=2)
    with pytest.raises(ChunkExecutionError, match="boom"):
        runner.answers(queries)
