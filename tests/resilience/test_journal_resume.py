"""The run journal: record, replay, resume-only-what's-missing."""

import json

import pytest

from repro.core.runner import StudyRunner
from repro.core.study import ComparativeStudy
from repro.entities.queries import ranking_queries
from repro.resilience import RunJournal


@pytest.fixture()
def queries(chaos_world):
    return ranking_queries(chaos_world.catalog, count=6, seed=53)


def _runner(world, path, resume, workers=1):
    return StudyRunner(
        world, workers=workers, journal=RunJournal(path, resume=resume)
    )


class TestJournalReplay:
    def test_resume_replays_identical_answers_without_recompute(
        self, chaos_world, queries, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        chaos_world.clear_caches()
        first = _runner(chaos_world, path, resume=False).answers(queries)
        assert path.exists() and path.read_text().strip()

        # Replay against cold caches: the answers must come back from the
        # journal, not from recomputation.
        chaos_world.clear_caches()
        resumed_runner = _runner(chaos_world, path, resume=True)
        resumed = resumed_runner.answers(queries)
        assert resumed == first
        assert resumed_runner.stats.journal_replays == len(chaos_world.engines)
        # No engine did any work: every memo is still cold.
        assert all(
            engine.cache_stats() == (0, 0)
            for engine in chaos_world.engines.values()
        )

    def test_only_missing_chunks_recompute(self, chaos_world, queries, tmp_path):
        path = tmp_path / "journal.jsonl"
        chaos_world.clear_caches()
        first = _runner(chaos_world, path, resume=False, workers=2).answers(queries)

        # Drop one engine's entries: that engine's chunks are "missing".
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        dropped = "GPT-4o"
        kept = [e for e in lines if e["engine"] != dropped]
        assert len(kept) < len(lines)
        path.write_text("".join(json.dumps(e) + "\n" for e in kept))

        chaos_world.clear_caches()
        resumed_runner = _runner(chaos_world, path, resume=True, workers=2)
        resumed = resumed_runner.answers(queries)
        assert resumed == first
        assert resumed_runner.stats.journal_replays == len(kept)
        # Only the dropped engine recomputed: the resume appended exactly
        # its chunks to the journal again, and nothing else.
        appended = [
            json.loads(l) for l in path.read_text().splitlines()[len(kept):]
        ]
        assert len(appended) == len(lines) - len(kept)
        assert {entry["engine"] for entry in appended} == {dropped}

    def test_without_resume_the_journal_is_truncated(
        self, chaos_world, queries, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        chaos_world.clear_caches()
        _runner(chaos_world, path, resume=False).answers(queries)
        entries_first = len(path.read_text().splitlines())

        chaos_world.clear_caches()
        runner = _runner(chaos_world, path, resume=False)
        runner.answers(queries)
        assert runner.stats.journal_replays == 0  # truncated, not replayed
        assert len(path.read_text().splitlines()) == entries_first


class TestJournalHygiene:
    def test_corrupt_lines_are_skipped(self, chaos_world, queries, tmp_path):
        path = tmp_path / "journal.jsonl"
        chaos_world.clear_caches()
        first = _runner(chaos_world, path, resume=False).answers(queries)
        with path.open("a") as handle:
            handle.write("{torn-mid-write\n")
            handle.write('{"key": "no-answers-field"}\n')

        chaos_world.clear_caches()
        resumed_runner = _runner(chaos_world, path, resume=True)
        assert resumed_runner.answers(queries) == first
        assert resumed_runner.stats.journal_replays == len(chaos_world.engines)

    def test_unrehydratable_citation_invalidates_the_entry(
        self, chaos_world, queries, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        chaos_world.clear_caches()
        first = _runner(chaos_world, path, resume=False).answers(queries)

        # Corrupt one entry's citation so the corpus cannot resolve it.
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        target = next(e for e in lines if any(a["citations"] for a in e["answers"]))
        for answer in target["answers"]:
            for citation in answer["citations"]:
                citation["url"] = "https://no-such-page.invalid/x"
        path.write_text("".join(json.dumps(e) + "\n" for e in lines))

        chaos_world.clear_caches()
        resumed_runner = _runner(chaos_world, path, resume=True)
        resumed = resumed_runner.answers(queries)
        # The poisoned chunk recomputed (fewer replays), results intact.
        assert resumed == first
        assert resumed_runner.stats.journal_replays == len(lines) - 1

    def test_journal_keys_are_config_and_plan_scoped(self, chaos_world, tmp_path):
        # A journal written under one fault plan must not leak results
        # into a run under a different plan.
        from repro.resilience import (
            FaultPlan,
            ResilienceConfig,
            ResilienceContext,
        )

        queries = ranking_queries(chaos_world.catalog, count=4, seed=59)
        path = tmp_path / "journal.jsonl"
        chaos_world.clear_caches()
        _runner(chaos_world, path, resume=False).answers(queries)

        chaos_world.install_resilience(
            ResilienceContext(
                ResilienceConfig(plan=FaultPlan.parse("engine.answer:0.2:1", seed=1))
            )
        )
        chaos_world.clear_caches()
        resumed_runner = _runner(chaos_world, path, resume=True)
        resumed_runner.answers(queries)
        assert resumed_runner.stats.journal_replays == 0

    def test_journalled_study_results_match(self, chaos_world, tmp_path):
        # End to end: a journalled+resumed experiment renders the same
        # text as a plain run.
        from repro.core.experiments import run_experiment

        chaos_world.clear_caches()
        plain_study = ComparativeStudy(chaos_world, runner=StudyRunner(chaos_world))
        _, plain = run_experiment("fig1", chaos_world, study=plain_study)

        path = tmp_path / "journal.jsonl"
        chaos_world.clear_caches()
        study = ComparativeStudy(
            chaos_world, runner=_runner(chaos_world, path, resume=False)
        )
        _, journalled = run_experiment("fig1", chaos_world, study=study)
        assert journalled == plain

        chaos_world.clear_caches()
        resumed_study = ComparativeStudy(
            chaos_world, runner=_runner(chaos_world, path, resume=True)
        )
        _, resumed = run_experiment("fig1", chaos_world, study=resumed_study)
        assert resumed == plain
        assert resumed_study.runner.stats.journal_replays > 0
