"""Study-level chaos invariants.

The acceptance bar for the resilience layer, from weakest to strongest
fault plan:

* empty plan installed -> output byte-identical to the unwired tree;
* recoverable plan -> output byte-identical, with nonzero retries
  surfacing in the stats;
* unrecoverable plan -> the run completes, and the affected cells are
  annotated with quarantine provenance instead of raising;
* fail-fast mode -> the first injected fault propagates raw.
"""

import math

import pytest

from repro.core.experiments import run_experiment
from repro.core.report import render_stats
from repro.core.runner import StudyRunner
from repro.core.study import ComparativeStudy
from repro.resilience import (
    FaultPlan,
    InjectedFault,
    ResilienceConfig,
    ResilienceContext,
)


def _run(world, experiment="fig1", workers=1):
    """One cold experiment run; returns (rendered text, study)."""
    world.clear_caches()
    runner = StudyRunner(world, workers=workers)
    study = ComparativeStudy(world, runner=runner)
    _, text = run_experiment(experiment, world, study=study)
    return text, study


def _install(world, spec=None, seed=0, fail_fast=False):
    plan = FaultPlan.parse(spec, seed=seed) if spec else FaultPlan(seed=seed)
    ctx = ResilienceContext(ResilienceConfig(plan=plan, fail_fast=fail_fast))
    world.install_resilience(ctx)
    return ctx


class TestByteIdenticalInvariants:
    def test_empty_plan_output_matches_unwired(self, chaos_world):
        baseline, _ = _run(chaos_world)
        _install(chaos_world)
        wired, _ = _run(chaos_world)
        assert wired == baseline

    def test_recoverable_plan_output_matches_with_nonzero_retries(
        self, chaos_world
    ):
        baseline, _ = _run(chaos_world)
        ctx = _install(chaos_world, "engine.answer:0.4:1")
        chaotic, study = _run(chaos_world)
        assert chaotic == baseline
        assert ctx.events.get("retries") > 0
        assert ctx.events.get("exhausted") == 0
        assert len(ctx.quarantine) == 0
        # The retries are visible to the operator.
        stats_text = render_stats(study)
        assert "resilience" in stats_text
        assert "retries" in stats_text

    def test_recoverable_plan_workers_agree(self, chaos_world):
        _install(chaos_world, "engine.answer:0.4:1")
        sequential, _ = _run(chaos_world, workers=1)
        _install(chaos_world, "engine.answer:0.4:1")
        pooled, _ = _run(chaos_world, workers=4)
        assert pooled == sequential

    def test_recoverable_evidence_faults_match_on_table1(self, chaos_world):
        baseline, _ = _run(chaos_world, experiment="table1")
        ctx = _install(chaos_world, "evidence.context:0.5:2")
        chaotic, _ = _run(chaos_world, experiment="table1")
        assert chaotic == baseline
        assert ctx.events.get("retries") > 0


class TestGracefulDegradation:
    def test_unrecoverable_engine_faults_quarantine_not_raise(self, chaos_world):
        ctx = _install(chaos_world, "engine.answer:0.3:inf")
        text, study = _run(chaos_world)
        assert ctx.quarantine.count("quarantined") > 0
        assert "cell(s) degraded by failures" in text
        assert "site=engine.answer" in text
        stats_text = render_stats(study)
        assert "quarantine registry" in stats_text

    def test_unrecoverable_retrieval_degrades_to_prior_only(self, chaos_world):
        # Retrieval exhaustion is survivable one rung earlier than full
        # quarantine: the engine answers from pre-training, citation-free.
        ctx = _install(chaos_world, "retrieval.select_sources:0.3:inf")
        text, _ = _run(chaos_world)
        degraded = ctx.quarantine.records()
        assert ctx.quarantine.count("degraded") > 0
        assert all(r.site == "retrieval.select_sources" for r in degraded)
        assert ctx.events.get("degraded_answers") > 0
        assert "degraded:" in text

    def test_unrecoverable_evidence_faults_yield_nan_cells(self, chaos_world):
        ctx = _install(chaos_world, "evidence.context:1.0:inf")
        chaos_world.clear_caches()
        study = ComparativeStudy(chaos_world, runner=StudyRunner(chaos_world))
        result = study.perturbation_sensitivity()  # completes, does not raise
        # Every evidence retrieval exhausted: every query was skipped and
        # each cell aggregated over nothing.
        assert all(math.isnan(v) for v in result.ss_normal.values())
        records = ctx.quarantine.records()
        assert records and all(r.engine == "evidence" for r in records)
        assert ctx.events.get("evidence_quarantines") > 0

    def test_chunk_crash_is_contained_by_the_pool(self, chaos_world):
        ctx = _install(chaos_world, "runner.chunk:1.0:1:crash")
        baseline_ctx_events = ctx.events.snapshot()
        assert baseline_ctx_events == {}
        text, _ = _run(chaos_world, workers=4)
        # Every chunk crashed once and succeeded on resubmission — the
        # run completed with no data loss at all.
        assert ctx.events.get("chunk_retries") > 0
        assert len(ctx.quarantine) == 0
        assert "cell(s) degraded" not in text

    def test_chunk_crashes_recoverable_plan_output_matches(self, chaos_world):
        baseline, _ = _run(chaos_world, workers=4)
        _install(chaos_world, "runner.chunk:1.0:1:crash")
        chaotic, _ = _run(chaos_world, workers=4)
        assert chaotic == baseline


class TestFailFast:
    def test_fail_fast_propagates_sequentially(self, chaos_world):
        _install(chaos_world, "engine.answer:0.3:inf", fail_fast=True)
        with pytest.raises(InjectedFault):
            _run(chaos_world)

    def test_fail_fast_propagates_from_the_pool(self, chaos_world):
        from repro.core.runner import ChunkExecutionError

        _install(chaos_world, "engine.answer:0.3:inf", fail_fast=True)
        with pytest.raises(ChunkExecutionError):
            _run(chaos_world, workers=4)


class TestCliChaosFlags:
    def test_run_with_recoverable_chaos_and_stats(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "run", "fig1", "--stats",
                "--chaos", "engine.answer:0.4:1",
                "--chaos-seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 1" in out
        assert "resilience: plan seed=3" in out
        assert "retries" in out

    def test_run_rejects_bad_chaos_spec(self, capsys):
        from repro.__main__ import main

        code = main(["run", "fig1", "--chaos", "bogus.site:0.5"])
        assert code == 2
        assert "bad --chaos spec" in capsys.readouterr().err
