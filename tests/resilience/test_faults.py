"""The fault-injection substrate: plans, determinism, the sim clock."""

import pickle

import pytest

from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResilienceExhausted,
    SimClock,
)


class TestFaultPlan:
    def test_empty_plan_never_faults(self):
        injector = FaultInjector(FaultPlan())
        for site in ("engine.answer", "retrieval.select_sources"):
            assert injector.would_fault(site, "any-key", 1) is None
            injector.check(site, "any-key", 1)  # does not raise

    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nonexistent.site")

    def test_rejects_bad_rate_failures_kind(self):
        with pytest.raises(ValueError):
            FaultSpec(site="engine.answer", rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="engine.answer", failures=0)
        with pytest.raises(ValueError):
            FaultSpec(site="engine.answer", kind="meteor")

    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "engine.answer:0.2:2,retrieval.select_sources:0.1:inf:timeout",
            seed=9,
        )
        assert plan.seed == 9
        assert len(plan.specs) == 2
        assert plan.specs[0] == FaultSpec(site="engine.answer", rate=0.2, failures=2)
        assert plan.specs[1].failures is None
        assert plan.specs[1].kind == "timeout"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("engine.answer")  # missing rate
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus.site:0.5")
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("search.shard:1.0")

    def test_parse_rejects_empty_match(self):
        with pytest.raises(ValueError, match="empty @match"):
            FaultPlan.parse("engine.answer@:1.0")


class TestMatchNarrowing:
    """``match`` selection: a substring test over ``str(key)``."""

    def test_engine_name_match_stays_substring(self):
        injector = FaultInjector(
            FaultPlan.parse("engine.answer@Gemini:1.0:inf")
        )
        assert injector.would_fault("engine.answer", ("Gemini", "q3"), 1)
        assert (
            injector.would_fault("engine.answer", ("GPT-4o", "q1"), 1)
            is None
        )

    def test_all_digit_match_on_string_keys_falls_back_to_substring(self):
        # A digit match is a substring test like any other.
        injector = FaultInjector(
            FaultPlan.parse("retrieval.select_sources@7:1.0:inf")
        )
        assert injector.would_fault(
            "retrieval.select_sources", "best 7-seater suv", 1
        )
        assert (
            injector.would_fault(
                "retrieval.select_sources", "best sedan", 1
            )
            is None
        )

    def test_match_composes_with_rate_and_failures(self):
        injector = FaultInjector(
            FaultPlan.parse("engine.answer@Gemini:1.0:2"),
        )
        assert injector.would_fault("engine.answer", ("Gemini", "q"), 1)
        assert injector.would_fault("engine.answer", ("Gemini", "q"), 2)
        assert injector.would_fault("engine.answer", ("Gemini", "q"), 3) is None
        assert injector.would_fault("engine.answer", ("GPT-4o", "q"), 1) is None


class TestInjectionDeterminism:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan.parse("engine.answer:0.5:1", seed=3)
        a, b = FaultInjector(plan), FaultInjector(plan)
        keys = [("GPT-4o", f"q-{i}") for i in range(50)]
        decisions_a = [a.would_fault("engine.answer", k, 1) is not None for k in keys]
        decisions_b = [b.would_fault("engine.answer", k, 1) is not None for k in keys]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)  # rate actually selects

    def test_different_seed_different_selection(self):
        keys = [("GPT-4o", f"q-{i}") for i in range(100)]

        def selected(seed):
            injector = FaultInjector(FaultPlan.parse("engine.answer:0.3:1", seed=seed))
            return [
                k for k in keys if injector.would_fault("engine.answer", k, 1)
            ]

        assert selected(1) != selected(2)

    def test_recoverable_key_succeeds_after_failures(self):
        injector = FaultInjector(FaultPlan.parse("engine.answer:1.0:2", seed=0))
        with pytest.raises(InjectedFault):
            injector.check("engine.answer", "k", 1)
        with pytest.raises(InjectedFault):
            injector.check("engine.answer", "k", 2)
        injector.check("engine.answer", "k", 3)  # recovered

    def test_unrecoverable_key_never_succeeds(self):
        injector = FaultInjector(FaultPlan.parse("engine.answer:1.0:inf", seed=0))
        for attempt in (1, 5, 50):
            with pytest.raises(InjectedFault):
                injector.check("engine.answer", "k", attempt)

    def test_timeout_fault_consumes_simulated_time(self):
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(
                    site="retrieval.select_sources",
                    kind="timeout",
                    timeout_seconds=5.0,
                ),
            ),
        )
        injector = FaultInjector(plan)
        clock = SimClock()
        with pytest.raises(InjectedFault) as excinfo:
            injector.check("retrieval.select_sources", "q", 1, clock=clock)
        assert excinfo.value.kind == "timeout"
        assert clock.now() == pytest.approx(5.0)


class TestExceptionsCrossThePipe:
    """Both exception types must survive pickling (process-pool results)."""

    def test_injected_fault_pickles(self):
        fault = InjectedFault("engine.answer", ("GPT-4o", "q-1"), 2, "timeout")
        clone = pickle.loads(pickle.dumps(fault))
        assert clone.site == fault.site
        assert clone.key == fault.key
        assert clone.attempt == 2
        assert clone.kind == "timeout"
        assert str(clone) == str(fault)

    def test_resilience_exhausted_pickles(self):
        error = ResilienceExhausted("evidence.context", "q-2", 3, "timeout persisted")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.site == error.site
        assert clone.attempts == 3
        assert clone.reason == "timeout persisted"
        assert str(clone) == str(error)


class TestSimClock:
    def test_advances_only_by_sleep(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.sleep(1.5)
        clock.sleep(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_ignores_non_positive_sleeps(self):
        clock = SimClock()
        clock.sleep(0.0)
        clock.sleep(-3.0)
        assert clock.now() == 0.0
