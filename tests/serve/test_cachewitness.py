"""The runtime cache-staleness witness (:mod:`repro.cachewitness`).

The witness is the dynamic half of the cachelint contract: with
``REPRO_CACHE_WITNESS=1`` every instrumented cache fingerprints stored
values at insert, re-verifies them on every hit, and checks a
generation stamp, so staleness raises
:class:`CacheCoherenceViolation` with a readable message instead of
silently skewing results.  The centerpiece is the epoch-free memo
fixture that cachelint flags statically (CACHE002) being caught *live*
by the witness — plus the acceptance gate that the serving digest is
byte-identical with the witness on.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.caching import BoundedCache
from repro.cachewitness import (
    CacheCoherenceViolation,
    CacheWitness,
    fingerprint,
    witness_for,
)
from repro.core.config import StudyConfig, cache_witness_enabled
from repro.core.world import World
from repro.engines.base import Answer
from repro.serve.loadgen import LoadProfile, generate_requests
from repro.serve.loop import answers_digest

from tests.serve.conftest import SERVE_SIZES

STALENESS_FIXTURE = (
    Path(__file__).resolve().parents[1]
    / "devtools" / "fixtures" / "cachelint" / "staleness_live.py"
)


@pytest.fixture
def witness_on(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_WITNESS", "1")


def load_staleness_module():
    spec = importlib.util.spec_from_file_location(
        "staleness_live_under_test", STALENESS_FIXTURE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWitnessFactory:
    def test_disabled_by_default_returns_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_WITNESS", raising=False)
        assert witness_for("Fixture._cache") is None

    def test_enabled_returns_witness(self, witness_on):
        witness = witness_for("Fixture._cache")
        assert isinstance(witness, CacheWitness)
        assert witness.site == "Fixture._cache"


class TestFingerprint:
    def test_structural_equality(self):
        assert fingerprint((1, "a", [2.5])) == fingerprint((1, "a", [2.5]))

    def test_mutation_changes_the_digest(self):
        value = {"k": [1, 2]}
        before = fingerprint(value)
        value["k"].append(3)
        assert fingerprint(value) != before

    def test_dict_and_set_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({3, 1, 2}) == fingerprint({2, 3, 1})

    def test_dataclasses_render_by_field(self):
        one = Answer(engine="E", query_id="q", text="t")
        two = Answer(engine="E", query_id="q", text="t")
        assert fingerprint(one) == fingerprint(two)
        assert fingerprint(one) != fingerprint(
            Answer(engine="E", query_id="q", text="different")
        )


class TestWitnessSemantics:
    def test_record_then_verify_clean(self):
        witness = CacheWitness("Fixture._w")
        witness.record("k", (1, 2))
        witness.verify("k", (1, 2))
        assert len(witness) == 1

    def test_verify_adopts_unknown_entries(self):
        # A hit on an entry inserted before the witness attached is
        # adopted as ground truth, then enforced.
        witness = CacheWitness("Fixture._w")
        witness.verify("k", [1])
        with pytest.raises(CacheCoherenceViolation, match="mutated"):
            witness.verify("k", [1, 2])

    def test_mutation_after_insert_raises(self):
        witness = CacheWitness("Fixture._w")
        value = [1]
        witness.record("k", value)
        value.append(2)
        with pytest.raises(CacheCoherenceViolation, match="mutated"):
            witness.verify("k", value)

    def test_reinsert_with_different_value_raises(self):
        witness = CacheWitness("Fixture._w")
        witness.record("k", 1)
        with pytest.raises(CacheCoherenceViolation, match="re-insert"):
            witness.record("k", 2)

    def test_epoch_stamp_drift_raises(self):
        epoch = {"n": 0}
        witness = CacheWitness("Fixture._w", epochs=lambda: epoch["n"])
        witness.record("k", "v")
        witness.verify("k", "v")
        epoch["n"] += 1
        with pytest.raises(CacheCoherenceViolation, match="outlived"):
            witness.verify("k", "v")

    def test_forget_and_clear(self):
        witness = CacheWitness("Fixture._w")
        witness.record("k", 1)
        witness.forget("k")
        witness.record("k", 2)  # no contradiction: the entry was dropped
        witness.clear()
        assert len(witness) == 0
        witness.record("k", 3)


class TestInstrumentedBoundedCache:
    """:class:`BoundedCache` wires the witness into put/get/clear."""

    def test_stale_hit_after_epoch_bump_raises(self, witness_on):
        epoch = {"n": 0}
        cache = BoundedCache(
            limit=4, site="Fixture._cache", epochs=lambda: epoch["n"]
        )
        cache.put("k", (1, 2))
        assert cache.get("k") == (1, 2)
        epoch["n"] += 1
        with pytest.raises(CacheCoherenceViolation, match="outlived"):
            cache.get("k")

    def test_aliased_mutation_raises_on_next_hit(self, witness_on):
        cache = BoundedCache(limit=4, site="Fixture._cache")
        stored = cache.put("k", [1])
        stored.append(2)
        with pytest.raises(CacheCoherenceViolation, match="mutated"):
            cache.get("k")

    def test_clear_resets_the_witness(self, witness_on):
        cache = BoundedCache(limit=4, site="Fixture._cache")
        cache.put("k", 1)
        cache.clear()
        cache.put("k", 2)
        assert cache.get("k") == 2

    def test_disabled_witness_is_inert(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_WITNESS", raising=False)
        cache = BoundedCache(limit=4, site="Fixture._cache")
        stored = cache.put("k", [1])
        stored.append(2)
        assert cache.get("k") == [1, 2]  # plain cache: nothing verifies


class TestStalenessFixtureCaughtLive:
    """The contract centerpiece: the module cachelint flags as CACHE002
    raises under the witness when the staleness actually happens."""

    def test_stale_read_raises_instead_of_serving(self, witness_on):
        mod = load_staleness_module()
        table = mod.TinyTable()
        board = mod.SummaryBoard(table)
        assert board._witness is not None
        table.add("a", 1)
        first = board.summary("a")
        assert board.summary("a") == first  # same epoch: clean hit
        table.add("b", 2)  # bumps the epoch; the memo key does not
        with pytest.raises(CacheCoherenceViolation, match="outlived"):
            board.summary("a")

    def test_disabled_witness_serves_the_stale_entry(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_WITNESS", raising=False)
        mod = load_staleness_module()
        table = mod.TinyTable()
        board = mod.SummaryBoard(table)
        assert board._witness is None
        stale = board.summary("a")
        table.add("a", 1)
        # The exact bug the static finding describes: the entry computed
        # before the write keeps being served after it.
        assert board.summary("a") == stale


class TestServeDigestUnchangedUnderWitness:
    """Acceptance: enabling the witness changes no served byte."""

    @pytest.fixture
    def witness_world(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_WITNESS", "1")
        return World.build(
            StudyConfig(seed=13, corpus_scale=0.35, sizes=SERVE_SIZES)
        )

    def test_digest_byte_identical_with_witness_enabled(
        self, serve_world, witness_world
    ):
        profile = LoadProfile(requests=60, pool_size=12, seed=9)
        baseline = answers_digest(
            serve_world.serve_loop(workers=4).serve(
                generate_requests(serve_world.catalog, profile)
            )
        )
        witnessed = answers_digest(
            witness_world.serve_loop(workers=4).serve(
                generate_requests(witness_world.catalog, profile)
            )
        )
        assert witnessed == baseline
        # And the witness really was attached to the serving caches.
        assert witness_world.engines["Google"]._answer_cache._witness is not None
        if not cache_witness_enabled():
            # Only a witness-free run has a witness-free baseline: under
            # `make cachewitness` the ambient flag arms *every* world,
            # and the comparison above is witness-vs-witness (still a
            # valid byte-identity check, just not a differential one).
            assert serve_world.engines["Google"]._answer_cache._witness is None
