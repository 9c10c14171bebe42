"""Tests for RNG derivation and the context window."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.perturbations import entity_swap_injection
from repro.cachewitness import fingerprint as cache_fingerprint
from repro.entities.catalog import build_default_catalog
from repro.llm.context import ContextWindow, EvidenceSnippet
from repro.llm.rng import derive_rng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("a", 1, "b") == derive_seed("a", 1, "b")

    def test_component_boundaries_matter(self):
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_order_matters(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_rng_reproducible(self):
        a = derive_rng("x", 1).random()
        b = derive_rng("x", 1).random()
        assert a == b

    @given(st.lists(st.text(max_size=10), max_size=5))
    def test_seed_in_64_bit_range(self, parts):
        seed = derive_seed(*parts)
        assert 0 <= seed < 2**64


def snip(url, stances, text="text"):
    return EvidenceSnippet(text=text, url=url, domain="d.com", entity_stance=stances)


class TestEvidenceSnippet:
    def test_supports(self):
        s = snip("https://d.com/1", {"e:a": 0.5})
        assert s.supports("e:a")
        assert not s.supports("e:b")

    def test_with_stances_replaces(self):
        s = snip("https://d.com/1", {"e:a": 0.5})
        swapped = s.with_stances({"e:b": -0.2})
        assert swapped.supports("e:b") and not swapped.supports("e:a")
        assert s.supports("e:a")  # original untouched


class TestContextWindow:
    def make_window(self):
        return ContextWindow(
            [
                snip("https://d.com/1", {"e:a": 0.5, "e:b": -0.1}),
                snip("https://d.com/2", {"e:b": 0.3}),
                snip("https://d.com/3", {"e:c": 0.9}),
            ]
        )

    def test_sequence_protocol(self):
        window = self.make_window()
        assert len(window) == 3
        assert window[0].url == "https://d.com/1"
        assert isinstance(window[:2], ContextWindow)
        assert len(window[:2]) == 2

    def test_support_positions(self):
        window = self.make_window()
        positions = [pos for pos, __ in window.support("e:b")]
        assert positions == [0, 1]
        assert window.support("e:zzz") == []

    def test_supported_entities(self):
        assert self.make_window().supported_entities() == {"e:a", "e:b", "e:c"}

    def test_mention_count(self):
        assert self.make_window().mention_count() == 4

    def test_fingerprint_is_order_sensitive(self):
        window = self.make_window()
        shuffled = window.reordered([2, 0, 1])
        assert window.fingerprint() != shuffled.fingerprint()

    def test_fingerprint_stable(self):
        window = self.make_window()
        assert window.fingerprint() == window.fingerprint()
        assert window.fingerprint() == self.make_window().fingerprint()

    def test_fingerprint_sensitive_to_stances(self):
        a = ContextWindow([snip("https://d.com/1", {"e:a": 0.5})])
        b = ContextWindow([snip("https://d.com/1", {"e:a": -0.5})])
        assert a.fingerprint() != b.fingerprint()

    def test_reordered_validates_permutation(self):
        with pytest.raises(ValueError):
            self.make_window().reordered([0, 0, 1])

    def test_reordered_identity_keeps_fingerprint(self):
        window = self.make_window()
        assert window.reordered([0, 1, 2]).fingerprint() == window.fingerprint()

    def test_fingerprint_survives_pickle(self):
        window = self.make_window()
        assert pickle.loads(pickle.dumps(window)).fingerprint() == window.fingerprint()

    def test_fingerprint_leaves_a_cached_window_unchanged(self):
        # EvidenceCache stores windows and the cache witness re-renders
        # them on every hit, so reading the fingerprint must not write.
        window = self.make_window()
        before = cache_fingerprint(window)
        window.fingerprint()
        assert cache_fingerprint(window) == before

    def test_derived_windows_get_their_own_fingerprint(self):
        catalog = build_default_catalog()
        entities = ["suvs:toyota", "suvs:honda", "suvs:kia"]
        window = ContextWindow(
            snip(f"https://d.com/{i}", {e: 0.2 * (i + 1)}, f"{catalog.get(e).name} is reliable.")
            for i, e in enumerate(entities)
        )
        parent = window.fingerprint()
        derived = [
            window.reordered([1, 0, 2]),
            window[:2],
            entity_swap_injection(window, catalog, entities, random.Random(0), swap_fraction=1.0),
        ]
        for child in derived:
            assert child.fingerprint() != parent
            assert child.fingerprint() == ContextWindow(list(child)).fingerprint()
        assert window.fingerprint() == parent
