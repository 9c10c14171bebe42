"""The load generator's determinism and distribution shape."""

import collections
import math

import pytest

from repro.engines.registry import ENGINE_NAMES
from repro.entities.catalog import build_default_catalog
from repro.serve.loadgen import (
    LoadProfile,
    generate_requests,
    query_pool,
)


@pytest.fixture(scope="module")
def catalog():
    return build_default_catalog()


class TestQueryPool:
    def test_exact_size_and_mixed_shapes(self, catalog):
        pool = query_pool(catalog, 30, seed=3)
        assert len(pool) == 30
        kinds = {query.kind for query in pool}
        assert len(kinds) == 3  # ranking, comparison, intent all present

    def test_deterministic_per_seed(self, catalog):
        a = query_pool(catalog, 24, seed=5)
        b = query_pool(catalog, 24, seed=5)
        assert [q.cache_key for q in a] == [q.cache_key for q in b]
        c = query_pool(catalog, 24, seed=6)
        assert [q.cache_key for q in a] != [q.cache_key for q in c]


class TestGenerateRequests:
    def test_streams_are_byte_identical_per_profile(self, catalog):
        profile = LoadProfile(requests=200, seed=11, burstiness=3.0)
        a = generate_requests(catalog, profile)
        b = generate_requests(catalog, profile)
        assert a == b

    def test_different_seed_different_stream(self, catalog):
        a = generate_requests(catalog, LoadProfile(requests=100, seed=1))
        b = generate_requests(catalog, LoadProfile(requests=100, seed=2))
        assert a != b

    def test_arrivals_are_monotonic_and_indexed(self, catalog):
        requests = generate_requests(
            catalog, LoadProfile(requests=150, burstiness=5.0, seed=4)
        )
        assert [r.index for r in requests] == list(range(150))
        arrivals = [r.arrival for r in requests]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert arrivals[0] > 0.0

    def test_mean_rate_tracks_qps(self, catalog):
        qps = 50.0
        requests = generate_requests(
            catalog, LoadProfile(requests=600, qps=qps, burstiness=4.0, seed=9)
        )
        span = requests[-1].arrival
        observed = len(requests) / span
        assert observed == pytest.approx(qps, rel=0.35)

    def test_burstiness_packs_arrivals(self, catalog):
        smooth = generate_requests(
            catalog, LoadProfile(requests=400, burstiness=1.0, seed=8)
        )
        bursty = generate_requests(
            catalog, LoadProfile(requests=400, burstiness=8.0, seed=8)
        )

        def shared_instants(requests):
            counts = collections.Counter(r.arrival for r in requests)
            return sum(c for c in counts.values() if c > 1)

        assert shared_instants(smooth) == 0
        assert shared_instants(bursty) > 100

    def test_zipf_head_dominates(self, catalog):
        pool = query_pool(catalog, 40, seed=2)
        requests = generate_requests(
            catalog,
            LoadProfile(requests=800, zipf_s=1.2, pool_size=40, seed=2),
            pool=pool,
        )
        counts = collections.Counter(r.query.cache_key for r in requests)
        head = pool[0].cache_key
        tail = pool[-1].cache_key
        assert counts[head] > 5 * max(1, counts.get(tail, 0))
        # The head of the pool takes a disproportionate share of the
        # stream: with s=1.2 over 40 ranks the top 4 queries alone
        # carry well over a quarter of all requests.
        top4 = sum(counts.get(q.cache_key, 0) for q in pool[:4])
        assert top4 > len(requests) / 4

    def test_engine_restriction_and_default_fleet(self, catalog):
        all_engines = generate_requests(
            catalog, LoadProfile(requests=300, seed=3)
        )
        assert {r.engine for r in all_engines} == set(ENGINE_NAMES)
        only = generate_requests(
            catalog, LoadProfile(requests=50, engines=("Gemini",), seed=3)
        )
        assert {r.engine for r in only} == {"Gemini"}

    def test_profile_validation(self, catalog):
        with pytest.raises(ValueError):
            LoadProfile(requests=0)
        with pytest.raises(ValueError):
            LoadProfile(qps=0.0)
        with pytest.raises(ValueError):
            LoadProfile(burstiness=0.5)
        for field in ("qps", "burstiness", "zipf_s"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=field):
                    LoadProfile(**{field: value})
        with pytest.raises(ValueError):
            LoadProfile(engines=("AltaVista",))
        with pytest.raises(ValueError):
            generate_requests(catalog, LoadProfile(), pool=[])
