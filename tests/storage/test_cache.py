"""Unit tests for the query-result cache (storage/cache.py)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.cache import QueryResultCache
from repro.storage.plan import compile_query
from repro.storage.query import Criterion, Operator, Query


@dataclass(frozen=True)
class FakeResult:
    provider_id: str
    resource_id: str


def entry_for(*providers: str) -> tuple:
    return tuple(FakeResult(provider, f"res-{index}") for index, provider in enumerate(providers))


def provider_scan(cache: QueryResultCache) -> dict:
    """provider id -> keys of the entries naming it, by brute force over
    every entry: what the cache's provider index must always equal."""
    scan: dict = {}
    for key, entry in cache._entries.items():
        for result in entry.results:
            scan.setdefault(result.provider_id, {})[key] = None
    return scan


class TestCanonicalKey:
    def test_criterion_order_does_not_matter(self):
        one = Criterion("a", "x", Operator.EQUALS)
        two = Criterion("b", "y", Operator.EQUALS)
        assert compile_query(Query("c", [one, two])).cache_key == (
            compile_query(Query("c", [two, one])).cache_key
        )

    def test_case_and_whitespace_normalize(self):
        first = Query("c", [Criterion("name", "  Observer ", Operator.EQUALS)])
        second = Query("c", [Criterion("name", "observer", Operator.EQUALS)])
        assert compile_query(first).cache_key == compile_query(second).cache_key

    def test_token_order_insensitive_for_keywords(self):
        first = Query.keyword("c", "alpha beta")
        second = Query.keyword("c", "beta alpha")
        assert compile_query(first).cache_key == compile_query(second).cache_key

    def test_distinct_queries_get_distinct_keys(self):
        plans = [
            compile_query(Query("c", [Criterion("name", "observer", Operator.EQUALS)])),
            compile_query(Query("c", [Criterion("name", "factory", Operator.EQUALS)])),
            compile_query(Query("c", [Criterion("name", "observer", Operator.PREFIX)])),
            compile_query(Query("d", [Criterion("name", "observer", Operator.EQUALS)])),
        ]
        assert len({plan.cache_key for plan in plans}) == 4


class TestQueryResultCache:
    def test_put_get_roundtrip(self):
        cache = QueryResultCache(capacity=4, ttl_ms=1_000.0)
        results = entry_for("p1", "p2")
        cache.put("k", results, 42, now=0.0)
        entry = cache.get("k", now=500.0)
        assert entry is not None
        assert entry.results == results
        assert entry.metadata_bytes == 42
        assert cache.hits == 1 and cache.misses == 0

    def test_ttl_expiry_on_get(self):
        cache = QueryResultCache(capacity=4, ttl_ms=1_000.0)
        cache.put("k", entry_for("p1"), 1, now=0.0)
        assert cache.get("k", now=1_000.0) is None
        assert cache.expirations == 1 and cache.misses == 1
        assert len(cache) == 0

    def test_lease_caps_entry_life_below_ttl(self):
        cache = QueryResultCache(capacity=4, ttl_ms=10_000.0)
        cache.put("k", entry_for("p1"), 1, now=0.0, lease_ms=500.0)
        assert cache.get("k", now=600.0) is None

    def test_lru_eviction_order(self):
        cache = QueryResultCache(capacity=2, ttl_ms=1_000.0)
        cache.put("a", entry_for("p1"), 1, now=0.0)
        cache.put("b", entry_for("p2"), 1, now=0.0)
        assert cache.get("a", now=1.0) is not None  # refresh "a"
        cache.put("c", entry_for("p3"), 1, now=2.0)  # evicts "b"
        assert cache.evictions == 1
        assert cache.get("b", now=3.0) is None
        assert cache.get("a", now=3.0) is not None
        assert cache.get("c", now=3.0) is not None

    def test_version_bump_invalidates_older_entries(self):
        cache = QueryResultCache(capacity=4, ttl_ms=1_000.0)
        cache.put("k", entry_for("p1"), 1, now=0.0)
        cache.bump_version()
        assert cache.get("k", now=1.0) is None
        assert cache.invalidations == 1
        cache.put("k", entry_for("p1"), 1, now=1.0)
        assert cache.get("k", now=2.0) is not None

    def test_invalidate_provider_kills_only_matching_entries(self):
        cache = QueryResultCache(capacity=4, ttl_ms=1_000.0)
        cache.put("with", entry_for("gone", "stays"), 1, now=0.0)
        cache.put("without", entry_for("stays"), 1, now=0.0)
        assert cache.invalidate_provider("gone") == 1
        assert cache.get("with", now=1.0) is None
        assert cache.get("without", now=1.0) is not None

    def test_sweep_drops_only_expired(self):
        cache = QueryResultCache(capacity=4, ttl_ms=1_000.0)
        cache.put("old", entry_for("p1"), 1, now=0.0)
        cache.put("new", entry_for("p2"), 1, now=800.0)
        assert cache.sweep(now=1_200.0) == 1
        assert "old" not in cache
        assert "new" in cache

    def test_empty_result_sets_cache_too(self):
        cache = QueryResultCache(capacity=4, ttl_ms=1_000.0)
        cache.put("miss-query", (), 0, now=0.0)
        entry = cache.get("miss-query", now=1.0)
        assert entry is not None
        assert entry.results == ()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=0)
        with pytest.raises(ValueError):
            QueryResultCache(ttl_ms=0.0)

    def test_hits_and_misses_are_counted(self):
        cache = QueryResultCache(capacity=4, ttl_ms=1_000.0)
        cache.put("k", entry_for("p1"), 1, now=0.0)
        cache.get("k", now=1.0)
        cache.get("absent", now=1.0)
        assert (cache.hits, cache.misses) == (1, 1)


PROVIDERS = ("p0", "p1", "p2", "p3")
KEYS = st.integers(0, 3)
PUT = st.tuples(st.just("put"), KEYS,
                st.lists(st.sampled_from(PROVIDERS), min_size=1, max_size=4),
                st.sampled_from([None, 30.0]))

#: one cache operation on a two-entry cache: keys outnumber the
#: capacity, so puts replace and evict; waits outrun the lease, so
#: lookups and sweeps meet expired entries; a result list may name one
#: provider twice
CACHE_OPS = st.one_of(
    PUT, PUT, st.tuples(st.just("get"), KEYS), st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("wait"), st.sampled_from([10.0, 60.0])),
    st.tuples(st.just("invalidate"), st.sampled_from(PROVIDERS)),
    st.tuples(st.sampled_from(["bump", "sweep", "clear"])),
)


class TestProviderIndex:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ops=st.lists(CACHE_OPS, min_size=30, max_size=60))
    def test_index_equals_a_brute_force_scan_after_every_step(self, ops):
        cache = QueryResultCache(capacity=2, ttl_ms=100.0)
        now = 0.0
        for op in ops:
            kind = op[0]
            if kind == "put":
                _kind, key, providers, lease = op
                cache.put(key, entry_for(*providers), 1, now, lease_ms=lease)
            elif kind == "get":
                cache.get(op[1], now)
            elif kind == "wait":
                now += op[1]
            elif kind == "invalidate":
                expected = len(provider_scan(cache).get(op[1], ()))
                before = cache.invalidations
                assert cache.invalidate_provider(op[1]) == expected
                assert cache.invalidations == before + expected
            elif kind == "bump":
                cache.bump_version()
            elif kind == "sweep":
                cache.sweep(now)
            else:
                cache.clear()
            assert cache._by_provider == provider_scan(cache)
            assert all(cache._by_provider.values())
