"""Informed routing: attenuated Bloom filters and their core contract.

Unit layer: crc32 hashing is deterministic, Bloom filters have no
false negatives, probe keys mirror the attribute-index normalization,
and the routing index admits along exactly the distances a flood's
remaining TTL can reach.

Contract layer (the knob's whole reason to exist): informed routing
can only *save messages, never lose a result*.  With the knob on,
every query's result set is identical to the blind flood's across
seeds, churn patterns, shard counts and filter geometries, while the
message count never rises.  (With the knob off, the filter knobs
leaving no trace is a generated cell of ``test_contract.py``.)
"""

from __future__ import annotations

from types import SimpleNamespace
from zlib import crc32

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.driver import QueryDriver, SearchOp
from repro.network.config import CacheConfig, RoutingConfig
from repro.network.gnutella import GnutellaProtocol
from repro.network.routing import _SALT, RoutingIndex, _mask
from repro.storage.plan import compile_query
from repro.storage.query import Operator, Query
from repro.workloads.scenario import ScenarioConfig, build_scenario

from tests.network.harness import publish_pattern
from tests.network.test_contract import BASE_CELL, populate


# ---------------------------------------------------------------------------
# Units: hashing and filters
# ---------------------------------------------------------------------------

class TestBloomFilter:
    def test_masks_are_deterministic_and_bounded(self):
        first = _mask("e\x1fpatterns\x1fname\x1fobserver", 512, 4)
        second = _mask("e\x1fpatterns\x1fname\x1fobserver", 512, 4)
        assert first == second
        assert 1 <= first.bit_count() <= 4
        assert 0 < first < 1 << 512

    def test_distinct_keys_hash_apart(self):
        a = _mask("t\x1fpatterns\x1fname\x1fobserver", 4096, 4)
        b = _mask("t\x1fpatterns\x1fname\x1fvisitor", 4096, 4)
        assert a != b

    def test_no_false_negatives(self):
        keys = [f"key-{index}" for index in range(40)]
        bloom = 0
        for key in keys:
            bloom |= _mask(key, 256, 4)
        for key in keys:
            mask = _mask(key, 256, 4)
            assert bloom & mask == mask

    def test_merge_is_union(self):
        alpha, beta = _mask("alpha", 128, 3), _mask("beta", 128, 3)
        merged = alpha | beta
        assert merged & alpha == alpha
        assert merged & beta == beta

    def test_bits_set(self):
        mask = _mask("something", 64, 2)
        assert 0 < mask.bit_count() <= 2
        assert mask < 1 << 64


class TestRoutingKeys:
    def test_equals_and_contains_and_any(self):
        query = Query("patterns") \
            .where("name", "Observer", Operator.EQUALS) \
            .where("intent", "decouple things", Operator.CONTAINS)
        keys = compile_query(query).routing_keys
        assert "e\x1fpatterns\x1fname\x1fobserver" in keys
        assert "t\x1fpatterns\x1fintent\x1fdecouple" in keys
        assert "t\x1fpatterns\x1fintent\x1fthings" in keys

    def test_any_field_tokens(self):
        keys = compile_query(Query.keyword("patterns", "observer")).routing_keys
        assert keys == ("a\x1fpatterns\x1fobserver",)

    def test_prefix_only_query_is_unprobeable(self):
        query = Query("patterns").where("name", "obs", Operator.PREFIX)
        assert compile_query(query).routing_keys is None

    def test_empty_query_is_unprobeable(self):
        assert compile_query(Query("patterns")).routing_keys is None


# ---------------------------------------------------------------------------
# Units: the routing index over a live overlay
# ---------------------------------------------------------------------------

def _ring_network():
    network = GnutellaProtocol(seed=7, default_ttl=20, degree=2,
                               topology_kind="ring",
                               routing=RoutingConfig(informed=True))
    populate(network)
    return network


class TestRoutingIndex:
    def test_matching_neighbour_is_always_admitted(self):
        """No false negatives: every peer holding a match admits at any
        TTL that reaches it — the heart of the no-lost-results proof."""
        network = _ring_network()
        publish_pattern(network, "peer-005", "Observer")
        index = network._routing
        assert isinstance(index, RoutingIndex)
        mask = index.hash_keys(
            compile_query(Query.keyword("patterns", "observer")).routing_keys)
        # peer-004 and peer-006 are ring neighbours of the publisher:
        # distance 1, admitted from remaining TTL 2 upward; peer-005
        # itself admits from TTL 1 (level 0 is its own index).
        assert index.admits("peer-005", mask, 1)
        assert index.admits("peer-004", mask, 2)
        assert index.admits("peer-006", mask, 2)

    def test_beyond_horizon_is_blindly_admitted(self):
        network = _ring_network()
        index = network._routing
        mask = index.hash_keys(
            compile_query(Query.keyword("patterns", "nothing-published")).routing_keys)
        depth = index.depth
        assert not index.admits("peer-000", mask, depth)
        assert index.admits("peer-000", mask, depth + 1)

    def test_offline_peers_stay_in_the_filters(self):
        """Churn safety: a peer's content remains advertised while it is
        offline, so a mid-query return cannot be routed around."""
        network = _ring_network()
        publish_pattern(network, "peer-005", "Observer")
        network.set_online("peer-005", False)
        index = network._routing
        mask = index.hash_keys(
            compile_query(Query.keyword("patterns", "observer")).routing_keys)
        assert index.admits("peer-004", mask, 2)

    def test_publish_dirties_the_filters(self):
        network = _ring_network()
        index = network._routing
        mask = index.hash_keys(
            compile_query(Query.keyword("patterns", "latecomer")).routing_keys)
        assert not index.admits("peer-003", mask, 1)
        publish_pattern(network, "peer-003", "Latecomer")
        assert index.admits("peer-003", mask, 1)

    def test_admits_respects_level_limit(self):
        network = _ring_network()
        publish_pattern(network, "peer-005", "Needle")
        index = network._routing
        mask = index.hash_keys(
            compile_query(Query.keyword("patterns", "needle")).routing_keys)
        # peer-005 is at ring distance 2 from peer-003: remaining TTL 1
        # and 2 see levels 0 / 0-1 only.
        assert not index.admits("peer-003", mask, 1)
        assert not index.admits("peer-003", mask, 2)
        assert index.admits("peer-003", mask, 3)

    def test_conjunction_must_sit_in_one_level(self):
        network = _ring_network()
        publish_pattern(network, "peer-005", "Alpha")
        publish_pattern(network, "peer-006", "Gamma", intent="beta")
        index = network._routing
        query = Query("patterns") \
            .where("name", "Alpha", Operator.EQUALS) \
            .where("intent", "beta", Operator.CONTAINS)
        mask = index.hash_keys(compile_query(query).routing_keys)
        # Seen from peer-005, level 0 holds "alpha" and level 1 (peers
        # 004 and 006) "beta": no single peer holds both, not admitted.
        assert not index.admits("peer-005", mask, 2)
        publish_pattern(network, "peer-006", "Alpha")
        assert index.admits("peer-005", mask, 2)

    def test_advertisement_bytes_paid_once_per_version(self):
        network = _ring_network()
        index = network._routing
        first = index.advertisement_bytes("peer-002", "peer-003")
        assert first == 4 + 3 * 512 // 8  # header + one 512-bit filter per depth level
        assert index.advertisement_bytes("peer-002", "peer-003") == 0
        # A content change bumps the version and re-bills the link.
        publish_pattern(network, "peer-002", "Fresh Object")
        assert index.advertisement_bytes("peer-002", "peer-003") == first
        # Dropping the link forgets the advertisement entirely.
        index.forget_link("peer-002", "peer-003")
        assert index.advertisement_bytes("peer-002", "peer-003") == first

    def test_blind_network_has_no_routing_index(self):
        network = GnutellaProtocol(seed=7)
        assert network._routing is None


# ---------------------------------------------------------------------------
# Equivalence: one mask per query is the per-position probe
# ---------------------------------------------------------------------------

_KEYS = st.text(alphabet="abcdefgh", min_size=1, max_size=3)
#: small enough that distinct keys collide
_BITS = 8


def _reference_positions(key, size_bits, hash_count):
    """A key's bit positions as the per-position probe hashed them:
    the same crc32 double hashing, one position per hash."""
    data = key.encode("utf-8")
    h1 = crc32(data)
    h2 = crc32(data, _SALT) | 1
    return tuple((h1 + i * h2) % size_bits for i in range(hash_count))


def _reference_admits(levels, groups, remaining_ttl, depth, hash_count):
    """The per-position probe: past the horizon admit blindly, else some
    level within reach has every position of every key of every
    criterion group set."""
    if remaining_ttl > depth:
        return True
    position_groups = [[_reference_positions(key, _BITS, hash_count) for key in group]
                       for group in groups]
    for level in levels[:remaining_ttl]:
        if all(level >> position & 1
               for group in position_groups for positions in group
               for position in positions):
            return True
    return False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mask_probe_decides_as_the_per_position_probe(data):
    """Random level contents, criterion groups and level limits over an
    8-bit filter (so keys collide): ``RoutingIndex.admits`` with the
    query's one mask admits exactly when the per-position probe does."""
    hash_count = data.draw(st.integers(1, 4), label="hash_count")
    depth = data.draw(st.integers(1, 4), label="depth")
    level_keys = data.draw(st.lists(st.lists(_KEYS, max_size=4),
                                    min_size=depth, max_size=depth), label="levels")
    groups = data.draw(st.lists(st.lists(_KEYS, min_size=1, max_size=3),
                                min_size=1, max_size=3), label="groups")
    remaining_ttl = data.draw(st.integers(1, depth + 1), label="remaining_ttl")
    levels = []
    for keys in level_keys:
        bits = 0
        for key in keys:
            for position in _reference_positions(key, _BITS, hash_count):
                bits |= 1 << position
        levels.append(bits)
    for key in {key for group in groups for key in group}:
        assert _mask(key, _BITS, hash_count) == sum(
            1 << position for position in set(_reference_positions(key, _BITS, hash_count)))
    index = RoutingIndex(SimpleNamespace(peers={}), filter_bits=_BITS,
                         hash_count=hash_count, depth=depth)
    index._filters["neighbour"] = tuple(levels)
    index._dirty_graph = False
    mask = index.hash_keys(tuple(key for group in groups for key in group))
    assert index.admits("neighbour", mask, remaining_ttl) == _reference_admits(
        levels, groups, remaining_ttl, depth, hash_count)


# ---------------------------------------------------------------------------
# Contract: saves messages, never loses a result
# ---------------------------------------------------------------------------

CONFIG = dict(BASE_CELL, protocol="gnutella")


def run_cell(**overrides):
    """One scenario run returning per-query *result sets* (not counts):
    the routing contract is about which (provider, resource) pairs every
    query delivers, which counts alone cannot pin."""
    scenario = build_scenario(ScenarioConfig(**{**CONFIG, **overrides}))
    members = scenario.members()
    ops = [SearchOp(members[index % len(members)].peer_id, query)
           for index, query in enumerate(scenario.workload)]
    driver = QueryDriver(scenario.network)
    result_sets = []
    step = scenario.config.concurrency
    for start in range(0, len(ops), step):
        outcome = driver.run_mixed(
            ops[start:start + step], max_results=100,
            interarrival_ms=scenario.config.query_interarrival_ms)
        for response in outcome.responses:
            result_sets.append(frozenset(
                (result.provider_id, result.resource_id)
                for result in response.results))
    stats = scenario.network.stats
    return {
        "result_sets": result_sets,
        "total_messages": stats.total_messages,
        "total_bytes": stats.total_bytes,
        "by_type": dict(stats.messages_by_type),
        "bytes_by_type": dict(stats.bytes_by_type),
        "latencies": [round(record.latency_ms, 6) for record in stats.queries],
        "routing_pruned": stats.routing_pruned,
        "routing_fallbacks": stats.routing_fallbacks,
        "routing_fp_forwards": stats.routing_fp_forwards,
        "routing_filter_bytes": stats.routing_filter_bytes,
    }


class TestInformedRoutingContract:
    @pytest.mark.parametrize("seed", (23, 31))
    @pytest.mark.parametrize("churn_session_ms", (None, 1_500.0))
    def test_informed_never_loses_a_result(self, seed, churn_session_ms):
        """The tentpole contract, across seeds and churn: identical
        result sets, never more messages."""
        cell = dict(seed=seed, churn_session_ms=churn_session_ms,
                    churn_absence_ms=800.0)
        blind = run_cell(**cell)
        informed = run_cell(informed_routing=True, **cell)
        assert informed["result_sets"] == blind["result_sets"]
        assert informed["total_messages"] <= blind["total_messages"]
        # Latency is quiesce time, so pruning may only *shorten* it.
        for fast, slow in zip(informed["latencies"], blind["latencies"]):
            assert fast <= slow + 1e-6

    def test_informed_actually_saves_messages(self):
        blind = run_cell()
        informed = run_cell(informed_routing=True)
        assert informed["result_sets"] == blind["result_sets"]
        assert informed["total_messages"] < blind["total_messages"]
        assert informed["routing_pruned"] > 0

    def test_informed_run_is_deterministic(self):
        first = run_cell(informed_routing=True, churn_session_ms=1_500.0,
                         churn_absence_ms=800.0)
        second = run_cell(informed_routing=True, churn_session_ms=1_500.0,
                          churn_absence_ms=800.0)
        assert first == second

    def test_deeper_filters_never_lose_results_either(self):
        blind = run_cell()
        for depth, bits in ((1, 512), (5, 2048)):
            informed = run_cell(informed_routing=True, routing_depth=depth,
                                routing_filter_bits=bits)
            assert informed["result_sets"] == blind["result_sets"]
            assert informed["total_messages"] <= blind["total_messages"]

    def test_live_membership_cell_is_pinned(self):
        """Under live membership the filters ride keepalive PONGs and
        link repair can race a flood, so the cell is pinned empirically:
        deterministic, and (for this seeded cell) still result-identical
        to the blind flood — the topology trajectory is driven by
        keepalive/discovery traffic alone, never by QUERY messages."""
        cell = dict(live_membership=True, maintenance_interval_ms=250.0,
                    churn_session_ms=1_500.0, churn_absence_ms=800.0)
        blind = run_cell(**cell)
        first = run_cell(informed_routing=True, **cell)
        second = run_cell(informed_routing=True, **cell)
        assert first == second
        assert first["result_sets"] == blind["result_sets"]
        assert first["total_messages"] <= blind["total_messages"]
        # The filters genuinely travelled: advert bytes were billed.
        assert first["routing_filter_bytes"] > 0

    def test_composes_with_sharded_kernel(self):
        one = run_cell(informed_routing=True)
        four = run_cell(informed_routing=True, shards=4)
        assert one == four

    def test_refuses_result_caching(self):
        with pytest.raises(ValueError, match="does not compose"):
            ScenarioConfig(informed_routing=True, result_caching=True)
        with pytest.raises(ValueError, match="does not compose"):
            GnutellaProtocol(routing=RoutingConfig(informed=True),
                             cache=CacheConfig(enabled=True))

    def test_non_flooding_protocols_ignore_the_knob(self):
        for protocol in ("centralized", "super-peer", "rendezvous"):
            blind = run_cell(protocol=protocol)
            informed = run_cell(protocol=protocol, informed_routing=True)
            assert informed == blind
