"""Tests for protocol messages, statistics and topology generation."""

import pytest

from repro.network.messages import (
    MessageType,
    download_request,
    next_message_id,
    query_hit_message,
    query_message,
    register_message,
)
from repro.network.stats import NetworkStats, QueryRecord
from repro.network.topology import Topology, build_topology


class TestMessages:
    def test_message_ids_unique(self):
        assert next_message_id() != next_message_id()

    def test_query_message_payload_size(self):
        message = query_message("a", "b", "<query community='c'/>", ttl=5)
        assert message.type == MessageType.QUERY
        assert message.payload_bytes == len("<query community='c'/>")
        assert message.size_bytes > message.payload_bytes  # header added

    def test_forwarded_decrements_ttl_and_keeps_id(self):
        original = query_message("a", "b", "<query community='c'/>", ttl=3)
        forwarded = original.forwarded("b", "c")
        assert forwarded.ttl == 2
        assert forwarded.hops == 1
        assert forwarded.message_id == original.message_id
        assert not forwarded.expired
        assert forwarded.forwarded("c", "d").forwarded("d", "e").expired

    def test_query_hit_size_grows_with_results(self):
        small = query_hit_message("a", "b", result_count=1, metadata_bytes=10, message_id="m")
        large = query_hit_message("a", "b", result_count=50, metadata_bytes=900, message_id="m")
        assert large.size_bytes > small.size_bytes

    def test_register_and_download_messages(self):
        register = register_message("a", "server", community_id="c", resource_id="r", metadata_bytes=64)
        assert register.type == MessageType.REGISTER
        request = download_request("a", "b", "resource-1")
        assert request.resource_id == "resource-1"


class TestStats:
    def test_message_accounting(self):
        stats = NetworkStats()
        stats.record_message(query_message("a", "b", "<q/>"))
        stats.record_message(query_message("b", "c", "<q/>"))
        assert stats.total_messages == 2
        assert stats.messages_of(MessageType.QUERY) == 2
        assert stats.total_bytes > 0

    def test_query_summaries(self):
        stats = NetworkStats()
        stats.record_query(QueryRecord("q1", "a", "c", results=2, messages=10, bytes=100,
                                       peers_probed=5, latency_ms=40.0))
        stats.record_query(QueryRecord("q2", "a", "c", results=0, messages=20, bytes=200,
                                       peers_probed=9, latency_ms=60.0))
        assert stats.mean_messages_per_query() == 15
        assert stats.mean_latency_ms() == 50
        assert stats.mean_results_per_query() == 1
        assert stats.success_rate() == 0.5
        summary = stats.summary()
        assert summary["queries"] == 2

    def test_reset(self):
        stats = NetworkStats()
        stats.record_download(1000)
        stats.record_message(query_message("a", "b", "<q/>"))
        stats.reset()
        assert stats.total_messages == 0
        assert stats.downloads == 0

    def test_empty_stats_are_zero(self):
        stats = NetworkStats()
        assert stats.mean_messages_per_query() == 0
        assert stats.success_rate() == 0


class TestTopology:
    def peer_ids(self, count):
        return [f"peer-{index:03d}" for index in range(count)]

    @pytest.mark.parametrize("kind", ["power-law", "random", "ring", "star"])
    def test_generated_topologies_are_connected(self, kind):
        topology = build_topology(self.peer_ids(40), kind=kind, degree=4, seed=2)
        assert topology.is_connected()
        assert set(topology.peer_ids) == set(self.peer_ids(40))

    def test_ring_degree(self):
        topology = build_topology(self.peer_ids(10), kind="ring")
        assert all(topology.degree(peer) == 2 for peer in topology.peer_ids)

    def test_star_shape(self):
        topology = build_topology(self.peer_ids(10), kind="star")
        degrees = sorted(topology.degree(peer) for peer in topology.peer_ids)
        assert degrees[-1] == 9
        assert degrees[:-1] == [1] * 9

    def test_power_law_has_hubs(self):
        topology = build_topology(self.peer_ids(100), kind="power-law", degree=4, seed=3)
        degrees = sorted(topology.degree(peer) for peer in topology.peer_ids)
        assert degrees[-1] > degrees[len(degrees) // 2] * 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_topology(self.peer_ids(5), kind="hypercube")

    def test_single_peer(self):
        topology = build_topology(["only"], kind="power-law")
        assert topology.degree("only") == 0
        assert topology.is_connected()

    def test_no_self_loops(self):
        topology = Topology()
        topology.add_edge("a", "a")
        assert topology.edge_count() == 0

    def test_deterministic_for_seed(self):
        a = build_topology(self.peer_ids(30), kind="power-law", seed=7)
        b = build_topology(self.peer_ids(30), kind="power-law", seed=7)
        assert a.adjacency == b.adjacency

    def test_average_path_length(self):
        ring = build_topology(self.peer_ids(10), kind="ring")
        star = build_topology(self.peer_ids(10), kind="star")
        assert star.average_path_length() < ring.average_path_length()
