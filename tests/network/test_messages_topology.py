"""Tests for protocol messages, statistics and topology generation."""

import hashlib
import inspect
import random

import pytest

from repro.network import messages
from repro.network.centralized import CentralizedProtocol
from repro.network.gnutella import GnutellaProtocol
from repro.network.messages import (
    Message,
    MessageType,
    download_request,
    next_message_id,
    query_hit_message,
    query_message,
    register_message,
)
from repro.network.rendezvous import RendezvousProtocol
from repro.network.stats import (
    CONTROL_TYPE_VALUES,
    DOWNLOAD_TYPE_VALUES,
    QUERY_TYPE_VALUES,
    NetworkStats,
    QueryRecord,
)
from repro.network.superpeer import SuperPeerProtocol
from repro.network.topology import (
    Topology,
    _barabasi_albert_edges,
    _gnp_random_edges,
    build_topology,
)


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
        assert forwarded.forwarded("c", "d").forwarded("d", "e").ttl == 0

    def test_query_hit_size_grows_with_results(self):
        small = query_hit_message("a", "b", result_count=1, metadata_bytes=10, message_id="m")
        large = query_hit_message("a", "b", result_count=50, metadata_bytes=900, message_id="m")
        assert large.size_bytes > small.size_bytes

    def test_register_and_download_messages(self):
        register = register_message("a", "server", community_id="c", resource_id="r", metadata_bytes=64)
        assert register.type == MessageType.REGISTER
        request = download_request("a", "b", "resource-1")
        assert request.resource_id == "resource-1"


def built_types() -> set[MessageType]:
    """The type of every message a public builder of
    :mod:`repro.network.messages` makes, each called with placeholder
    values for its required parameters."""
    placeholder = {str: "x", int: 1}
    built = set()
    for name, builder in vars(messages).items():
        if name.startswith("_") or not inspect.isfunction(builder) \
                or builder.__module__ != messages.__name__:
            continue
        signature = inspect.signature(builder, eval_str=True)
        if signature.return_annotation is not Message:
            continue
        arguments = {parameter.name: placeholder[parameter.annotation]
                     for parameter in signature.parameters.values()
                     if parameter.default is inspect.Parameter.empty}
        built.add(builder(**arguments).type)
    return built


class TestVocabulary:
    """Every message type is live: something builds it, something
    handles it, and the stats book it in exactly one traffic class."""

    @pytest.mark.parametrize("kind", list(MessageType), ids=lambda kind: kind.value)
    def test_every_type_has_a_builder(self, kind):
        assert kind in built_types()

    @pytest.mark.parametrize("kind", list(MessageType), ids=lambda kind: kind.value)
    def test_every_type_has_a_handler(self, kind):
        handled = set()
        for protocol in (CentralizedProtocol, GnutellaProtocol,
                         SuperPeerProtocol, RendezvousProtocol):
            handled |= set(protocol(seed=1).kernel._handlers)
        assert kind.value in handled

    def test_traffic_classes_partition_the_types(self):
        classes = (CONTROL_TYPE_VALUES, QUERY_TYPE_VALUES, DOWNLOAD_TYPE_VALUES)
        assert sum(len(values) for values in classes) == len(MessageType)
        assert set().union(*classes) == {kind.value for kind in MessageType}


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
        assert len(topology.distances("peer-000")) == 40
        assert set(topology.adjacency) == set(self.peer_ids(40))

    def test_ring_degree(self):
        topology = build_topology(self.peer_ids(10), kind="ring")
        assert all(len(neighbors) == 2 for neighbors in topology.adjacency.values())

    def test_star_shape(self):
        topology = build_topology(self.peer_ids(10), kind="star")
        degrees = sorted(len(neighbors) for neighbors in topology.adjacency.values())
        assert degrees[-1] == 9
        assert degrees[:-1] == [1] * 9

    def test_power_law_has_hubs(self):
        topology = build_topology(self.peer_ids(100), kind="power-law", degree=4, seed=3)
        degrees = sorted(len(neighbors) for neighbors in topology.adjacency.values())
        assert degrees[-1] > degrees[len(degrees) // 2] * 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_topology(self.peer_ids(5), kind="hypercube")

    def test_single_peer(self):
        topology = build_topology(["only"], kind="power-law")
        assert topology.adjacency == {"only": set()}
        assert topology.distances("only") == {"only": 0}

    def test_no_self_loops(self):
        topology = Topology()
        topology.add_edge("a", "a")
        assert topology.adjacency == {}

    def test_deterministic_for_seed(self):
        a = build_topology(self.peer_ids(30), kind="power-law", seed=7)
        b = build_topology(self.peer_ids(30), kind="power-law", seed=7)
        assert a.adjacency == b.adjacency

    def test_average_path_length(self):
        ring = build_topology(self.peer_ids(10), kind="ring")
        star = build_topology(self.peer_ids(10), kind="star")
        assert star.average_path_length() < ring.average_path_length()


# The overlays networkx 3.6 drew, pinned: sha256 (first 16 hex digits)
# of build_topology's sorted edge lists for one (kind, peers), over
# degrees 1, 2, 4, 6 and seeds 0-3, taken while the generators were
# still networkx's.  Every digest downstream depends on these graphs.
OVERLAY_GRID_DEGREES = (1, 2, 4, 6)
OVERLAY_GRID_SEEDS = (0, 1, 2, 3)
OVERLAY_DIGESTS = {
    "power-law 2": "38f4f3ce4e4a8a4e",
    "power-law 3": "a17c00cb7439c946",
    "power-law 7": "900b205d253ad6f0",
    "power-law 40": "9c2eac90a87f2ec7",
    "power-law 1000": "c54f5803bc5eddad",
    "random 2": "38f4f3ce4e4a8a4e",
    "random 3": "7b017e3bdbb95ba0",
    "random 7": "37739dd4b97c1179",
    "random 40": "e3ccc59610b9ee2b",
    "random 1000": "b77f2b226996d61d",
    "ring 2": "38f4f3ce4e4a8a4e",
    "ring 3": "755b4eec11449c0a",
    "ring 7": "0a5de89870ec3d67",
    "ring 40": "cc2b729070918902",
    "ring 1000": "cca166f97e3a22e2",
    "star 2": "38f4f3ce4e4a8a4e",
    "star 3": "39d3ffaf28bdf00c",
    "star 7": "a2911bdd4654f72e",
    "star 40": "9260006ddd7dc547",
    "star 1000": "18e11fcd4f40e3c8",
}


def overlay_digest(kind, peers):
    digest = hashlib.sha256()
    ids = [f"peer-{index:04d}" for index in range(peers)]
    for degree in OVERLAY_GRID_DEGREES:
        for seed in OVERLAY_GRID_SEEDS:
            topology = build_topology(ids, kind=kind, degree=degree, seed=seed)
            # Sorted edges, never set order: str hashes are salted.
            edges = sorted(
                (a, b) for a, neighbors in topology.adjacency.items() for b in neighbors if a < b
            )
            digest.update(repr((degree, seed, edges)).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("cell", sorted(OVERLAY_DIGESTS))
def test_overlays_match_the_pinned_networkx_graphs(cell):
    kind, peers = cell.rsplit(" ", 1)
    assert overlay_digest(kind, int(peers)) == OVERLAY_DIGESTS[cell]


class TestNetworkxCrossCheck:
    """Edge for edge against networkx, where it is installed (tests only)."""

    @pytest.fixture(scope="class")
    def nx(self):
        return pytest.importorskip("networkx")

    @pytest.mark.parametrize("attachment", [1, 2, 3, 5])
    def test_barabasi_albert_edge_sequence(self, nx, attachment):
        for count in [*range(attachment + 1, 40), 200, 1000]:
            for seed in range(6 if count < 200 else 2):
                expected = list(nx.barabasi_albert_graph(count, attachment, seed=seed).edges())
                assert _barabasi_albert_edges(count, attachment, random.Random(seed)) == expected

    @pytest.mark.parametrize("probability", [0.0, 0.01, 0.1, 0.5, 1.0])
    def test_gnp_edge_sequence(self, nx, probability):
        for count in (2, 3, 17, 120):
            for seed in range(4):
                expected = list(nx.gnp_random_graph(count, probability, seed=seed).edges())
                assert list(_gnp_random_edges(count, probability, random.Random(seed))) == expected

    @pytest.mark.parametrize("kind", ["power-law", "random", "ring", "star"])
    def test_graph_queries(self, nx, kind):
        for peers in (1, 2, 5, 33):
            for seed in range(3):
                topology = build_topology(
                    [f"p{index}" for index in range(peers)], kind=kind, degree=3, seed=seed)
                graph = nx.Graph()
                graph.add_nodes_from(topology.adjacency)
                graph.add_edges_from(
                    (a, b) for a, neighbors in topology.adjacency.items() for b in neighbors)
                assert (len(topology.distances("p0")) == peers) == nx.is_connected(graph)
                if peers > 1:
                    assert topology.average_path_length() == nx.average_shortest_path_length(graph)
                # A cut graph: drop every edge of one peer.
                lonely = f"p{peers - 1}"
                graph.remove_edges_from(list(graph.edges(lonely)))
                for neighbor in topology.adjacency[lonely]:
                    topology.adjacency[neighbor].discard(lonely)
                topology.adjacency[lonely] = set()
                assert (len(topology.distances("p0")) == peers) == (peers == 1)
                assert (len(topology.distances("p0")) == peers) == nx.is_connected(graph)
