"""Property-based tests for the network substrate."""

from hypothesis import given, settings, strategies as st

from repro.network.gnutella import GnutellaProtocol
from repro.network.topology import Topology, build_topology


@settings(max_examples=25, deadline=None)
@given(
    peers=st.integers(min_value=2, max_value=60),
    degree=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
    kind=st.sampled_from(["power-law", "random", "ring", "star"]),
)
def test_generated_topologies_always_connected(peers, degree, seed, kind):
    """Every generated overlay is connected and undirected."""
    ids = [f"p{index}" for index in range(peers)]
    topology = build_topology(ids, kind=kind, degree=degree, seed=seed)
    assert len(topology.distances(ids[0])) == peers
    for node, neighbors in topology.adjacency.items():
        assert node not in neighbors
        for neighbor in neighbors:
            assert node in topology.adjacency[neighbor]


def all_pairs_hops(ids, edges):
    """Brute-force reference: Floyd-Warshall hop counts, ``inf`` if unreachable."""
    hops = {(a, b): 0 if a == b else float("inf") for a in ids for b in ids}
    for a, b in edges:
        if a != b:
            hops[a, b] = hops[b, a] = 1
    for via in ids:
        for a in ids:
            for b in ids:
                hops[a, b] = min(hops[a, b], hops[a, via] + hops[via, b])
    return hops


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    peers=st.integers(min_value=0, max_value=9),
    pairs=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=20),
)
def test_graph_queries_match_an_all_pairs_reference(peers, pairs):
    """``distances`` and ``average_path_length`` on small graphs,
    disconnected, empty and single-peer ones included."""
    ids = [f"p{index}" for index in range(peers)]
    edges = [(ids[a], ids[b]) for a, b in pairs if a < peers and b < peers]
    topology = Topology({peer_id: set() for peer_id in ids})
    for a, b in edges:
        topology.add_edge(a, b)
    hops = all_pairs_hops(ids, edges)
    connected = all(distance < float("inf") for distance in hops.values())
    for a in ids:
        assert topology.distances(a) == {b: hops[a, b] for b in ids if hops[a, b] < float("inf")}
    if peers < 2 or not connected:
        assert topology.average_path_length() == float("inf")
    else:
        assert topology.average_path_length() == sum(hops.values()) / (peers * (peers - 1))


@settings(max_examples=20, deadline=None)
@given(
    peers=st.integers(min_value=5, max_value=40),
    ttl_low=st.integers(min_value=1, max_value=3),
    ttl_extra=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=500),
)
def test_flood_reach_is_monotone_in_ttl(peers, ttl_low, ttl_extra, seed):
    """Raising the TTL never reaches fewer peers (monotone horizon)."""
    network = GnutellaProtocol(seed=seed, degree=3)
    for index in range(peers):
        network.create_peer(f"p{index}")
    network.build_overlay()
    low = network.reachable_peers("p0", ttl=ttl_low)
    high = network.reachable_peers("p0", ttl=ttl_low + ttl_extra)
    assert high >= low
    assert high <= peers - 1


@settings(max_examples=15, deadline=None)
@given(
    peers=st.integers(min_value=4, max_value=30),
    seed=st.integers(min_value=0, max_value=500),
)
def test_flood_with_large_ttl_reaches_every_online_peer(peers, seed):
    """With TTL >= network size the flood reaches every online peer."""
    network = GnutellaProtocol(seed=seed, degree=3)
    for index in range(peers):
        network.create_peer(f"p{index}")
    network.build_overlay()
    assert network.reachable_peers("p0", ttl=peers) == peers - 1
