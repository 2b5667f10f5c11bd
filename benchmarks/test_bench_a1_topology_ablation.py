"""A1 (ablation) — overlay topology of the flooding network.

The A-series ablates the reproduction's own design choices; the first is
the Gnutella overlay shape.  The default is the power-law overlay measured
for the real Gnutella network of 2001/2002; the ablation compares it to
random, ring and star overlays under the same TTL and workload, showing
why the default matters for the E4 numbers.
"""

from __future__ import annotations

import pytest

from repro.network.gnutella import GnutellaProtocol
from repro.network.topology import Topology
from repro.storage.query import Query
from repro.xmlkit.parser import parse

TOPOLOGIES = ("power-law", "random", "ring", "star")
PEERS = 60
TTL = 4


def build(topology_kind: str) -> GnutellaProtocol:
    network = GnutellaProtocol(seed=9, degree=4, default_ttl=TTL, topology_kind=topology_kind)
    for index in range(PEERS):
        network.create_peer(f"peer-{index:03d}")
    network.build_overlay()
    for index in range(0, PEERS, 5):
        peer = network.peer(f"peer-{index:03d}")
        document = parse(f"<pattern><name>Observer {index}</name></pattern>").root
        metadata = {"name": [f"Observer {index}"]}
        result = peer.repository.publish("patterns", document, metadata)
        network.publish(peer.peer_id, "patterns", result.resource_id, metadata)
    return network


def measure(network: GnutellaProtocol) -> dict[str, float]:
    network.stats.reset()
    origins = [f"peer-{index:03d}" for index in (1, 7, 13, 29, 41)]
    results = 0
    for origin in origins:
        response = network.search(origin, Query.keyword("patterns", "observer"), max_results=500)
        results += response.result_count
    return {
        "results": results / len(origins),
        "msgs_per_query": network.stats.mean_messages_per_query(),
        "reach": sum(network.reachable_peers(origin, ttl=TTL) for origin in origins) / len(origins),
        "path_length": Topology({peer_id: set(peer.neighbors)
                                 for peer_id, peer in network.peers.items()}
                                ).average_path_length(),
    }


@pytest.fixture(scope="module")
def ablation():
    return {kind: measure(build(kind)) for kind in TOPOLOGIES}


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_bench_a1_topology(benchmark, kind):
    network = build(kind)
    benchmark.pedantic(
        lambda: network.search("peer-001", Query.keyword("patterns", "observer"), max_results=500),
        rounds=3, iterations=1,
    )


def test_bench_a1_report(benchmark, ablation, report):
    benchmark.pedantic(lambda: dict(ablation), rounds=1, iterations=1)
    rows = [[kind,
             f"{values['reach']:.1f}",
             f"{values['results']:.1f}",
             f"{values['msgs_per_query']:.1f}",
             f"{values['path_length']:.2f}"]
            for kind, values in ablation.items()]
    report(f"A1  overlay ablation for flooding search (TTL={TTL}, {PEERS} peers)",
           ["topology", "peers reached", "results/query", "msgs/query", "avg path length"], rows)

    # The short-diameter overlays (power-law hubs, star) reach far more of
    # the network within the TTL than the ring does.
    assert ablation["power-law"]["reach"] > ablation["ring"]["reach"] * 2
    assert ablation["star"]["reach"] >= ablation["ring"]["reach"]
    # Reaching more peers yields more results under the same TTL.
    assert ablation["power-law"]["results"] >= ablation["ring"]["results"]
    # And path length explains it: the ring has by far the longest paths.
    assert ablation["ring"]["path_length"] > ablation["power-law"]["path_length"]
