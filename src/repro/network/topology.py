"""Overlay topology generation.

The decentralized protocols need a neighbour graph.  Measurements of
the real Gnutella network around the time of the paper showed power-law
degree distributions, so the experiments default to a Barabási–Albert
preferential-attachment overlay; random (Erdős–Rényi), ring and star
shapes are available for ablations and for the centralized baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

import networkx as nx


@dataclass
class Topology:
    """An undirected overlay graph over peer ids."""

    adjacency: dict[str, set[str]] = field(default_factory=dict)

    @property
    def peer_ids(self) -> list[str]:
        return list(self.adjacency)

    def neighbors(self, peer_id: str) -> set[str]:
        return self.adjacency.get(peer_id, set())

    def degree(self, peer_id: str) -> int:
        return len(self.neighbors(peer_id))

    def edge_count(self) -> int:
        return sum(len(neighbors) for neighbors in self.adjacency.values()) // 2

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            return
        self.adjacency.setdefault(a, set()).add(b)
        self.adjacency.setdefault(b, set()).add(a)

    def is_connected(self) -> bool:
        if not self.adjacency:
            return True
        graph = self.to_networkx()
        return nx.is_connected(graph)

    def average_path_length(self) -> float:
        graph = self.to_networkx()
        if graph.number_of_nodes() < 2 or not nx.is_connected(graph):
            return float("inf")
        return nx.average_shortest_path_length(graph)

    def to_networkx(self) -> "nx.Graph":
        graph = nx.Graph()
        graph.add_nodes_from(self.adjacency)
        for node, neighbors in self.adjacency.items():
            for neighbor in neighbors:
                graph.add_edge(node, neighbor)
        return graph


def build_topology(
    peer_ids: Iterable[str],
    *,
    kind: str = "power-law",
    degree: int = 4,
    seed: int = 0,
) -> Topology:
    """Build an overlay of the requested ``kind`` over ``peer_ids``.

    Supported kinds: ``power-law`` (Barabási–Albert), ``random``
    (Erdős–Rényi with the same expected degree), ``ring`` and ``star``.
    The result is patched to be connected so that flooding reachability
    experiments measure TTL effects, not partitioning artefacts.
    """
    ids = list(peer_ids)
    topology = Topology({peer_id: set() for peer_id in ids})
    if len(ids) <= 1:
        return topology
    rng = random.Random(seed)

    if kind == "ring":
        for index, peer_id in enumerate(ids):
            topology.add_edge(peer_id, ids[(index + 1) % len(ids)])
    elif kind == "star":
        hub = ids[0]
        for peer_id in ids[1:]:
            topology.add_edge(hub, peer_id)
    elif kind == "random":
        probability = min(1.0, degree / max(1, len(ids) - 1))
        graph = nx.gnp_random_graph(len(ids), probability, seed=seed)
        for a, b in graph.edges():
            topology.add_edge(ids[a], ids[b])
    elif kind == "power-law":
        attachment = max(1, min(degree // 2 or 1, len(ids) - 1))
        graph = nx.barabasi_albert_graph(len(ids), attachment, seed=seed)
        for a, b in graph.edges():
            topology.add_edge(ids[a], ids[b])
    else:
        raise ValueError(f"unknown topology kind {kind!r}")

    _ensure_connected(topology, ids, rng)
    return topology


def _ensure_connected(topology: Topology, ids: list[str], rng: random.Random) -> None:
    graph = topology.to_networkx()
    components = [sorted(component) for component in nx.connected_components(graph)]
    if len(components) <= 1:
        return
    anchor_component = components[0]
    for component in components[1:]:
        topology.add_edge(rng.choice(anchor_component), rng.choice(component))
