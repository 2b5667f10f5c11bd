"""Overlay topology generation.

The decentralized protocols need a neighbour graph.  Measurements of
the real Gnutella network around the time of the paper showed power-law
degree distributions, so the experiments default to a Barabási–Albert
preferential-attachment overlay; random (Erdős–Rényi), ring and star
shapes are available for ablations and for the centralized baseline.

The power-law and random generators replicate networkx 3.x's
``barabasi_albert_graph`` and ``gnp_random_graph`` draw for draw: the
same ``random.Random(seed)`` stream, the same star seed graph, the same
subset loop and the same edge order.  Every digest, golden counter and
ledger number downstream depends on the overlay, so a generator that
grew a different graph from the same seed would move all of them.  The
module needs only the standard library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable


@dataclass
class Topology:
    """An undirected overlay graph over peer ids (symmetric adjacency)."""

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

    def distances(self, source: str) -> dict[str, int]:
        """Hop distance from ``source`` to every peer it reaches (breadth-first)."""
        adjacency = self.adjacency
        distance = {source: 0}
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            reached: list[str] = []
            for node in frontier:
                for neighbor in sorted(adjacency[node]):
                    if neighbor not in distance:
                        distance[neighbor] = hops
                        reached.append(neighbor)
            frontier = reached
        return distance

    def is_connected(self) -> bool:
        if not self.adjacency:
            return True
        return len(self.distances(next(iter(self.adjacency)))) == len(self.adjacency)

    def average_path_length(self) -> float:
        """Mean hop distance over ordered peer pairs; ``inf`` if disconnected or < 2 peers."""
        count = len(self.adjacency)
        if count < 2:
            return float("inf")
        total = 0
        for peer_id in self.adjacency:
            distances = self.distances(peer_id)
            if len(distances) < count:
                return float("inf")
            total += sum(distances.values())
        return total / (count * (count - 1))


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
    count = len(ids)
    topology = Topology({peer_id: set() for peer_id in ids})
    if count <= 1:
        return topology

    if kind == "ring":
        edges: Iterable[tuple[int, int]] = [
            (index, (index + 1) % count) for index in range(count)
        ]
    elif kind == "star":
        edges = [(0, index) for index in range(1, count)]
    elif kind == "random":
        probability = min(1.0, degree / max(1, count - 1))
        edges = _gnp_random_edges(count, probability, random.Random(seed))
    elif kind == "power-law":
        attachment = max(1, min(degree // 2 or 1, count - 1))
        edges = _barabasi_albert_edges(count, attachment, random.Random(seed))
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    for a, b in edges:
        topology.add_edge(ids[a], ids[b])

    _ensure_connected(topology, random.Random(seed))
    return topology


def _gnp_random_edges(
    count: int, probability: float, rng: random.Random
) -> Iterable[tuple[int, int]]:
    """``networkx.gnp_random_graph(count, probability, seed)``'s edges, in its order."""
    if probability >= 1:
        return combinations(range(count), 2)
    if probability <= 0:
        return []
    draw = rng.random
    return [pair for pair in combinations(range(count), 2) if draw() < probability]


def _barabasi_albert_edges(
    count: int, attachment: int, rng: random.Random
) -> list[tuple[int, int]]:
    """``networkx.barabasi_albert_graph(count, attachment, seed)``'s edges, in its order.

    The seed graph is a star on ``attachment + 1`` nodes.  Each later
    node draws ``attachment`` distinct targets from the list holding
    every node once per unit of degree.  ``Graph.edges()`` names each
    edge from its lower node, so the order it yields is the sorted one.
    """
    edges = [(0, spoke) for spoke in range(1, attachment + 1)]
    repeated = [0] * attachment + list(range(1, attachment + 1))
    for source in range(attachment + 1, count):
        targets: set[int] = set()
        while len(targets) < attachment:
            targets.add(rng.choice(repeated))
        # detlint: ignore[DET001] -- an int set's order is salt-free and is
        # networkx's order; sorting it would grow a different graph.
        for target in targets:
            edges.append((target, source))
            repeated.append(target)
        repeated.extend([source] * attachment)
    edges.sort()
    return edges


def _ensure_connected(topology: Topology, rng: random.Random) -> None:
    """Link every component to the first one, in adjacency order."""
    seen: set[str] = set()
    components: list[list[str]] = []
    for peer_id in topology.adjacency:
        if peer_id not in seen:
            reached = topology.distances(peer_id)
            seen.update(reached)
            components.append(sorted(reached))
    anchor_component = components[0]
    for component in components[1:]:
        topology.add_edge(rng.choice(anchor_component), rng.choice(component))
