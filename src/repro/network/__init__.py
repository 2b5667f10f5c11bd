"""Peer-to-peer network substrate.

The paper deliberately leaves the network layer pluggable: "U-P2P does
not focus on the underlying network architecture or discriminate
between centralized or distributed approaches to searching, peer
discovery, message routing or security" (§IV-B), and the community
schema of Fig. 3 enumerates Napster, Gnutella and FastTrack as protocol
values.  This package provides those three network organisations behind
one interface, on top of a small discrete-event simulator, so the rest
of the system (and the experiments) can swap them freely:

* :class:`repro.network.centralized.CentralizedProtocol` — a Napster-
  style central index server.
* :class:`repro.network.gnutella.GnutellaProtocol` — TTL-scoped query
  flooding with duplicate suppression.
* :class:`repro.network.superpeer.SuperPeerProtocol` — a FastTrack-
  style two-tier network of super-peers and leaves.
* :class:`repro.network.rendezvous.RendezvousProtocol` — a JXTA-style
  rendezvous/advertisement overlay with leases (the §VI future-work
  network layer).
"""

# Leaf modules (no dependency on the engine) import eagerly; the
# network classes built *on* the engine resolve lazily below, so
# ``import repro.engine`` — whose kernel needs ``network.messages`` —
# does not re-enter this package while the engine is still initializing.
from repro.network.errors import (
    DuplicatePeerError,
    NetworkError,
    PeerOfflineError,
    TransferError,
    UnknownPeerError,
)
from repro.network.messages import Message, MessageType
from repro.network.peers import Peer
from repro.network.simulator import NetworkSimulator
from repro.network.stats import NetworkStats
from repro.network.topology import Topology, build_topology

_LAZY = {
    "PeerNetwork": ("repro.network.base", "PeerNetwork"),
    "SearchResult": ("repro.network.base", "SearchResult"),
    "SearchResponse": ("repro.network.base", "SearchResponse"),
    "RetrieveResult": ("repro.network.base", "RetrieveResult"),
    "CentralizedProtocol": ("repro.network.centralized", "CentralizedProtocol"),
    "GnutellaProtocol": ("repro.network.gnutella", "GnutellaProtocol"),
    "SuperPeerProtocol": ("repro.network.superpeer", "SuperPeerProtocol"),
    "RendezvousProtocol": ("repro.network.rendezvous", "RendezvousProtocol"),
    "PopulationModel": ("repro.network.membership", "PopulationModel"),
    "MembershipEvent": ("repro.network.membership", "MembershipEvent"),
    "RoutingIndex": ("repro.network.routing", "RoutingIndex"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target[0]), target[1])
    globals()[name] = value
    return value


__all__ = [
    "PeerNetwork",
    "SearchResult",
    "SearchResponse",
    "RetrieveResult",
    "CentralizedProtocol",
    "GnutellaProtocol",
    "SuperPeerProtocol",
    "RendezvousProtocol",
    "Peer",
    "NetworkSimulator",
    "NetworkStats",
    "Message",
    "MessageType",
    "Topology",
    "build_topology",
    "PopulationModel",
    "MembershipEvent",
    "RoutingIndex",
    "NetworkError",
    "UnknownPeerError",
    "PeerOfflineError",
    "DuplicatePeerError",
    "TransferError",
]
