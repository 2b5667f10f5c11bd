"""The peer: a network participant with its local repository."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.storage.repository import LocalRepository


@dataclass
class Peer:
    """One participant in the peer-to-peer network.

    A peer owns a :class:`~repro.storage.repository.LocalRepository`
    (its shared objects and local index), a set of neighbour links and
    an online flag toggled by the membership layer.  ``neighbors`` is
    the Gnutella overlay itself — the network keeps no other copy, and
    writes every link on both ends.  ``super_peer_id`` is the hub a
    two-tier member attached to (a hub's own id for a hub); whether a
    peer *is* a hub is the network's fact (its hub catalogs), not the
    peer's.  ``uptime_ms`` accumulates
    completed online-session time at each offline transition;
    ``online_since`` stamps the start of the current session.  In
    live-membership mode ``last_pong_ms`` tracks when each counterpart
    (a neighbour, or the peer's super/rendezvous) last answered a
    heartbeat: *silence detection* is belief-based.  Repair *targeting*
    may still consult the connection layer (a dial to a dead candidate
    fails fast, like a refused TCP connect) — see the Membership
    section of ARCHITECTURE.md for where each shortcut is taken.
    """

    peer_id: str
    repository: LocalRepository = field(default_factory=LocalRepository)
    neighbors: set[str] = field(default_factory=set)
    online: bool = True
    super_peer_id: Optional[str] = None
    joined_communities: set[str] = field(default_factory=set)
    uptime_ms: float = 0.0
    online_since: float = 0.0
    last_departed_ms: float = -1.0
    last_pong_ms: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.peer_id:
            raise ValueError("a peer needs a non-empty id")
        if not self.repository.owner:
            self.repository.owner = self.peer_id

    # ------------------------------------------------------------------
    def connect(self, other_id: str) -> None:
        """Add a neighbour link (undirected links are added on both ends
        by the network, not here)."""
        if other_id != self.peer_id:
            self.neighbors.add(other_id)

    def disconnect(self, other_id: str) -> None:
        self.neighbors.discard(other_id)

    def join_community(self, community_id: str) -> None:
        self.joined_communities.add(community_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "online" if self.online else "offline"
        return f"<Peer {self.peer_id} {status} objects={len(self.repository.documents)}>"
