"""Replica bookkeeping: who holds which object, and why.

The paper's availability argument (§II) is that downloads *are*
replication: every retrieve leaves a copy behind, so popular objects
accumulate holders and survive churn.  The registry records, per
resource, every peer known to hold a copy together with its
*provenance* — ``original`` for the publisher's copy, ``replica`` for a
copy created by a download — and when the copy appeared in virtual
time.  The network layer keeps one registry, and the replication
claims of :mod:`repro.report` read replication degree per popularity
rank from it.
"""

from __future__ import annotations

from dataclasses import dataclass


ORIGINAL = "original"
REPLICA = "replica"


@dataclass(frozen=True)
class ReplicaEntry:
    """One peer's copy of one resource."""

    peer_id: str
    provenance: str  # ORIGINAL or REPLICA
    recorded_at_ms: float = 0.0


class ReplicaRegistry:
    """Per-resource holder sets with provenance.

    Recording is idempotent per ``(resource, peer)``: the first entry
    wins, so a publisher re-downloading its own object stays an
    original and a replica re-announced by a later publish stays a
    replica.
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, ReplicaEntry]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def note_original(self, resource_id: str, peer_id: str, *, at_ms: float = 0.0) -> None:
        """Record ``peer_id`` as publishing its own copy of ``resource_id``."""
        self._note(resource_id, peer_id, ORIGINAL, at_ms)

    def note_replica(self, resource_id: str, peer_id: str, *, at_ms: float = 0.0) -> None:
        """Record ``peer_id`` as holding a downloaded copy of ``resource_id``."""
        self._note(resource_id, peer_id, REPLICA, at_ms)

    def _note(self, resource_id: str, peer_id: str, provenance: str, at_ms: float) -> None:
        holders = self._entries.setdefault(resource_id, {})
        if peer_id not in holders:
            holders[peer_id] = ReplicaEntry(peer_id=peer_id, provenance=provenance,
                                            recorded_at_ms=at_ms)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def holders(self, resource_id: str, *,
                exclude: frozenset[str] = frozenset()) -> list[str]:
        """Every known holder, originals first, deterministic order.

        ``exclude`` filters peers out of the ranking — download
        failover passes the requester plus the providers that already
        crashed or stalled out of the transfer, so the next-ranked
        surviving replica is chosen deterministically.
        """
        entries = self._entries.get(resource_id, {})
        return [entry.peer_id for entry in sorted(
            entries.values(), key=lambda entry: (entry.provenance != ORIGINAL, entry.peer_id))
            if entry.peer_id not in exclude]

    def provenance(self, resource_id: str, peer_id: str) -> str | None:
        entry = self._entries.get(resource_id, {}).get(peer_id)
        return entry.provenance if entry is not None else None

    def entries_for(self, resource_id: str) -> list[ReplicaEntry]:
        return sorted(self._entries.get(resource_id, {}).values(),
                      key=lambda entry: (entry.recorded_at_ms, entry.peer_id))

    def replicas_of(self, resource_id: str) -> list[str]:
        """Holders whose copy came from a download."""
        return [entry.peer_id
                for entry in self._entries.get(resource_id, {}).values()
                if entry.provenance == REPLICA]

    def replication_degree(self, resource_id: str) -> int:
        """Total copies known for ``resource_id`` (original + replicas)."""
        return len(self._entries.get(resource_id, {}))

    def degree_by_resource(self) -> dict[str, int]:
        return {resource_id: len(holders) for resource_id, holders in self._entries.items()}

    def resources(self) -> list[str]:
        return sorted(self._entries)

    def total_replicas(self) -> int:
        """Downloaded copies across all resources."""
        return sum(
            1 for holders in self._entries.values()
            for entry in holders.values() if entry.provenance == REPLICA
        )

    def __len__(self) -> int:
        return len(self._entries)
