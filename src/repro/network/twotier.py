"""What the two-tier organisations share: hubs, their catalogs, and the
member lifecycle around them.

In both the super-peer and the rendezvous network a fraction of peers
are promoted to *hubs* (super-peers / rendezvous peers); every other
peer attaches to one hub and uploads the searchable metadata of its
shared objects there.  :class:`HubCatalog` is the one index-point
replica store (the centralized index server keeps one too);
:class:`TwoTierNetwork` holds the lifecycle both adapters spell
the same.  What really differs stays in the adapters: which hub a peer
attaches to, whether detaching purges or leases decay, heartbeat versus
renewal maintenance, and broadcast relay versus ring walk.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from dataclasses import dataclass
from heapq import heapify, heappop
from typing import Any, Callable, Optional

from repro.engine.kernel import EventKernel, ExchangeContext, QueryContext
from repro.network.base import PeerNetwork, SearchResult
from repro.network.messages import Message, MessageType, leaf_attach_message
from repro.network.peers import Peer
from repro.storage.document_store import metadata_wire_bytes
from repro.storage.index import AttributeIndex
from repro.storage.interning import intern_view


@dataclass(slots=True)
class HubRecord:
    """One object replica a hub knows about.

    The tuple-valued metadata view and its wire byte count are built
    once at registration.  The hit itself is shared too: :meth:`hit`
    builds one frozen :class:`SearchResult` per depth on first use and
    every later search answered at that depth reuses it, so a repeated
    search builds no result object.  A re-insert replaces the whole
    record, hits included, so a shared hit never goes stale.
    """

    resource_id: str
    community_id: str
    title: str
    metadata_view: dict[str, tuple[str, ...]]
    provider_id: str
    metadata_bytes: int
    #: end of the advertisement lease (never, where records do not decay)
    expires_at_ms: float
    #: hops -> the shared hit; allocated by the first search it answers
    hits: Optional[dict[int, SearchResult]] = None

    def hit(self, hops: int) -> SearchResult:
        """The search result for this record ``hops`` hops from the origin."""
        if self.hits is None:
            self.hits = {}
        result = self.hits.get(hops)
        if result is None:
            result = self.hits[hops] = SearchResult(
                self.provider_id, self.resource_id, self.community_id, self.title,
                self.metadata_view, hops, self.metadata_bytes)
        return result


class HubCatalog:
    """Everything one index point (a hub, or the centralized index
    server) holds for the peers registered with it.

    Records are keyed ``"<resource_id>@<provider>"`` in one
    :class:`AttributeIndex`, so the same object shared by two members
    stays distinguishable.
    """

    __slots__ = ("index", "records", "members", "last_heard")

    def __init__(self) -> None:
        self.index = AttributeIndex()
        self.records: dict[str, HubRecord] = {}
        #: the leaves / edges attached here
        self.members: set[str] = set()
        #: member id -> virtual time its last LEAF-ATTACH, upload or
        #: heartbeat arrived (consulted where silence means departure)
        self.last_heard: dict[str, float] = {}

    def insert(self, provider_id: str, community_id: str, resource_id: str,
               metadata: dict[str, list[str]], title: str, *,
               expires_at_ms: float = math.inf) -> None:
        """Add (or replace) ``provider_id``'s replica of ``resource_id``."""
        key = f"{resource_id}@{provider_id}"
        self.records[key] = HubRecord(resource_id, community_id, title,
                                      intern_view(metadata), provider_id,
                                      metadata_wire_bytes(metadata), expires_at_ms)
        self.index.add(community_id, key, metadata)

    def remove_where(self, predicate: Callable[[HubRecord], bool]) -> list[HubRecord]:
        """Drop every record ``predicate`` selects and return them, so
        the caller can account the staleness they represented."""
        removed = [(key, record) for key, record in self.records.items()
                   if predicate(record)]
        for key, _record in removed:
            self.index.remove(key)
            del self.records[key]
        return [record for _key, record in removed]

    def take(self, context: QueryContext, peers: dict[str, Peer],
             hops: int) -> tuple[list[SearchResult], int]:
        """The results this hub contributes to ``context`` — at most
        the room left, in key order, skipping unreachable providers and
        the origin's own objects — plus their metadata bytes.  An empty
        query browses its whole community.  Matching keys are popped off
        a heap, so the cost follows the room rather than the match count.
        An empty catalog answers at once, without evaluating the plan
        (most rendezvous a walk visits hold no advertisement)."""
        records = self.records
        if not records:
            return [], 0
        plan = context.plan
        if plan.is_empty:
            keys = [key for key, record in records.items()
                    if record.community_id == plan.community_id]
        else:
            keys = list(plan.evaluate(self.index))
        heapify(keys)
        results: list[SearchResult] = []
        metadata_bytes = 0
        room = context.room()
        while keys and len(results) < room:
            record = records[heappop(keys)]
            provider = peers.get(record.provider_id)
            if provider is None or not provider.online \
                    or record.provider_id == context.origin_id:
                continue
            results.append(record.hit(hops + 1))
            metadata_bytes += record.metadata_bytes
        return results, metadata_bytes


class TwoTierNetwork(PeerNetwork):
    """Hub election and the member lifecycle shared by both adapters,
    which supply ``_choose_hub``, ``_attach`` and ``_insert`` (and may
    extend ``_detach``, ``_drop_hub``, ``_live_attach``, ``_promote``)."""

    def __init__(self, *, hub_ratio: float, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        if not 0.0 < hub_ratio <= 1.0:
            raise ValueError("the hub ratio must be in (0, 1]")
        self.hub_ratio = hub_ratio
        self._hubs: dict[str, HubCatalog] = {}

    @abstractmethod
    def _choose_hub(self, peer: Peer,
                    online_hubs: Optional[list[str]] = None) -> Optional[str]:
        """The hub ``peer`` should attach to, or ``None`` when no hub is up.
        ``online_hubs`` is the caller's ``_online_hubs()`` snapshot (read,
        never mutated); without one the choice takes its own."""

    @abstractmethod
    def _attach(self, peer: Peer, online_hubs: Optional[list[str]] = None) -> None:
        """Off mode: (re)attach ``peer`` to a hub, instantly and for free;
        ``online_hubs`` is handed on to :meth:`_choose_hub`."""

    def _detach(self, peer: Peer, hub_id: str) -> None:
        """Off mode: ``peer`` left ``hub_id``; its records stay unless the adapter purges."""
        self._hubs[hub_id].members.discard(peer.peer_id)

    @abstractmethod
    def _insert(self, hub_id: str, provider_id: str, community_id: str,
                resource_id: str, metadata: dict[str, list[str]], title: str) -> None:
        """Enter one replica into ``hub_id``'s catalog."""

    def _online_hubs(self) -> list[str]:
        return sorted(hub_id for hub_id in self._hubs
                      if (peer := self.peers.get(hub_id)) is not None and peer.online)

    def _drop_hub(self, hub_id: str) -> Optional[HubCatalog]:
        """The hub's catalog lived in its RAM and dies with the role."""
        return self._hubs.pop(hub_id, None)

    def _elect(self, count: Optional[int]) -> list[str]:
        """Promote ``count`` peers (default: the hub ratio of the online
        population) and (re)attach every other online peer."""
        online = self.online_peers()
        if not online:
            return []
        if count is None:
            count = max(1, round(len(online) * self.hub_ratio))
        # Stable election: lowest peer ids become hubs, which keeps
        # experiments deterministic across runs.
        chosen = sorted(peer.peer_id for peer in online)[:count]
        elected = set(chosen)
        for hub_id in sorted(set(self._hubs).difference(elected)):
            self._drop_hub(hub_id)
        for peer in self.peers.values():
            if peer.peer_id in elected:
                peer.super_peer_id = peer.peer_id
                if peer.peer_id not in self._hubs:
                    self._hubs[peer.peer_id] = HubCatalog()
        # One snapshot for the whole loop: attaching changes member sets
        # and catalogs, never a hub's online status or the hub set.
        online_hubs = self._online_hubs()
        for peer in online:
            if peer.peer_id not in elected:
                self._attach(peer, online_hubs)
        return chosen

    def _on_peer_departed(self, peer: Peer) -> None:
        """Off mode: churn re-shapes the overlay instantly and for free."""
        hub = self._drop_hub(peer.peer_id)
        if hub is not None:
            # Sorted, not raw set order: orphans may re-attach least-
            # loaded first-come, so the iteration order decides the new
            # member->hub map, and raw set[str] order varies with the
            # per-process string-hash salt (PYTHONHASHSEED).
            for orphan_id in sorted(hub.members):
                orphan = self.peers.get(orphan_id)
                if orphan is not None and orphan.online:
                    self._attach(orphan)
        elif peer.super_peer_id in self._hubs:
            self._detach(peer, peer.super_peer_id)

    def _on_peer_returned(self, peer: Peer) -> None:
        if self._hubs:
            self._attach(peer)
        else:
            self._elect(None)

    def _on_peer_joined_live(self, peer: Peer) -> None:
        peer.super_peer_id = None
        self._live_attach(peer)

    def _on_peer_left_live(self, peer: Peer) -> None:
        """Live mode: a departed hub's catalog is gone at once, but its
        members only find out through their own maintenance traffic."""
        self._drop_hub(peer.peer_id)

    def _live_attach(self, peer: Peer) -> Optional[str]:
        """Send ``peer``'s LEAF-ATTACH to a hub and return it (the adapter
        re-uploads), or promote ``peer`` when no hub is reachable."""
        hub_id = self._choose_hub(peer)
        if hub_id is None:
            self._promote(peer)
            return None
        peer.super_peer_id = hub_id
        # Attachment and the re-upload are the member's whole
        # searchability — reliable delivery retries them under faults.
        self.channel.send(leaf_attach_message(peer.peer_id, hub_id))
        return hub_id

    def _promote(self, peer: Peer) -> None:
        """Deterministic promotion: the peer that found no reachable hub
        becomes one itself (maintenance iterates peers in sorted order,
        so the lowest-id orphan promotes first)."""
        peer.super_peer_id = peer.peer_id
        if peer.peer_id not in self._hubs:
            self._hubs[peer.peer_id] = HubCatalog()
        for stored in peer.repository.documents:
            self._insert(peer.peer_id, peer.peer_id, stored.community_id,
                         stored.resource_id, stored.metadata, stored.title)

    def _publish(self, peer_id: str, community_id: str, resource_id: str,
                 metadata: dict[str, list[str]], title: str) -> None:
        """The body of both adapters' ``publish``."""
        peer = self._require_peer(peer_id)
        self.replicas.note_original(resource_id, peer_id, at_ms=self.simulator.now)
        if self.live_membership:
            # A hub indexes its own object for free; a member ships a
            # REGISTER that lands when it lands.  An orphaned member
            # (its hub died, repair has not run yet) shares nothing —
            # the next re-attachment re-uploads everything.
            if peer_id in self._hubs:
                self._insert(peer_id, peer_id, community_id, resource_id, metadata, title)
            elif peer.super_peer_id is not None:
                self._upload(peer_id, peer.super_peer_id, community_id, resource_id,
                             metadata, title)
            return
        if not self._hubs:
            self._elect(None)
        hub_id = peer_id if peer_id in self._hubs else peer.super_peer_id
        if hub_id is None or hub_id not in self._hubs:
            self._attach(peer)
            hub_id = peer.super_peer_id
        if hub_id is not None:
            self._register(peer_id, hub_id, community_id, resource_id, metadata, title)

    def _register(self, peer_id: str, hub_id: str, community_id: str, resource_id: str,
                  metadata: dict[str, list[str]], title: str) -> None:
        """Off-mode registration: instant, a hub's own object is free."""
        if peer_id != hub_id:
            self._account_registration(peer_id, hub_id, community_id, resource_id,
                                       metadata_wire_bytes(metadata))
        self._insert(hub_id, peer_id, community_id, resource_id, metadata, title)

    def _register_handlers(self, kernel: EventKernel) -> None:
        super()._register_handlers(kernel)
        kernel.register(MessageType.REGISTER, self._on_upload)
        kernel.register(MessageType.LEAF_ATTACH, self._on_leaf_attach)

    def _on_upload(self, peer: Optional[Peer], message: Message,
                   context: Optional[ExchangeContext]) -> None:
        """A metadata upload arrived.  If the recipient stopped being a
        hub in the meantime the upload is simply lost — the sender's
        own maintenance will eventually notice and re-home it."""
        hub = self._hubs.get(peer.peer_id) if peer is not None else None
        payload = message.payload_object
        if hub is None or not isinstance(payload, tuple):
            return
        metadata, title = payload
        self.stats.record_registration()
        self._insert(message.recipient, message.sender, message.community_id,
                     message.resource_id, metadata, title)
        hub.last_heard[message.sender] = self.simulator.now

    def _on_leaf_attach(self, peer: Optional[Peer], message: Message,
                        context: Optional[ExchangeContext]) -> None:
        hub = self._hubs.get(peer.peer_id) if peer is not None else None
        if hub is not None:
            hub.members.add(message.sender)
            hub.last_heard[message.sender] = self.simulator.now
