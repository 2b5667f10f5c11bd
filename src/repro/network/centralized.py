"""Napster-style centralized network organisation.

A single index server holds the searchable metadata of every shared
object.  Publishing uploads metadata to the server (one REGISTER
message); searching answers the origin from its own index, then sends
one QUERY to the server and gets one QUERY-HIT back; object transfer
still happens directly between peers.  This is the organisation the
U-P2P prototype effectively had (a central Magenta database), and it is
the baseline of the protocol-comparison experiment.

On the event kernel the server is an always-reachable *virtual node*
whose store is the :class:`~repro.network.twotier.HubCatalog` a two-tier
hub keeps (one record per object and provider): a query costs exactly
two messages and one round trip, on the shared clock alongside every
other in-flight query.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.engine.kernel import EventKernel, ExchangeContext, QueryContext
from repro.network.base import PeerNetwork, SearchResponse
from repro.network.messages import (
    Message,
    MessageType,
    join_message,
    ping_message,
    query_message,
)
from repro.network.peers import Peer
from repro.network.twotier import HubCatalog, HubRecord
from repro.storage.document_store import metadata_wire_bytes
from repro.storage.query import Query

INDEX_SERVER_ID = "index-server"


class CentralizedProtocol(PeerNetwork):
    """A central index server plus ordinary peers."""

    protocol_name = "centralized"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        #: the index server's store; in live mode its ``last_heard`` is
        #: the server's belief about who is alive (last JOIN / PING /
        #: REGISTER arrival per peer)
        self._server = HubCatalog()

    # ------------------------------------------------------------------
    def publish(self, peer_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], *, title: str = "") -> None:
        self._require_peer(peer_id)
        self.replicas.note_original(resource_id, peer_id, at_ms=self.simulator.now)
        if self.live_membership:
            # The registration is real traffic: the catalog learns of
            # the object when the REGISTER *arrives* at the server.
            self._upload(peer_id, INDEX_SERVER_ID, community_id, resource_id,
                         metadata, title)
            return
        metadata_bytes = metadata_wire_bytes(metadata)
        self._account_registration(peer_id, INDEX_SERVER_ID, community_id, resource_id,
                                   metadata_bytes)
        self._insert(peer_id, community_id, resource_id, metadata, title, metadata_bytes)

    def _insert(self, provider_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], title: str, metadata_bytes: int) -> None:
        cache = self.caches.sites.get(INDEX_SERVER_ID)
        if cache is not None:
            # A publish (or replica announcement) arriving at the server
            # is the invalidation traffic: the catalog version moves and
            # every cached answer filled before it goes stale.
            cache.bump_version()
        self._server.insert(provider_id, community_id, resource_id, metadata, title,
                            metadata_bytes)

    def _remove(self, predicate: Callable[[HubRecord], bool], now: float) -> None:
        """Drop the records ``predicate`` selects, whose providers'
        heartbeat lease expired: cached answers naming them die with
        them, and each record's staleness window is recorded."""
        cache = self.caches.sites.get(INDEX_SERVER_ID)
        for record in self._server.remove_where(predicate):
            if cache is not None:
                cache.invalidate_provider(record.provider_id)
            self._note_staleness(record.provider_id, now)

    # ------------------------------------------------------------------
    def start_search(self, origin_id: str, query: Query, *, max_results: int = 100,
                     **kwargs: Any) -> QueryContext:
        origin = self._require_peer(origin_id)
        context = self.new_context(origin_id, query, max_results=max_results)
        self._answer_locally(origin, context)
        request = query_message(origin_id, INDEX_SERVER_ID, context.plan.wire_xml,
                                community_id=query.community_id,
                                payload_bytes=context.plan.wire_bytes)
        context.extra["query_id"] = request.message_id
        context.peers_probed = 1
        self.kernel.send(request, context=context)
        return context

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _register_handlers(self, kernel: EventKernel) -> None:
        super()._register_handlers(kernel)
        kernel.add_virtual_node(INDEX_SERVER_ID)
        kernel.register(MessageType.QUERY, self._on_query)
        kernel.register(MessageType.REGISTER, self._on_register)
        kernel.register(MessageType.JOIN, self._on_heartbeat)
        kernel.register(MessageType.PING, self._on_heartbeat)

    def _on_query(self, peer: Optional[Peer], message: Message,
                  context: Optional[ExchangeContext]) -> None:
        """The server always answers, filtering offline providers *at
        delivery time*; the results ride the QUERY-HIT and count only
        when it arrives at a still-online origin."""
        if not isinstance(context, QueryContext) or message.recipient != INDEX_SERVER_ID:
            return
        cached = (self.caches.lookup(INDEX_SERVER_ID, context, create=True)
                  if self.result_caching else None)
        if cached is not None:
            # No catalog evaluation; the entry may name providers that
            # left since the fill (within the TTL / invalidation bounds).
            results, metadata_bytes = self.caches.take(context, cached)
        else:
            results, metadata_bytes = self._server.take(context, self.peers, 0)
        self._send_hit(INDEX_SERVER_ID, context, results, metadata_bytes,
                       message_id=message.message_id)

    def _cache_store(self, context: QueryContext, response: SearchResponse) -> None:
        """The finished response fills the server's cache: the one place
        every query of this organisation passes through."""
        self.caches.store(INDEX_SERVER_ID, context, response.results)

    # ------------------------------------------------------------------
    # Live-membership handlers: the server's *belief* about who is
    # alive (``last_heard``, which drives catalog decay) is built from
    # arriving messages only.  Query answering still filters providers
    # by reachability (``peer.online``) in both modes — a result models
    # an object the searcher could actually fetch — so staleness shows
    # up as the server's storage/purge cost, not as dead results.
    # ------------------------------------------------------------------
    def _on_register(self, peer: Optional[Peer], message: Message,
                     context: Optional[ExchangeContext]) -> None:
        payload = message.payload_object
        if message.recipient != INDEX_SERVER_ID or not isinstance(payload, tuple):
            return
        metadata, title = payload
        self.stats.record_registration()
        self._insert(message.sender, message.community_id, message.resource_id,
                     metadata, title, message.payload_bytes)
        self._server.last_heard[message.sender] = self.simulator.now

    def _on_heartbeat(self, peer: Optional[Peer], message: Message,
                      context: Optional[ExchangeContext]) -> None:
        """A JOIN or keepalive PING at the server.  Napster-style: the
        server does not acknowledge — silence is only ever fatal in the
        other direction (the server expiring a silent peer)."""
        if message.recipient == INDEX_SERVER_ID:
            self._server.last_heard[message.sender] = self.simulator.now

    # ------------------------------------------------------------------
    # Live-membership lifecycle
    # ------------------------------------------------------------------
    def _on_peer_joined_live(self, peer: Peer) -> None:
        """A joining peer announces itself and re-uploads its metadata,
        reliably: its whole visibility rides on this traffic.  Records
        the server still holds are replaced, but the full upload is paid
        either way — the centralized organisation's price for churn."""
        self.channel.send(join_message(peer.peer_id, INDEX_SERVER_ID))
        self._upload_all(peer, INDEX_SERVER_ID)

    def _on_maintenance_tick(self, now: float) -> None:
        """One maintenance round: every online peer heartbeats the
        server; the server expires peers silent beyond the lease and
        purges their registrations, paying the staleness window."""
        for peer_id in sorted(self.peers):
            if self.peers[peer_id].online:
                self.kernel.send(ping_message(peer_id, INDEX_SERVER_ID))
        heard = self._server.last_heard
        deadline = now - self.heartbeat_lease_ms
        expired = {peer_id for peer_id, at_ms in heard.items() if at_ms <= deadline}
        if expired:
            for peer_id in sorted(expired):
                del heard[peer_id]
            # One catalog pass for the whole expiry batch.
            self._remove(lambda record: record.provider_id in expired, now)

    def _stamp_freshness(self, now: float) -> None:
        # Every peer gets a clock, offline ones too, so registrations a
        # peer left before go-live still decay at the lease.
        self._server.last_heard = {peer_id: now for peer_id in sorted(self.peers)}

    def believed_online(self) -> list[str]:
        """Peers the server currently believes alive (live mode)."""
        return sorted(self._server.last_heard)

    # ------------------------------------------------------------------
    def catalog_size(self) -> int:
        """Number of distinct objects known to the server."""
        return len({record.resource_id for record in self._server.records.values()})

    def provider_count(self, resource_id: str) -> int:
        """How many peers currently provide ``resource_id`` (replication)."""
        return sum(1 for record in self._server.records.values()
                   if record.resource_id == resource_id
                   and (peer := self.peers.get(record.provider_id)) is not None
                   and peer.online)
