"""Napster-style centralized network organisation.

A single index server holds the searchable metadata of every shared
object.  Publishing uploads metadata to the server (one REGISTER
message); searching is one QUERY to the server and one QUERY-HIT back;
object transfer still happens directly between peers.  This is the
organisation the U-P2P prototype effectively had (a central Magenta
database), and it is the baseline of the protocol-comparison
experiment.

On the event kernel the server is a *virtual node*: it owns no
repository, is always reachable, and its QUERY handler answers from the
central catalog/attribute index before scheduling the QUERY-HIT back —
so a query costs exactly two messages and one round trip, delivered on
the shared clock alongside every other in-flight query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.kernel import EventKernel, QueryContext
from repro.network.base import PeerNetwork, SearchResult
from repro.network.messages import (
    Message,
    MessageType,
    join_message,
    leave_message,
    metadata_wire_bytes,
    ping_message,
    query_message,
    unregister_message,
)
from repro.network.peers import Peer
from repro.storage.index import AttributeIndex
from repro.storage.interning import intern_view
from repro.storage.query import Query

INDEX_SERVER_ID = "index-server"


@dataclass
class _CatalogEntry:
    """The server's record of one published object replica.

    The tuple-valued metadata view and its wire byte count are built
    once at registration and shared by every search result generated
    from this entry — answering a query never re-copies metadata.
    """

    resource_id: str
    community_id: str
    title: str
    metadata: dict[str, list[str]]
    providers: set[str] = field(default_factory=set)
    metadata_view: dict[str, tuple[str, ...]] = field(default_factory=dict)
    metadata_bytes: int = 0


class CentralizedProtocol(PeerNetwork):
    """A central index server plus ordinary peers."""

    protocol_name = "centralized"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._index = AttributeIndex()
        self._catalog: dict[str, _CatalogEntry] = {}
        #: the server's belief about who is alive: peer id -> virtual
        #: time its last heartbeat (JOIN / PING / REGISTER) arrived.
        #: Only meaningful in live-membership mode.
        self._server_heartbeats: dict[str, float] = {}

    # ------------------------------------------------------------------
    def publish(self, peer_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], *, title: str = "") -> None:
        peer = self._require_peer(peer_id)
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
        self._insert_catalog_entry(peer.peer_id, community_id, resource_id,
                                   metadata, title, metadata_bytes)

    def _insert_catalog_entry(self, provider_id: str, community_id: str,
                              resource_id: str, metadata: dict[str, list[str]],
                              title: str, metadata_bytes: int) -> None:
        cache = self.caches.sites.get(INDEX_SERVER_ID)
        if cache is not None:
            # A publish (or replica announcement) arriving at the server
            # is the invalidation traffic: the catalog version moves and
            # every cached answer filled before it goes stale.
            cache.bump_version()
        entry = self._catalog.get(resource_id)
        if entry is None:
            entry = _CatalogEntry(
                resource_id=resource_id, community_id=community_id,
                title=title, metadata=dict(metadata),
                metadata_view=intern_view(metadata),
                metadata_bytes=metadata_bytes,
            )
            self._catalog[resource_id] = entry
            self._index.add(community_id, resource_id, metadata)
        entry.providers.add(provider_id)

    def withdraw(self, peer_id: str, resource_id: str) -> None:
        """Remove one provider of an object from the central catalog."""
        entry = self._catalog.get(resource_id)
        if entry is None:
            return
        cache = self.caches.sites.get(INDEX_SERVER_ID)
        if cache is not None and peer_id in entry.providers:
            # The server learned this provider is gone (UNREGISTER, a
            # permanent removal, or its heartbeat lease lapsing): cached
            # answers naming it die the same moment the catalog's do.
            cache.invalidate_provider(peer_id)
        entry.providers.discard(peer_id)
        if not entry.providers:
            self._index.remove(resource_id)
            del self._catalog[resource_id]

    # ------------------------------------------------------------------
    def start_search(self, origin_id: str, query: Query, *, max_results: int = 100,
                     **kwargs) -> QueryContext:
        self._require_peer(origin_id)
        context = self.new_context(origin_id, query, max_results=max_results)
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
        kernel.register(MessageType.UNREGISTER, self._on_unregister)
        kernel.register(MessageType.JOIN, self._on_join)
        kernel.register(MessageType.LEAVE, self._on_leave)
        kernel.register(MessageType.PING, self._on_ping)

    def _on_query(self, peer: Optional[Peer], message: Message,
                  context: Optional[QueryContext]) -> None:
        """The server answers from the catalog, filtering offline providers
        *at delivery time* — churn between submission and arrival counts.
        The results ride the QUERY-HIT and are appended only when it
        arrives at a still-online origin."""
        if context is None or message.recipient != INDEX_SERVER_ID:
            return
        if self.result_caching:
            # The server's cache is the one place every query of this
            # organisation passes through.
            cached = self.caches.lookup(INDEX_SERVER_ID, context, create=True)
            if cached is not None:
                # Served straight from the result cache: same two-message
                # round trip (the server always answers, even with
                # nothing), but no catalog/index evaluation — and the
                # entry may name providers that departed since the fill
                # (stale within the TTL / invalidation bounds).
                served, served_bytes = self.caches.take(context, cached)
                self._send_hit(INDEX_SERVER_ID, context, served, served_bytes,
                               message_id=message.message_id)
                return
        metadata_bytes = 0
        results: list[SearchResult] = []
        room = context.room()
        for resource_id in sorted(self._matching_ids(context)):
            entry = self._catalog[resource_id]
            for provider_id in sorted(entry.providers):
                provider = self.peers.get(provider_id)
                if provider is None or not provider.online:
                    continue
                result = SearchResult(
                    provider_id=provider_id,
                    resource_id=resource_id,
                    community_id=entry.community_id,
                    title=entry.title,
                    metadata=entry.metadata_view,
                    hops=1,
                )
                results.append(result)
                metadata_bytes += entry.metadata_bytes
                if len(results) >= room:
                    break
            if len(results) >= room:
                break
        if self.result_caching:
            self.caches.store(INDEX_SERVER_ID, context, results,
                              metadata_bytes=metadata_bytes)
        self._send_hit(INDEX_SERVER_ID, context, results, metadata_bytes,
                       message_id=message.message_id)

    # ------------------------------------------------------------------
    def _matching_ids(self, context: QueryContext) -> set[str]:
        plan = context.plan
        if plan.is_empty:
            return {
                resource_id
                for resource_id, entry in self._catalog.items()
                if entry.community_id == plan.community_id
            }
        return plan.evaluate(self._index)

    # ------------------------------------------------------------------
    # Live-membership handlers: the server's *belief* about who is
    # alive (``_server_heartbeats``, which drives catalog decay) is
    # built from arriving messages only.  Query answering still filters
    # providers by reachability (``peer.online``) in both modes — a
    # result models an object the searcher could actually fetch — so
    # staleness shows up as the server's storage/purge cost, not as
    # dead results.
    # ------------------------------------------------------------------
    def _on_register(self, peer: Optional[Peer], message: Message, context) -> None:
        if message.recipient != INDEX_SERVER_ID or message.payload_object is None:
            return
        metadata, title = message.payload_object
        self.stats.record_registration()
        self._insert_catalog_entry(message.sender, message.community_id,
                                   message.resource_id, metadata, title,
                                   message.payload_bytes)
        self._server_heartbeats[message.sender] = self.simulator.now

    def _on_unregister(self, peer: Optional[Peer], message: Message, context) -> None:
        if message.recipient == INDEX_SERVER_ID:
            self.withdraw(message.sender, message.resource_id)

    def _on_join(self, peer: Optional[Peer], message: Message, context) -> None:
        if message.recipient == INDEX_SERVER_ID:
            self._server_heartbeats[message.sender] = self.simulator.now

    def _on_leave(self, peer: Optional[Peer], message: Message, context) -> None:
        if message.recipient == INDEX_SERVER_ID:
            self._server_heartbeats.pop(message.sender, None)

    def _on_ping(self, peer: Optional[Peer], message: Message, context) -> None:
        """A keepalive heartbeat at the server.  Napster-style: the
        server does not acknowledge — silence is only ever fatal in the
        other direction (the server expiring a silent peer)."""
        if message.recipient == INDEX_SERVER_ID:
            self._server_heartbeats[message.sender] = self.simulator.now

    # ------------------------------------------------------------------
    # Live-membership lifecycle
    # ------------------------------------------------------------------
    def _on_peer_joined_live(self, peer: Peer) -> None:
        """A joining peer announces itself and re-uploads its metadata.

        The server may still hold this peer's registrations (it came
        back inside the staleness window) — re-registering is
        idempotent, and costs the full upload either way, which is the
        maintenance price the centralized organisation pays for churn.
        """
        # JOIN and the re-uploads are the traffic this peer's whole
        # visibility rides on — reliable delivery retries them.
        self.channel.send(join_message(peer.peer_id, INDEX_SERVER_ID))
        self._upload_all(peer, INDEX_SERVER_ID)

    def _announce_departure_live(self, peer: Peer) -> None:
        for stored in peer.repository.documents:
            self.kernel.send(unregister_message(peer.peer_id, INDEX_SERVER_ID,
                                                resource_id=stored.resource_id))
        self.kernel.send(leave_message(peer.peer_id, INDEX_SERVER_ID))

    def _on_maintenance_tick(self, now: float) -> None:
        """One maintenance round: every online peer heartbeats the
        server; the server expires peers silent beyond the lease and
        purges their registrations, paying the staleness window."""
        for peer_id in sorted(self.peers):
            if self.peers[peer_id].online:
                self.kernel.send(ping_message(peer_id, INDEX_SERVER_ID))
        deadline = now - self.heartbeat_lease_ms
        expired = {pid for pid, heard in self._server_heartbeats.items()
                   if heard <= deadline}
        if not expired:
            return
        for peer_id in sorted(expired):
            del self._server_heartbeats[peer_id]
        # One catalog pass for the whole expiry batch, however many
        # peers lapsed together.
        for resource_id in list(self._catalog):
            for peer_id in sorted(expired & self._catalog[resource_id].providers):
                self._note_staleness(peer_id, now)
                self.withdraw(peer_id, resource_id)

    def _stamp_freshness(self, now: float) -> None:
        # Every peer gets a clock — including ones offline right now —
        # so registrations left by a peer that departed before go-live
        # still decay at the lease instead of persisting forever.
        self._server_heartbeats = {peer_id: now for peer_id in sorted(self.peers)}

    def believed_online(self) -> list[str]:
        """Peers the server currently believes alive (live mode)."""
        return sorted(self._server_heartbeats)

    # ------------------------------------------------------------------
    # Churn hooks: the catalog keeps entries of offline peers but search
    # filters them out; a peer that is removed permanently is withdrawn.
    # ------------------------------------------------------------------
    def _on_peer_removed(self, peer: Peer) -> None:
        for resource_id in list(self._catalog):
            self.withdraw(peer.peer_id, resource_id)

    # ------------------------------------------------------------------
    def catalog_size(self) -> int:
        """Number of distinct objects known to the server."""
        return len(self._catalog)

    def provider_count(self, resource_id: str) -> int:
        """How many peers currently provide ``resource_id`` (replication)."""
        entry = self._catalog.get(resource_id)
        if entry is None:
            return 0
        return sum(
            1 for provider in entry.providers
            if provider in self.peers and self.peers[provider].online
        )
