"""JXTA-style rendezvous network organisation (paper §VI future work).

The paper proposes JXTA as a future network layer: peers publish
*advertisements* of their shared resources to rendezvous peers, and
queries are resolved by walking the rendezvous overlay.  The adapter
below models the parts that matter for U-P2P:

* a subset of peers act as **rendezvous peers** holding advertisement
  indexes for the edge peers attached to them;
* advertisements carry the object's searchable metadata and **expire**
  after a lease, so edge peers must re-publish periodically (the JXTA
  lease model) — stale objects disappear from search without any
  explicit withdrawal;
* queries go edge → rendezvous and then along a deterministic walk of
  the rendezvous ring (JXTA's rendezvous propagation), stopping early
  once enough results are found.

On the event kernel the walk is a chain of QUERY deliveries: each
rendezvous peer answers from its advertisement index when its copy
arrives, then relays a single copy to the next ring position — unless
enough results have accumulated or the walk budget is spent.  A
rendezvous peer that churns offline mid-walk drops the chain, ending
the walk early, which is exactly the fragility the lease/renewal model
is there to paper over.

Compared with :class:`~repro.network.superpeer.SuperPeerProtocol` the
interesting differences are the lease/expiry behaviour and the bounded
walk instead of a full broadcast.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.kernel import EventKernel, QueryContext
from repro.engine.local import local_matches
from repro.network.base import PeerNetwork, SearchResult
from repro.network.config import check_rendezvous_lease
from repro.network.messages import (
    Message,
    MessageType,
    ad_renew_message,
    leaf_attach_message,
    leave_message,
    metadata_wire_bytes,
    query_hit_message,
    query_message,
    register_message,
)
from repro.network.peers import Peer
from repro.storage.index import AttributeIndex
from repro.storage.interning import intern_view
from repro.storage.query import Query


@dataclass
class Advertisement:
    """One advertised object replica held by a rendezvous peer.

    ``metadata_view`` (tuple-valued) and ``metadata_bytes`` are built
    once at publish time and shared by every search result generated
    from this advertisement — the walk never re-copies metadata.
    """

    resource_id: str
    community_id: str
    title: str
    metadata: dict[str, list[str]]
    provider_id: str
    expires_at_ms: float
    metadata_view: dict[str, tuple[str, ...]] = field(default_factory=dict)
    metadata_bytes: int = 0


@dataclass
class _RendezvousState:
    """Advertisement index of one rendezvous peer."""

    index: AttributeIndex = field(default_factory=AttributeIndex)
    advertisements: dict[str, Advertisement] = field(default_factory=dict)
    edges: set[str] = field(default_factory=set)


class RendezvousProtocol(PeerNetwork):
    """A JXTA-flavoured rendezvous/advertisement organisation."""

    protocol_name = "rendezvous"

    def __init__(self, *, rendezvous_ratio: float = 0.15, lease_ms: float = 30 * 60 * 1000.0,
                 walk_limit: Optional[int] = None, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0.0 < rendezvous_ratio <= 1.0:
            raise ValueError("rendezvous_ratio must be in (0, 1]")
        if lease_ms <= 0:
            raise ValueError("the advertisement lease must be positive")
        self.rendezvous_ratio = rendezvous_ratio
        self.lease_ms = lease_ms
        self.walk_limit = walk_limit
        self._states: dict[str, _RendezvousState] = {}
        #: live-membership renewal clocks: peer id -> virtual time it
        #: last re-advertised its objects
        self._last_renewed: dict[str, float] = {}

    def go_live(self) -> None:
        check_rendezvous_lease(self.lease_ms, self.membership_config)
        super().go_live()

    # ------------------------------------------------------------------
    # Role assignment
    # ------------------------------------------------------------------
    def elect_rendezvous(self, count: Optional[int] = None) -> list[str]:
        """Promote peers to rendezvous and attach every edge peer."""
        online = self.online_peers()
        if not online:
            return []
        if count is None:
            count = max(1, round(len(online) * self.rendezvous_ratio))
        count = min(count, len(online))
        chosen = sorted(online, key=lambda peer: peer.peer_id)[:count]
        chosen_ids = {peer.peer_id for peer in chosen}
        self._states = {peer_id: self._states.get(peer_id, _RendezvousState())
                        for peer_id in sorted(chosen_ids)}
        for peer in self.peers.values():
            peer.is_super_peer = peer.peer_id in chosen_ids
            peer.super_peer_id = peer.peer_id if peer.is_super_peer else None
        for peer in self.online_peers():
            if not peer.is_super_peer:
                self._attach_edge(peer)
        return sorted(chosen_ids)

    def rendezvous_ids(self) -> list[str]:
        return sorted(self._states)

    def _attach_edge(self, peer: Peer) -> None:
        online = [peer_id for peer_id in self._states if self.peers[peer_id].online]
        if not online:
            peer.super_peer_id = None
            return
        # Deterministic assignment: a stable hash of the peer id picks
        # the rendezvous (crc32, not the salted builtin hash, so runs
        # agree across processes and CI).
        target = sorted(online)[zlib.crc32(peer.peer_id.encode("utf-8")) % len(online)]
        peer.super_peer_id = target
        self._states[target].edges.add(peer.peer_id)

    # ------------------------------------------------------------------
    # Churn hooks
    # ------------------------------------------------------------------
    def _on_peer_departed(self, peer: Peer) -> None:
        if peer.is_super_peer:
            state = self._states.pop(peer.peer_id, None)
            peer.is_super_peer = False
            if state is not None:
                # Sorted for reproducibility hygiene: today each edge's
                # new rendezvous is a crc32 hash of its own id, so the
                # outcome is order-independent, but a load-aware
                # _attach_edge would silently inherit set-salt order.
                for edge_id in sorted(state.edges):
                    edge = self.peers.get(edge_id)
                    if edge is not None and edge.online:
                        self._attach_edge(edge)
        elif peer.super_peer_id in self._states:
            self._states[peer.super_peer_id].edges.discard(peer.peer_id)

    def _on_peer_returned(self, peer: Peer) -> None:
        if not self._states:
            self.elect_rendezvous()
            return
        self._attach_edge(peer)

    def _on_peer_removed(self, peer: Peer) -> None:
        self._on_peer_departed(peer)

    # ------------------------------------------------------------------
    # Live membership: edges renew their advertisements on a timer (the
    # JXTA lease model as standing traffic), leases expire in recurring
    # sweeps instead of being pulled at search time, and an edge whose
    # rendezvous died re-homes — and re-advertises everything — at its
    # next renewal tick, which is the organic repair path.
    # ------------------------------------------------------------------
    def _on_peer_joined_live(self, peer: Peer) -> None:
        peer.is_super_peer = False
        peer.super_peer_id = None
        self._live_attach_edge(peer)

    def _on_peer_left_live(self, peer: Peer) -> None:
        if peer.is_super_peer:
            # The advertisement index lived in the departed rendezvous
            # peer's RAM and dies with it; edges notice at their next
            # renewal tick and re-home.
            self._states.pop(peer.peer_id, None)
            peer.is_super_peer = False

    def _announce_departure_live(self, peer: Peer) -> None:
        if not peer.is_super_peer and peer.super_peer_id in self._states:
            self.kernel.send(leave_message(peer.peer_id, peer.super_peer_id))

    def _live_attach_edge(self, peer: Peer) -> None:
        now = self.simulator.now
        online = sorted(rdv_id for rdv_id in self._states
                        if rdv_id in self.peers and self.peers[rdv_id].online)
        if not online:
            self._promote_rendezvous(peer)
            return
        target = online[zlib.crc32(peer.peer_id.encode("utf-8")) % len(online)]
        peer.super_peer_id = target
        # Attachment is the edge's whole visibility — reliable delivery
        # retries it (and the renewals below) under faults.
        self.send_reliable(leaf_attach_message(peer.peer_id, target))
        self._readvertise(peer, target)
        self._last_renewed[peer.peer_id] = now

    def _promote_rendezvous(self, peer: Peer) -> None:
        """Deterministic promotion: the edge that found no reachable
        rendezvous becomes one itself (maintenance iterates peers in
        sorted order, so the lowest-id orphan promotes first)."""
        peer.is_super_peer = True
        peer.super_peer_id = peer.peer_id
        self._states.setdefault(peer.peer_id, _RendezvousState())
        for stored in peer.repository.documents:
            metadata = stored.metadata
            metadata_bytes = metadata_wire_bytes(metadata)
            self._insert_advertisement(peer.peer_id, peer.peer_id,
                                       stored.community_id, stored.resource_id,
                                       metadata, stored.title, metadata_bytes)
        self._last_renewed[peer.peer_id] = self.simulator.now

    def _readvertise(self, peer: Peer, target: str) -> None:
        """Re-ship every shared object's advertisement (lease renewal)."""
        for stored in peer.repository.documents:
            metadata = stored.metadata
            metadata_bytes = metadata_wire_bytes(metadata)
            self.send_reliable(ad_renew_message(
                peer.peer_id, target, community_id=stored.community_id,
                resource_id=stored.resource_id, metadata_bytes=metadata_bytes,
                payload_object=(dict(metadata), stored.title)))

    def _on_maintenance_tick(self, now: float) -> None:
        renew_after = self.lease_ms / 2
        for peer_id in sorted(self.peers):
            peer = self.peers[peer_id]
            if not peer.online:
                continue
            if peer.is_super_peer and peer_id in self._states:
                # A rendezvous peer renews its *own* ads in place (it
                # holds its own index: no wire cost, like self-publish)
                # before sweeping — otherwise they would expire too.
                if now - self._last_renewed.get(peer_id, 0.0) >= renew_after:
                    state = self._states[peer_id]
                    for advertisement in state.advertisements.values():
                        if advertisement.provider_id == peer_id:
                            advertisement.expires_at_ms = now + self.lease_ms
                    self._last_renewed[peer_id] = now
                self._expire_at(peer_id, now)
                continue
            rendezvous_id = peer.super_peer_id
            if rendezvous_id is None or rendezvous_id not in self._states:
                # The edge's rendezvous is gone: re-home and repair.
                self._live_attach_edge(peer)
            elif now - self._last_renewed.get(peer_id, 0.0) >= renew_after:
                self._readvertise(peer, rendezvous_id)
                self._last_renewed[peer_id] = now

    def _expire_at(self, rendezvous_id: str, now: float) -> None:
        """Sweep one rendezvous peer's expired advertisements, paying
        the staleness window for ads whose provider already departed."""
        state = self._states[rendezvous_id]
        dead = [key for key, advertisement in state.advertisements.items()
                if advertisement.expires_at_ms <= now]
        for key in dead:
            self._note_staleness(state.advertisements[key].provider_id, now)
            state.index.remove(key)
            del state.advertisements[key]

    def _stamp_freshness(self, now: float) -> None:
        self._last_renewed = {peer_id: now for peer_id in sorted(self.peers)}

    # ------------------------------------------------------------------
    # Live-membership handlers
    # ------------------------------------------------------------------
    def _on_ad_upload(self, peer: Optional[Peer], message: Message, context) -> None:
        """A REGISTER (first publication) or AD-RENEW (lease renewal)
        arrived at a rendezvous peer: (re)insert the advertisement with
        a fresh lease starting now.  A recipient that stopped being a
        rendezvous loses the upload — the sender re-homes at its next
        renewal tick."""
        if peer is None or message.payload_object is None:
            return
        if peer.peer_id not in self._states:
            return
        metadata, title = message.payload_object
        self.stats.record_registration()
        self._insert_advertisement(peer.peer_id, message.sender,
                                   message.community_id, message.resource_id,
                                   metadata, title, message.payload_bytes)

    def _on_leaf_attach(self, peer: Optional[Peer], message: Message, context) -> None:
        if peer is not None and peer.peer_id in self._states:
            self._states[peer.peer_id].edges.add(message.sender)

    def _on_leave(self, peer: Optional[Peer], message: Message, context) -> None:
        """A graceful goodbye: drop the sender's advertisements now
        instead of letting them decay through lease expiry."""
        if peer is None or peer.peer_id not in self._states:
            return
        state = self._states[peer.peer_id]
        state.edges.discard(message.sender)
        gone = [key for key, advertisement in state.advertisements.items()
                if advertisement.provider_id == message.sender]
        for key in gone:
            state.index.remove(key)
            del state.advertisements[key]

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def publish(self, peer_id: str, community_id: str, resource_id: str,
                metadata: dict[str, list[str]], *, title: str = "") -> None:
        """Publish an advertisement with a lease to the peer's rendezvous."""
        peer = self._require_peer(peer_id)
        self.replicas.note_original(resource_id, peer_id, at_ms=self.simulator.now)
        if self.result_caching:
            # The publisher's own cached answers predate the new object;
            # other edges' caches are bounded by the TTL/lease instead.
            cache = self._peer_caches.get(peer_id)
            if cache is not None:
                cache.bump_version()
        if self.live_membership:
            self._publish_live(peer, community_id, resource_id, metadata, title)
            return
        if not self._states:
            self.elect_rendezvous()
        target = peer.peer_id if peer.is_super_peer else peer.super_peer_id
        if target is None or target not in self._states:
            self._attach_edge(peer)
            target = peer.super_peer_id
        if target is None:
            return
        metadata_bytes = metadata_wire_bytes(metadata)
        if peer_id != target:
            message = register_message(peer_id, target, community_id=community_id,
                                       resource_id=resource_id, metadata_bytes=metadata_bytes)
            self._account(message)
            self.stats.record_registration()
        self._insert_advertisement(target, peer_id, community_id, resource_id,
                                   metadata, title, metadata_bytes)

    def _insert_advertisement(self, rendezvous_id: str, provider_id: str,
                              community_id: str, resource_id: str,
                              metadata: dict[str, list[str]], title: str,
                              metadata_bytes: int) -> None:
        state = self._states[rendezvous_id]
        key = f"{resource_id}@{provider_id}"
        state.advertisements[key] = Advertisement(
            resource_id=resource_id,
            community_id=community_id,
            title=title,
            metadata=dict(metadata),
            provider_id=provider_id,
            expires_at_ms=self.simulator.now + self.lease_ms,
            metadata_view=intern_view(metadata),
            metadata_bytes=metadata_bytes,
        )
        state.index.add(community_id, key, metadata)

    def _publish_live(self, peer: Peer, community_id: str, resource_id: str,
                      metadata: dict[str, list[str]], title: str) -> None:
        """Live publication: a rendezvous peer indexes its own ad for
        free; an edge ships the advertisement as a REGISTER whose lease
        starts when it *arrives*.  An orphaned edge publishes nothing —
        its next renewal tick re-homes it and re-advertises."""
        metadata_bytes = metadata_wire_bytes(metadata)
        if peer.is_super_peer and peer.peer_id in self._states:
            self._insert_advertisement(peer.peer_id, peer.peer_id, community_id,
                                       resource_id, metadata, title, metadata_bytes)
            return
        target = peer.super_peer_id
        if target is None:
            return
        self.send_reliable(register_message(
            peer.peer_id, target, community_id=community_id,
            resource_id=resource_id, metadata_bytes=metadata_bytes,
            payload_object=(dict(metadata), title)))

    def renew(self, peer_id: str) -> int:
        """Re-advertise every object a peer shares (lease renewal).

        Returns the number of advertisements renewed.
        """
        peer = self._require_peer(peer_id)
        renewed = 0
        for stored in peer.repository.documents:
            self.publish(peer_id, stored.community_id, stored.resource_id,
                         dict(stored.metadata), title=stored.title)
            renewed += 1
        return renewed

    def expire_advertisements(self) -> int:
        """Drop expired advertisements everywhere; returns how many died."""
        expired = 0
        now = self.simulator.now
        for state in self._states.values():
            dead = [key for key, advertisement in state.advertisements.items()
                    if advertisement.expires_at_ms <= now]
            for key in dead:
                state.index.remove(key)
                del state.advertisements[key]
                expired += 1
        return expired

    def start_search(self, origin_id: str, query: Query, *, max_results: int = 100,
                     **kwargs) -> QueryContext:
        origin = self._require_peer(origin_id)
        if not self._states and not self.live_membership:
            self.elect_rendezvous()
        if not self.live_membership:
            # Off-mode lease handling is a pull at search time; in live
            # mode expiry happens only in the recurring sweep, so a
            # search between sweeps can still see (and pay for) stale
            # advertisements.
            self.expire_advertisements()
        context = self.new_context(
            origin_id, query, max_results=max_results,
            query_id=query.query_id or f"rdv-{self.next_query_number()}",
        )
        if self.result_caching:
            cache = self._peer_cache(origin_id)
            cached = (cache.get(self._context_cache_key(context), self.simulator.now)
                      if cache is not None else None)
            if cached is not None:
                # The edge re-asked a query whose walk it recently paid
                # for: the cached set returns with zero messages.
                self._serve_cached_locally(context, cached)
                self.kernel.finish_if_idle(context)
                return context
            self.stats.record_cache_miss()
        wire_xml, wire_bytes = self.wire_form(query, context.plan)
        context.extra["query_xml"] = wire_xml
        context.extra["query_bytes"] = wire_bytes

        for stored in local_matches(origin.repository, query, plan=context.plan,
                                    limit=max_results):
            context.add_result(SearchResult.from_stored(origin_id, stored, hops=0))

        entry = origin.peer_id if origin.is_super_peer else origin.super_peer_id
        if entry is None or entry not in self._states:
            if self.live_membership:
                # An orphaned edge answers locally only until its next
                # renewal tick re-homes it.
                entry = None
            else:
                self._attach_edge(origin)
                entry = origin.super_peer_id
        if entry is None:
            self.kernel.finish_if_idle(context)
            return context

        # The walk order is fixed at submission: the ring of online
        # rendezvous peers, rotated to start at the entry point.
        ring = sorted(peer_id for peer_id in self._states if self.peers[peer_id].online)
        if entry in ring:
            start = ring.index(entry)
            ordered = ring[start:] + ring[:start]
        else:
            ordered = ring
        limit = self.walk_limit if self.walk_limit is not None else len(ordered)
        walk = ordered[:limit]
        context.extra["walk"] = walk
        if not walk:
            self.kernel.finish_if_idle(context)
            return context

        hop_to_entry = 0 if origin.is_super_peer else 1
        context.extra["hop_to_entry"] = hop_to_entry
        if hop_to_entry:
            message = query_message(origin_id, walk[0], wire_xml,
                                    community_id=query.community_id,
                                    payload_bytes=wire_bytes)
            message.hops = hop_to_entry
            self.kernel.send(message, context=context)
        else:
            self._answer_at_rendezvous(origin, hops=0, context=context)
        self.kernel.finish_if_idle(context)
        return context

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _register_handlers(self, kernel: EventKernel) -> None:
        super()._register_handlers(kernel)
        kernel.register(MessageType.QUERY, self._on_query)
        kernel.register(MessageType.REGISTER, self._on_ad_upload)
        kernel.register(MessageType.AD_RENEW, self._on_ad_upload)
        kernel.register(MessageType.LEAF_ATTACH, self._on_leaf_attach)
        kernel.register(MessageType.LEAVE, self._on_leave)

    def _on_query(self, peer: Optional[Peer], message: Message,
                  context: Optional[QueryContext]) -> None:
        if peer is None or context is None:
            return
        self._answer_at_rendezvous(peer, hops=message.hops, context=context)

    def _answer_at_rendezvous(self, peer: Peer, *, hops: int, context: QueryContext) -> None:
        """One walk step: answer from this rendezvous, relay to the next.

        Results ride the QUERY-HIT and count only on arrival at the
        origin; their room is claimed here so the walk stops at the
        same point it would if hits were instantaneous."""
        context.peers_probed += 1
        results, metadata_bytes = self._collect_results(peer.peer_id, context, hops)
        if results:
            context.claim(len(results))
            hit = query_hit_message(peer.peer_id, context.origin_id, result_count=len(results),
                                    metadata_bytes=metadata_bytes,
                                    message_id=f"rdv-{len(self.stats.queries)}")
            hit.carried_results = tuple(results)
            self.kernel.send(hit, context=context,
                             latency_ms=self.simulator.now - context.started_at)
        walk: list[str] = context.extra["walk"]
        position = hops - context.extra.get("hop_to_entry", 0)
        if context.room() <= 0 or position + 1 >= len(walk):
            return
        relay = query_message(peer.peer_id, walk[position + 1], context.extra["query_xml"],
                              community_id=context.query.community_id,
                              payload_bytes=context.extra["query_bytes"])
        relay.hops = hops + 1
        self.kernel.send(relay, context=context)

    # ------------------------------------------------------------------
    def _collect_results(self, rendezvous_id: str, context: QueryContext,
                         hops: int) -> tuple[list[SearchResult], int]:
        """Matching results at one rendezvous plus their metadata bytes
        (summed from the per-advertisement counts measured at publish)."""
        state = self._states.get(rendezvous_id)
        if state is None:
            return [], 0
        evaluator = context.plan if context.plan is not None else context.query
        if evaluator.is_empty:
            keys = sorted(key for key, advertisement in state.advertisements.items()
                          if advertisement.community_id == evaluator.community_id)
        else:
            keys = sorted(evaluator.evaluate(state.index))
        results: list[SearchResult] = []
        metadata_bytes = 0
        room = context.room()
        for key in keys:
            advertisement = state.advertisements.get(key)
            if advertisement is None:
                continue
            provider = self.peers.get(advertisement.provider_id)
            if provider is None or not provider.online \
                    or advertisement.provider_id == context.origin_id:
                continue
            results.append(SearchResult(
                provider_id=advertisement.provider_id,
                resource_id=advertisement.resource_id,
                community_id=advertisement.community_id,
                title=advertisement.title,
                metadata=advertisement.metadata_view,
                hops=hops + 1,
            ))
            metadata_bytes += advertisement.metadata_bytes
            if len(results) >= room:
                break
        return results, metadata_bytes

    def _cache_store(self, context: QueryContext, response) -> None:
        """The origin edge caches its finished response.  Entry lifetime
        is additionally capped at one advertisement lease from the fill:
        an advertisement serving the response had at most that much
        life left, so a cached answer can outlive any individual ad by
        at most one lease period (within the TTL bound as always)."""
        self._store_response_at(self._peer_cache(context.origin_id), context, response,
                                lease_ms=self.lease_ms)

    def advertisement_count(self) -> int:
        """Live advertisements across all rendezvous peers."""
        return sum(len(state.advertisements) for state in self._states.values())
